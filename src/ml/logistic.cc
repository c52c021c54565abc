#include "src/ml/logistic.h"

#include <algorithm>
#include <cmath>

#include "src/common/cancellation.h"

namespace smartml {

Status LogisticModel::Fit(const Matrix& x, const std::vector<int>& y,
                          int num_classes,
                          const std::vector<double>& sample_weights,
                          const Options& options) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    return Status::InvalidArgument("LogisticModel: bad training shape");
  }
  const size_t n = x.rows();
  const size_t d = x.cols();
  dim_ = d;
  num_classes_ = num_classes;
  const auto k = static_cast<size_t>(num_classes);
  const size_t stride = d + 1;
  weights_.assign(k * stride, 0.0);

  std::vector<double> w = sample_weights;
  if (w.empty()) w.assign(n, 1.0);
  double w_total = 0.0;
  for (double v : w) w_total += v;
  if (w_total <= 0) {
    return Status::InvalidArgument("LogisticModel: zero total weight");
  }

  std::vector<double> grad(k * stride);
  std::vector<double> logits(k);
  std::vector<double> proba(k);
  double lr = options.learning_rate;
  double prev_loss = 1e300;

  for (int iter = 0; iter < options.max_iters; ++iter) {
    if (CancellationRequested()) {
      return Status::Cancelled("logistic: fit cancelled");
    }
    std::fill(grad.begin(), grad.end(), 0.0);
    double loss = 0.0;
    for (size_t r = 0; r < n; ++r) {
      if (w[r] <= 0) continue;
      const double* row = x.RowPtr(r);
      for (size_t c = 0; c < k; ++c) {
        double acc = weights_[c * stride + d];
        const double* wc = &weights_[c * stride];
        for (size_t j = 0; j < d; ++j) acc += wc[j] * row[j];
        logits[c] = acc;
      }
      const double max_logit =
          *std::max_element(logits.begin(), logits.end());
      double total = 0.0;
      for (size_t c = 0; c < k; ++c) {
        proba[c] = std::exp(logits[c] - max_logit);
        total += proba[c];
      }
      for (double& p : proba) p /= total;
      const auto label = static_cast<size_t>(y[r]);
      loss -= w[r] * std::log(std::max(proba[label], 1e-15));
      for (size_t c = 0; c < k; ++c) {
        const double err = w[r] * (proba[c] - (c == label ? 1.0 : 0.0));
        double* gc = &grad[c * stride];
        for (size_t j = 0; j < d; ++j) gc[j] += err * row[j];
        gc[d] += err;
      }
    }
    loss /= w_total;
    // L2 on non-bias weights.
    for (size_t c = 0; c < k; ++c) {
      for (size_t j = 0; j < d; ++j) {
        const double wv = weights_[c * stride + j];
        loss += 0.5 * options.l2 * wv * wv;
        grad[c * stride + j] = grad[c * stride + j] / w_total +
                               options.l2 * wv;
      }
      grad[c * stride + d] /= w_total;
    }

    if (loss > prev_loss + 1e-12) {
      lr *= 0.5;  // Backtrack on divergence.
      if (lr < 1e-6) break;
    } else if (prev_loss - loss < options.tolerance) {
      break;
    }
    prev_loss = std::min(prev_loss, loss);

    for (size_t i = 0; i < weights_.size(); ++i) {
      weights_[i] -= lr * grad[i];
    }
  }
  return Status::OK();
}

std::vector<double> LogisticModel::PredictProbaRow(const double* row) const {
  std::vector<double> proba(static_cast<size_t>(num_classes_));
  PredictProbaRow(row, proba.data());
  return proba;
}

void LogisticModel::PredictProbaRow(const double* row, double* out) const {
  const auto k = static_cast<size_t>(num_classes_);
  const size_t stride = dim_ + 1;
  // The logits go to `out` and are turned into probabilities in place.
  for (size_t c = 0; c < k; ++c) {
    double acc = weights_[c * stride + dim_];
    const double* wc = &weights_[c * stride];
    for (size_t j = 0; j < dim_; ++j) acc += wc[j] * row[j];
    out[c] = acc;
  }
  const double max_logit = *std::max_element(out, out + k);
  double total = 0.0;
  for (size_t c = 0; c < k; ++c) {
    out[c] = std::exp(out[c] - max_logit);
    total += out[c];
  }
  for (size_t c = 0; c < k; ++c) out[c] /= total;
}

}  // namespace smartml
