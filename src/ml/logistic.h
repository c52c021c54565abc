// Multinomial logistic regression — the leaf model substrate for LMT.
#ifndef SMARTML_ML_LOGISTIC_H_
#define SMARTML_ML_LOGISTIC_H_

#include <vector>

#include "src/common/status.h"
#include "src/linalg/matrix.h"

namespace smartml {

/// L2-regularized multinomial logistic regression trained by full-batch
/// gradient descent with backtracking step control. Expects an already
/// numeric design matrix.
class LogisticModel {
 public:
  struct Options {
    double l2 = 1e-3;
    int max_iters = 200;
    double learning_rate = 0.5;
    double tolerance = 1e-6;
  };

  /// Trains on x (n x d) with labels y in [0, num_classes). `sample_weights`
  /// may be empty.
  Status Fit(const Matrix& x, const std::vector<int>& y, int num_classes,
             const std::vector<double>& sample_weights, const Options& options);

  /// Class probabilities for one row of width d.
  std::vector<double> PredictProbaRow(const double* row) const;
  /// The same probabilities written to out[0 .. num_classes()).
  void PredictProbaRow(const double* row, double* out) const;

  bool fitted() const { return num_classes_ > 0; }
  int num_classes() const { return num_classes_; }

 private:
  // Weight layout: weights_[k * (d + 1) + j], j = d is the bias.
  std::vector<double> weights_;
  size_t dim_ = 0;
  int num_classes_ = 0;
};

}  // namespace smartml

#endif  // SMARTML_ML_LOGISTIC_H_
