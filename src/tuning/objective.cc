#include "src/tuning/objective.h"

#include <algorithm>
#include <cmath>

#include "src/common/fault_injection.h"
#include "src/common/strings.h"
#include "src/data/metrics.h"

namespace smartml {

const char* TuneMetricName(TuneMetric metric) {
  switch (metric) {
    case TuneMetric::kAccuracy:
      return "accuracy";
    case TuneMetric::kMacroF1:
      return "macro_f1";
    case TuneMetric::kKappa:
      return "kappa";
    case TuneMetric::kLogLoss:
      return "logloss";
  }
  return "unknown";
}

StatusOr<TuneMetric> ParseTuneMetric(const std::string& name) {
  const std::string lower = AsciiToLower(name);
  for (TuneMetric metric : {TuneMetric::kAccuracy, TuneMetric::kMacroF1,
                            TuneMetric::kKappa, TuneMetric::kLogLoss}) {
    if (lower == TuneMetricName(metric)) return metric;
  }
  return Status::NotFound("unknown tuning metric '" + name + "'");
}

StatusOr<std::unique_ptr<ClassifierObjective>> ClassifierObjective::Create(
    const Classifier& prototype, const Dataset& data, int num_folds,
    uint64_t seed, TuneMetric metric) {
  auto objective = std::unique_ptr<ClassifierObjective>(
      new ClassifierObjective());
  objective->prototype_ = prototype.Clone();
  objective->metric_ = metric;
  MetricsRegistry& registry = GlobalMetrics();
  const std::string algorithm = prototype.name();
  const char* seconds_help =
      "Seconds per fold-evaluation stage (fit, predict) by algorithm.";
  const char* failed_help =
      "Fold evaluations scored as cost 1.0 because the fit or predict "
      "failed.";
  objective->fit_seconds_ = registry.GetHistogram(
      "smartml_eval_seconds", seconds_help, LatencyBuckets(),
      {{"algorithm", algorithm}, {"stage", "fit"}});
  objective->predict_seconds_ = registry.GetHistogram(
      "smartml_eval_seconds", seconds_help, LatencyBuckets(),
      {{"algorithm", algorithm}, {"stage", "predict"}});
  objective->fit_failures_ = registry.GetCounter(
      "smartml_evaluations_failed_total", failed_help,
      {{"algorithm", algorithm}, {"reason", "fit"}});
  objective->predict_failures_ = registry.GetCounter(
      "smartml_evaluations_failed_total", failed_help,
      {{"algorithm", algorithm}, {"reason", "predict"}});
  if (num_folds <= 1) {
    SMARTML_ASSIGN_OR_RETURN(TrainValidationSplit split,
                             StratifiedSplit(data, 0.25, seed));
    objective->splits_.push_back(std::move(split));
  } else {
    SMARTML_ASSIGN_OR_RETURN(std::vector<int> folds,
                             StratifiedFolds(data, num_folds, seed));
    for (int f = 0; f < num_folds; ++f) {
      objective->splits_.push_back(MaterializeFold(data, folds, f));
    }
  }
  return objective;
}

StatusOr<double> ClassifierObjective::FailedEvaluation(const Status& status,
                                                       Counter* failures) {
  // Cancellation is the one failure that must NOT be swallowed: it means
  // the whole run is being torn down, not that this config is bad.
  if (status.code() == StatusCode::kCancelled) return status;
  // A configuration that fails to train or predict is maximally bad, not
  // fatal: SMAC must be able to route around crashing configs.
  failures->Increment();
  num_failed_.fetch_add(1, std::memory_order_relaxed);
  return 1.0;
}

StatusOr<double> ClassifierObjective::EvaluateFold(const ParamConfig& config,
                                                   size_t fold) {
  if (fold >= splits_.size()) {
    return Status::InvalidArgument("objective: fold index out of range");
  }
  num_evaluations_.fetch_add(1, std::memory_order_relaxed);
  FaultMaybeDelay("slow_train");  // Makes runs reliably slow under test.
  const TrainValidationSplit& split = splits_[fold];
  std::unique_ptr<Classifier> model = prototype_->Clone();
  Status fit_status;
  {
    ScopedTimer timer(fit_seconds_);
    fit_status = model->Fit(split.train, config);
  }
  if (!fit_status.ok()) return FailedEvaluation(fit_status, fit_failures_);
  const std::vector<int>& actual = split.validation.labels();
  const int num_classes = static_cast<int>(split.validation.NumClasses());

  if (metric_ == TuneMetric::kLogLoss) {
    StatusOr<std::vector<std::vector<double>>> proba = [&] {
      ScopedTimer timer(predict_seconds_);
      return model->PredictProba(split.validation);
    }();
    if (!proba.ok()) {
      return FailedEvaluation(proba.status(), predict_failures_);
    }
    // Squash unbounded log loss into (0, 1): cost = 1 - exp(-loss).
    return 1.0 - std::exp(-LogLoss(actual, *proba));
  }

  StatusOr<std::vector<int>> predictions = [&] {
    ScopedTimer timer(predict_seconds_);
    return model->Predict(split.validation);
  }();
  if (!predictions.ok()) {
    return FailedEvaluation(predictions.status(), predict_failures_);
  }
  switch (metric_) {
    case TuneMetric::kAccuracy:
      return ErrorRate(actual, *predictions);
    case TuneMetric::kMacroF1:
      return 1.0 - MacroF1(actual, *predictions, num_classes);
    case TuneMetric::kKappa:
      return 1.0 - std::clamp(CohensKappa(actual, *predictions, num_classes),
                              0.0, 1.0);
    case TuneMetric::kLogLoss:
      break;  // Handled above.
  }
  return ErrorRate(actual, *predictions);
}

}  // namespace smartml
