// Tuning objectives: what SMAC / random search optimize.
//
// SMAC's robustness comes from racing configurations across cross-validation
// folds ("the ability to discard low performance parameter configurations
// quickly after the evaluation on low number of folds" — paper §2), so the
// objective exposes per-fold evaluation rather than a single score.
#ifndef SMARTML_TUNING_OBJECTIVE_H_
#define SMARTML_TUNING_OBJECTIVE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/dataset.h"
#include "src/data/split.h"
#include "src/ml/classifier.h"
#include "src/obs/metrics.h"
#include "src/tuning/param_space.h"

namespace smartml {

/// What a classifier objective minimizes.
enum class TuneMetric {
  kAccuracy,  ///< Cost = 1 - accuracy (the paper's metric).
  kMacroF1,   ///< Cost = 1 - macro-averaged F1 (imbalance-robust).
  kKappa,     ///< Cost = 1 - Cohen's kappa (clamped to [0, 1]).
  kLogLoss,   ///< Cost = squashed multi-class log loss.
};

/// Stable lower-case name ("accuracy", "macro_f1", "kappa", "logloss").
const char* TuneMetricName(TuneMetric metric);

/// Parses a metric name.
StatusOr<TuneMetric> ParseTuneMetric(const std::string& name);

/// A minimization objective evaluated fold-by-fold. Costs are in [0, 1]
/// (1 - accuracy for classifier objectives). EvaluateFold must be safe to
/// call concurrently for distinct (config, fold) pairs — the tuners batch
/// independent fold evaluations across the run's thread pool.
class TuningObjective {
 public:
  virtual ~TuningObjective() = default;
  virtual size_t NumFolds() const = 0;
  /// Cost of `config` on fold `fold` (deterministic per (config, fold)).
  virtual StatusOr<double> EvaluateFold(const ParamConfig& config,
                                        size_t fold) = 0;
};

/// Cross-validated classification error of one algorithm on one dataset.
class ClassifierObjective : public TuningObjective {
 public:
  /// Builds `num_folds` stratified folds of `data` (num_folds == 1 gives a
  /// single stratified 75/25 holdout). The classifier prototype is cloned
  /// per evaluation. `metric` selects the cost being minimized.
  static StatusOr<std::unique_ptr<ClassifierObjective>> Create(
      const Classifier& prototype, const Dataset& data, int num_folds,
      uint64_t seed, TuneMetric metric = TuneMetric::kAccuracy);

  size_t NumFolds() const override { return splits_.size(); }
  StatusOr<double> EvaluateFold(const ParamConfig& config,
                                size_t fold) override;

  /// Number of EvaluateFold calls so far (for budget accounting/tests).
  size_t num_evaluations() const {
    return num_evaluations_.load(std::memory_order_relaxed);
  }

  /// Evaluations whose fit or predict failed (not cancelled) and were
  /// scored as cost 1.0 so the tuner could route around the config.
  size_t num_failed_evaluations() const {
    return num_failed_.load(std::memory_order_relaxed);
  }

 private:
  ClassifierObjective() = default;

  /// Scores a failed fit or predict as the worst cost, counting it under
  /// smartml_evaluations_failed_total{reason}. Cancellation passes through.
  StatusOr<double> FailedEvaluation(const Status& status, Counter* failures);

  std::unique_ptr<Classifier> prototype_;
  std::vector<TrainValidationSplit> splits_;
  TuneMetric metric_ = TuneMetric::kAccuracy;
  /// Atomic: concurrent fold evaluations from a parallel batch all count.
  std::atomic<size_t> num_evaluations_{0};
  std::atomic<size_t> num_failed_{0};
  /// smartml_eval_seconds{algorithm, stage} and
  /// smartml_evaluations_failed_total{algorithm, reason} series of this
  /// objective's algorithm, resolved once at Create.
  Histogram* fit_seconds_ = nullptr;
  Histogram* predict_seconds_ = nullptr;
  Counter* fit_failures_ = nullptr;
  Counter* predict_failures_ = nullptr;
};

/// Outcome of a tuning run.
struct TunedResult {
  ParamConfig best_config;
  double best_cost = 1.0;           ///< Mean cost of the incumbent.
  size_t num_evaluations = 0;       ///< Fold evaluations consumed.
  /// Incumbent mean cost after each fold evaluation (for convergence plots).
  std::vector<double> trajectory;
  /// True when the search continued from a CheckpointSink snapshot instead
  /// of starting fresh (see persist/checkpoint.h).
  bool resumed = false;
};

}  // namespace smartml

#endif  // SMARTML_TUNING_OBJECTIVE_H_
