// Per-layer attribution of a run's tuning phase. The replay repeats what
// SmartML::Run's tuning phase does for each candidate (objective, SMAC,
// refit) through the same public calls, on one thread, with two timing
// decorators in the loop:
//
//   * TimedClassifier wraps the prototype handed to
//     ClassifierObjective::Create; its Clone() is wrapped too, so every fold
//     model's Fit / Predict / PredictProba is timed and counted, and a Fit
//     that returns non-OK is counted as a failed fit (the objective itself
//     silently scores it as cost 1.0).
//   * TimedObjective wraps the objective handed to Smac and times
//     EvaluateFold, so SMAC's own time (surrogate, EI, racing) is the
//     remainder of its wall time.
#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/smartml.h"
#include "src/ml/classifier.h"
#include "src/tuning/objective.h"

namespace e2e {

/// Time and counts of one algorithm's fold models.
struct LearnerStats {
  double fit_s = 0.0;
  double predict_s = 0.0;
  uint64_t fits = 0;
  uint64_t fit_failed = 0;
};

class TimedClassifier : public smartml::Classifier {
 public:
  TimedClassifier(std::unique_ptr<smartml::Classifier> inner,
                  LearnerStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::string name() const override { return inner_->name(); }
  smartml::Status Fit(const smartml::Dataset& train,
                      const smartml::ParamConfig& config) override;
  smartml::StatusOr<std::vector<std::vector<double>>> PredictProba(
      const smartml::Dataset& data) const override;
  smartml::StatusOr<std::vector<int>> Predict(
      const smartml::Dataset& data) const override;
  std::unique_ptr<smartml::Classifier> Clone() const override;

 private:
  std::unique_ptr<smartml::Classifier> inner_;
  LearnerStats* stats_;
};

class TimedObjective : public smartml::TuningObjective {
 public:
  explicit TimedObjective(smartml::TuningObjective* inner) : inner_(inner) {}

  size_t NumFolds() const override { return inner_->NumFolds(); }
  smartml::StatusOr<double> EvaluateFold(const smartml::ParamConfig& config,
                                         size_t fold) override;

  double seconds() const { return seconds_; }
  uint64_t calls() const { return calls_; }

 private:
  smartml::TuningObjective* inner_;
  double seconds_ = 0.0;
  uint64_t calls_ = 0;
};

/// One candidate as the replay tuned it.
struct ReplayCandidate {
  std::string algorithm;
  std::string best_config;
  size_t evaluations = 0;
  double validation_accuracy = 0.0;
};

struct ReplayResult {
  std::map<std::string, LearnerStats> learners;
  std::vector<ReplayCandidate> candidates;
  double tune_wall_s = 0.0;    ///< Whole replayed tuning phase.
  double smac_wall_s = 0.0;    ///< Sum of Smac() wall times.
  double fold_eval_s = 0.0;    ///< Sum of EvaluateFold wall times.
  uint64_t evaluations = 0;    ///< EvaluateFold calls.
  double surrogate_fit_s = 0.0;
  double improvements = 0.0;   ///< Incumbent improvements (counter delta).
};

/// One candidate to replay, in the run's candidate order.
struct CandidatePlan {
  std::string algorithm;
  std::vector<smartml::ParamConfig> warm_starts;
  int max_evaluations = 0;
  uint64_t seed = 0;
};

/// The cold-start roster with the run's evaluation-cap shares.
std::vector<CandidatePlan> ColdStartPlan(
    const smartml::SmartMlOptions& options);

/// The candidates a finished run tuned (nominations and their warm starts),
/// each capped at the evaluations it actually completed — so a time-budgeted
/// run is replayed as the evaluation-capped search it turned out to be.
std::vector<CandidatePlan> PlanFromResult(
    const smartml::SmartMlResult& result,
    const smartml::SmartMlOptions& options);

/// Replays the tuning phase of SmartML::Run(dataset, options) for `plan`:
/// same split and imputation, same seeds, no deadline. Must be called on a
/// thread with no intra-run pool installed (one thread).
smartml::StatusOr<ReplayResult> ReplayTuning(
    const smartml::Dataset& dataset, const smartml::SmartMlOptions& options,
    const std::vector<CandidatePlan>& plan);

/// Fraction of the run's tuned candidates whose best config, evaluation
/// count and validation accuracy the replay reproduced exactly.
double ReplayMatchRatio(const ReplayResult& replay,
                        const smartml::SmartMlResult& run);

}  // namespace e2e

#endif  // E2EBENCH_REPLAY_H_
