#include "replay.h"

#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "src/data/metrics.h"
#include "src/data/split.h"
#include "src/ml/registry.h"
#include "src/preprocess/preprocess.h"
#include "src/tuning/smac.h"

namespace e2e {

using smartml::Classifier;
using smartml::Dataset;
using smartml::ParamConfig;
using smartml::Status;
using smartml::StatusOr;

Status TimedClassifier::Fit(const Dataset& train, const ParamConfig& config) {
  const double start = Now();
  Status status = inner_->Fit(train, config);
  stats_->fit_s += Now() - start;
  ++stats_->fits;
  if (!status.ok() && status.code() != smartml::StatusCode::kCancelled) {
    ++stats_->fit_failed;
  }
  return status;
}

StatusOr<std::vector<std::vector<double>>> TimedClassifier::PredictProba(
    const Dataset& data) const {
  const double start = Now();
  auto proba = inner_->PredictProba(data);
  stats_->predict_s += Now() - start;
  return proba;
}

StatusOr<std::vector<int>> TimedClassifier::Predict(
    const Dataset& data) const {
  const double start = Now();
  auto predictions = inner_->Predict(data);
  stats_->predict_s += Now() - start;
  return predictions;
}

std::unique_ptr<Classifier> TimedClassifier::Clone() const {
  return std::make_unique<TimedClassifier>(inner_->Clone(), stats_);
}

StatusOr<double> TimedObjective::EvaluateFold(const ParamConfig& config,
                                              size_t fold) {
  const double start = Now();
  auto cost = inner_->EvaluateFold(config, fold);
  seconds_ += Now() - start;
  ++calls_;
  return cost;
}

std::vector<CandidatePlan> ColdStartPlan(
    const smartml::SmartMlOptions& options) {
  std::vector<CandidatePlan> plan;
  size_t param_total = 0;
  std::vector<size_t> param_counts;
  for (const std::string& name : options.cold_start_algorithms) {
    auto space = smartml::SpaceFor(name);
    param_counts.push_back(
        space.ok() ? std::max<size_t>(space->NumParams(), 1) : 1);
    param_total += param_counts.back();
  }
  const uint64_t seed = options.seed * 2654435761ULL + 17;
  for (size_t i = 0; i < param_counts.size(); ++i) {
    const double share = static_cast<double>(param_counts[i]) /
                         static_cast<double>(param_total);
    CandidatePlan candidate;
    candidate.algorithm = options.cold_start_algorithms[i];
    candidate.max_evaluations =
        options.max_evaluations > 0
            ? std::max(1, static_cast<int>(std::lround(
                              options.max_evaluations * share)))
            : 1000000;
    candidate.seed = seed + i * 7919;
    plan.push_back(std::move(candidate));
  }
  return plan;
}

std::vector<CandidatePlan> PlanFromResult(
    const smartml::SmartMlResult& result,
    const smartml::SmartMlOptions& options) {
  if (!result.used_meta_learning) return ColdStartPlan(options);
  std::vector<CandidatePlan> plan;
  const uint64_t seed = options.seed * 2654435761ULL + 17;
  for (const smartml::Nomination& nomination : result.nominations) {
    if (!smartml::IsKnownAlgorithm(nomination.algorithm)) continue;
    CandidatePlan candidate;
    candidate.algorithm = nomination.algorithm;
    candidate.warm_starts = nomination.warm_start_configs;
    candidate.seed = seed + plan.size() * 7919;
    for (const smartml::AlgorithmRunResult& run : result.per_algorithm) {
      if (run.algorithm == nomination.algorithm) {
        candidate.max_evaluations = static_cast<int>(run.evaluations);
      }
    }
    plan.push_back(std::move(candidate));
  }
  return plan;
}

StatusOr<ReplayResult> ReplayTuning(const Dataset& dataset,
                                    const smartml::SmartMlOptions& options,
                                    const std::vector<CandidatePlan>& plan) {
  ReplayResult out;
  // The run's split and automatic imputation; the replayed workloads
  // configure no feature selection or preprocessing operators.
  SMARTML_ASSIGN_OR_RETURN(
      smartml::TrainValidationSplit split,
      smartml::StratifiedSplit(dataset, options.validation_fraction,
                               options.seed));
  Dataset train = std::move(split.train);
  Dataset validation = std::move(split.validation);
  if (options.auto_impute && dataset.HasMissing()) {
    smartml::PreprocessPipeline pipeline({smartml::PreprocessOp::kImpute},
                                         options.seed);
    SMARTML_RETURN_NOT_OK(pipeline.Fit(train));
    SMARTML_ASSIGN_OR_RETURN(train, pipeline.Transform(train));
    SMARTML_ASSIGN_OR_RETURN(validation, pipeline.Transform(validation));
  }

  const CounterSnapshot before = CounterSnapshot::Take();
  const double tune_start = Now();
  for (const CandidatePlan& step : plan) {
    // A candidate the run never finished (failed or skipped) has no
    // evaluation count to replay.
    if (step.max_evaluations <= 0) continue;
    LearnerStats* stats = &out.learners[step.algorithm];
    SMARTML_ASSIGN_OR_RETURN(std::unique_ptr<Classifier> inner,
                             smartml::CreateClassifier(step.algorithm));
    TimedClassifier prototype(std::move(inner), stats);
    SMARTML_ASSIGN_OR_RETURN(smartml::ParamSpace space,
                             smartml::SpaceFor(step.algorithm));
    SMARTML_ASSIGN_OR_RETURN(
        std::unique_ptr<smartml::ClassifierObjective> objective,
        smartml::ClassifierObjective::Create(prototype, train,
                                             options.cv_folds, step.seed,
                                             options.metric));
    TimedObjective timed(objective.get());

    smartml::SmacOptions smac_options;
    smac_options.max_evaluations = step.max_evaluations;
    smac_options.seed = step.seed;
    smac_options.initial_configs = step.warm_starts;
    const double smac_start = Now();
    SMARTML_ASSIGN_OR_RETURN(smartml::TunedResult tuned,
                             smartml::Smac(space, &timed, smac_options));
    out.smac_wall_s += Now() - smac_start;
    out.fold_eval_s += timed.seconds();
    out.evaluations += timed.calls();

    // The refit the run performs per candidate, undecorated.
    ReplayCandidate candidate;
    candidate.algorithm = step.algorithm;
    candidate.best_config = tuned.best_config.ToString();
    candidate.evaluations = tuned.num_evaluations;
    SMARTML_ASSIGN_OR_RETURN(std::unique_ptr<Classifier> model,
                             smartml::CreateClassifier(step.algorithm));
    if (model->Fit(train, tuned.best_config).ok()) {
      auto predictions = model->Predict(validation);
      if (predictions.ok()) {
        candidate.validation_accuracy =
            smartml::Accuracy(validation.labels(), *predictions);
      }
    }
    out.candidates.push_back(std::move(candidate));
  }
  out.tune_wall_s = Now() - tune_start;
  const CounterSnapshot after = CounterSnapshot::Take();
  out.surrogate_fit_s =
      after.Delta(before, "smartml_smac_surrogate_fit_seconds_sum");
  out.improvements =
      after.Delta(before, "smartml_tuner_incumbent_improvements_total");
  return out;
}

double ReplayMatchRatio(const ReplayResult& replay,
                        const smartml::SmartMlResult& run) {
  if (run.per_algorithm.empty()) return 0.0;
  size_t matched = 0;
  for (const smartml::AlgorithmRunResult& tuned : run.per_algorithm) {
    for (const ReplayCandidate& candidate : replay.candidates) {
      if (candidate.algorithm == tuned.algorithm &&
          candidate.best_config == tuned.best_config.ToString() &&
          candidate.evaluations == tuned.evaluations &&
          candidate.validation_accuracy == tuned.validation_accuracy) {
        ++matched;
        break;
      }
    }
  }
  return static_cast<double>(matched) /
         static_cast<double>(run.per_algorithm.size());
}

}  // namespace e2e
