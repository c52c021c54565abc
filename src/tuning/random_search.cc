#include "src/tuning/random_search.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/tuning/parallel_eval.h"

namespace smartml {

namespace {

Counter* TunerEvaluationsCounter(const char* tuner) {
  return GlobalMetrics().GetCounter("smartml_tuner_evaluations_total",
                                    "Fold evaluations spent per tuner.",
                                    {{"tuner", tuner}});
}

// Configurations evaluated per batch: one per participant in the run's
// thread pool (1 when the run is sequential). Batch size only affects
// grouping, never which (config, fold) pairs get evaluated, so results are
// identical at any thread count for evaluation-capped runs.
size_t BatchConfigs() {
  ThreadPool* pool = CurrentThreadPool();
  return pool == nullptr ? 1 : static_cast<size_t>(pool->num_workers()) + 1;
}

// Sequential bookkeeping for one config whose fold costs were computed in
// the parallel phase — a faithful replay of the historical fold-by-fold
// loop, applied in planning order.
void ReplayConfig(const ParamConfig& config, const double* costs,
                  size_t folds_evaluated, size_t total_folds,
                  TunedResult* result, int* evaluations_left) {
  double total = 0.0;
  size_t folds = 0;
  for (size_t f = 0; f < folds_evaluated; ++f) {
    --*evaluations_left;
    total += costs[f];
    ++folds;
    ++result->num_evaluations;
    result->trajectory.push_back(result->best_cost);
  }
  if (folds == 0) return;
  const double mean = total / static_cast<double>(folds);
  // Only accept configs measured on the full fold set, unless nothing has
  // been accepted yet.
  if ((folds == total_folds || result->trajectory.empty() ||
       result->best_cost > 1.0) &&
      mean < result->best_cost) {
    result->best_cost = mean;
    result->best_config = config;
    if (!result->trajectory.empty()) result->trajectory.back() = mean;
  }
}

// Plans the batch's fold tasks (truncated at the evaluation budget),
// evaluates them across the run's pool, and replays the bookkeeping in
// order. Callers check the deadline between batches.
Status EvaluateBatch(const std::vector<ParamConfig>& batch,
                     TuningObjective* objective, const SearchOptions& options,
                     TunedResult* result, int* evaluations_left) {
  const size_t total_folds = objective->NumFolds();
  std::vector<FoldTask> tasks;
  std::vector<size_t> folds_per_config(batch.size(), 0);
  int budget = *evaluations_left;
  for (size_t c = 0; c < batch.size() && budget > 0; ++c) {
    for (size_t f = 0; f < total_folds && budget > 0; ++f) {
      tasks.push_back({c, f});
      ++folds_per_config[c];
      --budget;
    }
  }
  StatusOr<std::vector<double>> costs_or =
      EvaluateFoldTasks(objective, batch, tasks, options.cancel.get());
  if (!costs_or.ok()) {
    if (costs_or.status().code() == StatusCode::kCancelled) {
      return Status::Cancelled("search: run cancelled");
    }
    return costs_or.status();
  }
  const std::vector<double>& costs = *costs_or;
  size_t t = 0;
  for (size_t c = 0; c < batch.size(); ++c) {
    ReplayConfig(batch[c], costs.data() + t, folds_per_config[c], total_folds,
                 result, evaluations_left);
    t += folds_per_config[c];
  }
  return Status::OK();
}

}  // namespace

StatusOr<TunedResult> RandomSearch(const ParamSpace& space,
                                   TuningObjective* objective,
                                   const SearchOptions& options) {
  TunedResult result;
  result.best_cost = 2.0;  // Sentinel above any real cost.
  result.best_config = space.DefaultConfig();
  int evaluations_left = options.max_evaluations;
  Rng rng(options.seed);
  const size_t folds = std::max<size_t>(1, objective->NumFolds());

  // Deterministic config stream: warm-start configs first, then the
  // default, then random draws. Drawing never depends on evaluation
  // results, so the stream — and with it the whole search — is identical at
  // any thread count.
  std::vector<ParamConfig> seeds = options.initial_configs;
  seeds.push_back(space.DefaultConfig());
  size_t next_seed = 0;

  const size_t batch_configs = BatchConfigs();
  while (evaluations_left > 0 && !options.deadline.Expired()) {
    if (options.cancel != nullptr && options.cancel->IsCancelled()) {
      return Status::Cancelled("search: run cancelled");
    }
    std::vector<ParamConfig> batch;
    size_t planned = 0;
    while (planned < static_cast<size_t>(evaluations_left) &&
           batch.size() < batch_configs) {
      batch.push_back(next_seed < seeds.size()
                          ? space.Repair(seeds[next_seed++])
                          : space.Sample(&rng));
      planned += folds;
    }
    SMARTML_RETURN_NOT_OK(
        EvaluateBatch(batch, objective, options, &result, &evaluations_left));
  }
  if (result.best_cost > 1.0) result.best_cost = 1.0;
  static Counter* evaluations = TunerEvaluationsCounter("random");
  evaluations->Increment(result.num_evaluations);
  return result;
}

StatusOr<TunedResult> GridSearch(const ParamSpace& space,
                                 TuningObjective* objective,
                                 const SearchOptions& options,
                                 int points_per_numeric) {
  // Build per-parameter level lists.
  std::vector<std::vector<ParamConfig>> dimensions;  // Partial assignments.
  std::vector<ParamConfig> grid;
  grid.emplace_back();
  const int levels = std::max(2, points_per_numeric);
  for (const ParamSpec& spec : space.specs()) {
    std::vector<ParamConfig> expanded;
    for (const ParamConfig& partial : grid) {
      switch (spec.type) {
        case ParamType::kCategorical:
          for (const std::string& choice : spec.choices) {
            ParamConfig next = partial;
            next.SetChoice(spec.name, choice);
            expanded.push_back(std::move(next));
          }
          break;
        case ParamType::kDouble:
        case ParamType::kInt: {
          for (int level = 0; level < levels; ++level) {
            const double frac =
                static_cast<double>(level) / static_cast<double>(levels - 1);
            double lo = spec.min_value, hi = spec.max_value;
            double v;
            if (spec.log_scale) {
              lo = std::log(std::max(lo, 1e-12));
              hi = std::log(std::max(hi, 1e-12));
              v = std::exp(lo + frac * (hi - lo));
            } else {
              v = lo + frac * (hi - lo);
            }
            ParamConfig next = partial;
            if (spec.type == ParamType::kInt) {
              next.SetInt(spec.name, static_cast<int64_t>(std::llround(v)));
            } else {
              next.SetDouble(spec.name, v);
            }
            expanded.push_back(std::move(next));
          }
          break;
        }
      }
    }
    grid = std::move(expanded);
    if (grid.size() > 100000) {
      return Status::InvalidArgument("grid search: grid too large");
    }
  }

  TunedResult result;
  result.best_cost = 2.0;
  result.best_config = space.DefaultConfig();
  int evaluations_left = options.max_evaluations;
  const size_t folds = std::max<size_t>(1, objective->NumFolds());
  const size_t batch_configs = BatchConfigs();
  size_t next = 0;
  while (next < grid.size() && evaluations_left > 0 &&
         !options.deadline.Expired()) {
    std::vector<ParamConfig> batch;
    size_t planned = 0;
    while (next < grid.size() &&
           planned < static_cast<size_t>(evaluations_left) &&
           batch.size() < batch_configs) {
      batch.push_back(space.Repair(grid[next++]));
      planned += folds;
    }
    SMARTML_RETURN_NOT_OK(
        EvaluateBatch(batch, objective, options, &result, &evaluations_left));
  }
  if (result.best_cost > 1.0) result.best_cost = 1.0;
  static Counter* evaluations = TunerEvaluationsCounter("grid");
  evaluations->Increment(result.num_evaluations);
  return result;
}

}  // namespace smartml
