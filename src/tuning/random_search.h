// Baseline hyperparameter optimizers: random search and grid search
// (the strategies behind Google Vizier per the paper's related work).
// They serve the comparison benches and the Auto-Weka-style baseline only;
// the served pipeline tunes with SMAC, so neither checkpoints nor resumes.
#ifndef SMARTML_TUNING_RANDOM_SEARCH_H_
#define SMARTML_TUNING_RANDOM_SEARCH_H_

#include <memory>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/stopwatch.h"
#include "src/tuning/objective.h"
#include "src/tuning/param_space.h"

namespace smartml {

struct SearchOptions {
  /// Budget in fold-evaluations (each config costs NumFolds() evals).
  int max_evaluations = 100;
  /// Optional wall-clock limit (infinite by default). Expiry is graceful:
  /// the search stops and returns the best configuration so far.
  Deadline deadline;
  /// Optional cooperative cancel token: checked before every fold
  /// evaluation; when set the search aborts with Status::Cancelled.
  std::shared_ptr<CancelToken> cancel;
  uint64_t seed = 1;
  /// Configurations to evaluate before any sampled ones (warm start).
  std::vector<ParamConfig> initial_configs;
};

/// Uniform random search over the space; every config is scored on all folds
/// (no racing).
StatusOr<TunedResult> RandomSearch(const ParamSpace& space,
                                   TuningObjective* objective,
                                   const SearchOptions& options);

/// Full-factorial grid search with `points_per_numeric` levels per numeric
/// parameter (categoricals enumerate their choices). Stops early when the
/// evaluation budget or deadline runs out.
StatusOr<TunedResult> GridSearch(const ParamSpace& space,
                                 TuningObjective* objective,
                                 const SearchOptions& options,
                                 int points_per_numeric = 4);

}  // namespace smartml

#endif  // SMARTML_TUNING_RANDOM_SEARCH_H_
