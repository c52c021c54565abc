// Genetic-algorithm hyperparameter search — the optimization strategy behind
// TPOT in the paper's Table 1 ("Genetic Programming, Pareto Optimization").
// Included so the framework comparison benches can sweep all three optimizer
// families (Bayesian / random / evolutionary) over the same spaces. The
// served pipeline tunes with SMAC only, so the GA neither checkpoints nor
// resumes.
//
// Classic generational GA over ParamConfigs: tournament selection, uniform
// parameter-wise crossover, Neighbor-move mutation, elitism. Fitness is the
// mean fold cost (no racing: each survivor is scored on every fold).
#ifndef SMARTML_TUNING_GENETIC_H_
#define SMARTML_TUNING_GENETIC_H_

#include <memory>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/stopwatch.h"
#include "src/tuning/objective.h"
#include "src/tuning/param_space.h"

namespace smartml {

struct GeneticOptions {
  /// Budget in fold-evaluations (shared currency with the other tuners).
  int max_evaluations = 100;
  /// Graceful wall-clock limit: expiry returns the best-so-far individual.
  Deadline deadline;
  /// Cooperative cancel token: checked before every fold evaluation; when
  /// set the search aborts with Status::Cancelled.
  std::shared_ptr<CancelToken> cancel;
  uint64_t seed = 1;
  int population_size = 12;
  int tournament_size = 3;
  double crossover_rate = 0.7;
  double mutation_rate = 0.3;
  int elite = 2;  ///< Individuals copied unchanged into the next generation.
  /// Seed configurations injected into the initial population.
  std::vector<ParamConfig> initial_configs;
};

/// Runs the GA on `objective`, minimizing mean fold cost.
StatusOr<TunedResult> GeneticSearch(const ParamSpace& space,
                                    TuningObjective* objective,
                                    const GeneticOptions& options);

}  // namespace smartml

#endif  // SMARTML_TUNING_GENETIC_H_
