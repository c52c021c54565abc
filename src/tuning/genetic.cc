#include "src/tuning/genetic.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/tuning/parallel_eval.h"

namespace smartml {

namespace {

struct Individual {
  ParamConfig config;
  double fitness = 2.0;  // Mean fold cost; 2.0 = unevaluated sentinel.
  bool evaluated = false;
};

// Parameter-wise uniform crossover.
ParamConfig Crossover(const ParamSpace& space, const ParamConfig& a,
                      const ParamConfig& b, Rng* rng) {
  ParamConfig child;
  for (const ParamSpec& spec : space.specs()) {
    const ParamConfig& donor = rng->Bernoulli(0.5) ? a : b;
    switch (spec.type) {
      case ParamType::kDouble:
        child.SetDouble(spec.name,
                        donor.GetDouble(spec.name, spec.default_double));
        break;
      case ParamType::kInt:
        child.SetInt(spec.name, donor.GetInt(spec.name, spec.default_int));
        break;
      case ParamType::kCategorical:
        child.SetChoice(spec.name,
                        donor.GetChoice(spec.name, spec.default_choice));
        break;
    }
  }
  return child;
}

}  // namespace

StatusOr<TunedResult> GeneticSearch(const ParamSpace& space,
                                    TuningObjective* objective,
                                    const GeneticOptions& options) {
  if (objective == nullptr || objective->NumFolds() == 0) {
    return Status::InvalidArgument(
        "genetic: objective with >= 1 fold required");
  }
  Rng rng(options.seed);
  int evaluations_left = options.max_evaluations;

  TunedResult result;
  result.best_cost = 2.0;
  result.best_config = space.DefaultConfig();

  // Fitness cache so re-discovered genomes don't burn budget.
  std::map<std::string, double> cache;

  // Initial population: seeds, the default, then random samples.
  std::vector<Individual> population;
  for (const ParamConfig& config : options.initial_configs) {
    Individual individual;
    individual.config = space.Repair(config);
    population.push_back(std::move(individual));
  }
  {
    Individual individual;
    individual.config = space.DefaultConfig();
    population.push_back(std::move(individual));
  }
  while (population.size() < static_cast<size_t>(std::max(
                                 2, options.population_size))) {
    Individual individual;
    individual.config = space.Sample(&rng);
    population.push_back(std::move(individual));
  }

  auto tournament = [&]() -> const Individual& {
    size_t best = rng.UniformInt(population.size());
    for (int t = 1; t < options.tournament_size; ++t) {
      const size_t challenger = rng.UniformInt(population.size());
      if (population[challenger].fitness < population[best].fitness) {
        best = challenger;
      }
    }
    return population[best];
  };

  const size_t total_folds = objective->NumFolds();
  while (evaluations_left > 0 && !options.deadline.Expired()) {
    if (options.cancel != nullptr && options.cancel->IsCancelled()) {
      return Status::Cancelled("genetic: run cancelled");
    }

    // Plan (sequential): walk the population in order, reserving fold tasks
    // for every individual the historical loop would have evaluated —
    // skipping cache hits, duplicates planned earlier this generation, and
    // anything past the evaluation budget.
    std::vector<ParamConfig> batch;
    std::vector<FoldTask> tasks;
    std::vector<size_t> first_task(population.size(), 0);
    std::vector<size_t> task_count(population.size(), 0);
    std::set<std::string> planned;
    int sim_left = evaluations_left;
    for (size_t i = 0; i < population.size() && sim_left > 0; ++i) {
      const Individual& individual = population[i];
      if (individual.evaluated) continue;
      const std::string key = individual.config.ToString();
      if (cache.count(key) != 0 || planned.count(key) != 0) continue;
      const size_t folds_to_plan =
          std::min(total_folds, static_cast<size_t>(sim_left));
      first_task[i] = tasks.size();
      task_count[i] = folds_to_plan;
      const size_t config_index = batch.size();
      batch.push_back(individual.config);
      for (size_t f = 0; f < folds_to_plan; ++f) {
        tasks.push_back({config_index, f});
      }
      sim_left -= static_cast<int>(folds_to_plan);
      if (folds_to_plan == total_folds) planned.insert(key);
    }

    // Evaluate (parallel across the run's pool).
    StatusOr<std::vector<double>> costs_or =
        EvaluateFoldTasks(objective, batch, tasks, options.cancel.get());
    if (!costs_or.ok()) {
      if (costs_or.status().code() == StatusCode::kCancelled) {
        return Status::Cancelled("genetic: run cancelled");
      }
      return costs_or.status();
    }
    const std::vector<double>& costs = *costs_or;

    // Replay (sequential): feed the costs through the original bookkeeping
    // in population order so budget, cache, incumbent, and trajectory
    // evolve exactly as in the fold-by-fold loop.
    for (size_t i = 0; i < population.size(); ++i) {
      if (evaluations_left <= 0) break;
      Individual& individual = population[i];
      if (individual.evaluated) continue;
      const std::string key = individual.config.ToString();
      auto it = cache.find(key);
      if (it != cache.end()) {
        individual.fitness = it->second;
        individual.evaluated = true;
        continue;
      }
      double total = 0.0;
      size_t folds = 0;
      for (size_t f = 0; f < task_count[i]; ++f) {
        --evaluations_left;
        ++result.num_evaluations;
        total += costs[first_task[i] + f];
        ++folds;
        result.trajectory.push_back(result.best_cost > 1.5 ? 1.0
                                                           : result.best_cost);
      }
      if (folds == 0) continue;  // Budget ran dry mid-generation.
      individual.fitness = total / static_cast<double>(folds);
      individual.evaluated = folds == total_folds;
      if (individual.evaluated) cache[key] = individual.fitness;
      if ((individual.evaluated || result.best_cost > 1.5) &&
          individual.fitness < result.best_cost) {
        result.best_cost = individual.fitness;
        result.best_config = individual.config;
        if (!result.trajectory.empty()) {
          result.trajectory.back() = result.best_cost;
        }
      }
    }
    if (evaluations_left <= 0 || options.deadline.Expired()) break;

    // Next generation: elites + offspring.
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });
    std::vector<Individual> next;
    for (int e = 0; e < options.elite &&
                    static_cast<size_t>(e) < population.size();
         ++e) {
      next.push_back(population[static_cast<size_t>(e)]);
    }
    while (next.size() < population.size()) {
      ParamConfig child;
      if (rng.Bernoulli(options.crossover_rate)) {
        child = Crossover(space, tournament().config, tournament().config,
                          &rng);
      } else {
        child = tournament().config;
      }
      if (rng.Bernoulli(options.mutation_rate)) {
        child = space.Neighbor(child, &rng);
      }
      Individual individual;
      individual.config = space.Repair(child);
      next.push_back(std::move(individual));
    }
    population = std::move(next);
  }

  if (result.best_cost > 1.0) result.best_cost = 1.0;
  static Counter* evaluations = GlobalMetrics().GetCounter(
      "smartml_tuner_evaluations_total", "Fold evaluations spent per tuner.",
      {{"tuner", "genetic"}});
  evaluations->Increment(result.num_evaluations);
  return result;
}

}  // namespace smartml
