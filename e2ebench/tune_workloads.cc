// tune_capped and tune_budget: closed loops of in-process SmartML::Run calls.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "src/common/thread_pool.h"
#include "src/core/smartml.h"
#include "src/data/csv.h"
#include "src/data/split.h"
#include "src/data/synthetic.h"
#include "src/metafeatures/metafeatures.h"
#include "workloads.h"

namespace e2e {
namespace {

using smartml::Dataset;
using smartml::SmartML;
using smartml::SmartMlOptions;
using smartml::SmartMlResult;

/// Evaluation cap of one tune_capped run (fold evaluations, split among the
/// six candidates by hyperparameter count).
constexpr int kCappedEvaluations = 60;
/// Tuning-phase time budget of one tune_budget run.
constexpr double kBudgetSeconds = 1.0;

std::string Signature(const SmartMlResult& result) {
  char accuracy[32];
  std::snprintf(accuracy, sizeof(accuracy), "%.17g",
                result.best_validation_accuracy);
  return result.best_algorithm + " " + result.best_config.ToString() + " " +
         accuracy;
}

size_t Evaluations(const SmartMlResult& result) {
  size_t total = 0;
  for (const auto& run : result.per_algorithm) total += run.evaluations;
  return total;
}

/// Counts the run and its candidates as attempted operations and the failed
/// ones as failures; returns the result when the run itself succeeded.
const SmartMlResult* Account(const smartml::StatusOr<SmartMlResult>& result,
                             Outcome* outcome) {
  if (!result.ok()) {
    outcome->Count(1, 1);
    outcome->Fail("SmartML::Run failed: " + result.status().ToString());
    return nullptr;
  }
  const size_t failed = result->failed_candidates.size();
  outcome->Count(1 + result->per_algorithm.size() + failed, failed);
  return &*result;
}

void AccountFlow(const InProcessFlow& flow, bool need_nominations,
                 Outcome* outcome) {
  outcome->Count(2, flow.ok ? 0 : 1);
  if (!flow.ok) outcome->Fail("in-process selection flow answered non-2xx");
  if (need_nominations && flow.nominations == 0) {
    outcome->Fail("in-process selection flow returned no nominations");
  }
}

struct Samples {
  std::vector<double> run_s;
  std::vector<double> select_s;      ///< Every in-process flow.
  std::vector<double> run_select_s;  ///< Median flow of each run's block.
  double evaluations = 0.0;
  double tuning_s = 0.0;
  std::vector<double> accuracy;

  /// Runs `count` in-process selection flows on variants of `csv` and
  /// records them as one block.
  void AddFlows(smartml::RestService* service, const std::string& csv,
                int count, bool need_nominations, uint64_t* variant,
                Outcome* outcome) {
    std::vector<double> block;
    for (int f = 0; f < count; ++f) {
      const InProcessFlow flow =
          RunInProcessFlow(service, CsvVariant(csv, ++*variant));
      AccountFlow(flow, need_nominations, outcome);
      block.push_back(flow.latency_s);
    }
    select_s.insert(select_s.end(), block.begin(), block.end());
    run_select_s.push_back(Median(block));
  }

  void AddRun(double wall, const SmartMlResult& result) {
    run_s.push_back(wall);
    evaluations += static_cast<double>(Evaluations(result));
    tuning_s += result.tuning_seconds;
    accuracy.push_back(result.best_validation_accuracy);
  }
  EndToEnd Finish(double setup_s, double evals_per_measure) const {
    EndToEnd e;
    e.setup_s = setup_s;
    e.run_s = Median(run_s);
    e.evals_per_s = tuning_s > 0 ? evaluations / tuning_s : 0.0;
    e.budget_accuracy = Mean(accuracy);
    e.budget_evals = evals_per_measure;
    e.select_p50_ms = 1000.0 * Percentile(select_s, 0.5);
    // A few dozen to a few hundred flows are too few for their own p99:
    // it would be the slowest one or two and measure the host's hiccups.
    // The p99 of the per-run block medians needs a slow run, not a slow
    // moment.
    e.select_p99_ms = 1000.0 * Percentile(run_select_s, 0.99);
    // In process, a run's turnaround is its Run() call.
    e.turnaround_p50_s = e.run_s;
    return e;
  }
};

/// Layers of a one-thread replay of `result`'s tuning phase.
void AddReplayLayers(const ReplayResult& replay, const SmartMlResult& result,
                     Layers* layers) {
  Layers& l = *layers;
  for (const auto& [algorithm, stats] : replay.learners) {
    l["ml.fit_s." + algorithm] += stats.fit_s;
    l["ml.predict_s." + algorithm] += stats.predict_s;
    l["ml.fits." + algorithm] += static_cast<double>(stats.fits);
    l["ml.fit_failed." + algorithm] += static_cast<double>(stats.fit_failed);
    l["ml.fit_s"] += stats.fit_s;
    l["ml.predict_s"] += stats.predict_s;
  }
  l["tuning.evals"] += static_cast<double>(replay.evaluations);
  l["tuning.fold_eval_s"] += replay.fold_eval_s;
  l["tuning.smac_self_s"] += replay.smac_wall_s - replay.fold_eval_s;
  l["tuning.surrogate_fit_s"] += replay.surrogate_fit_s;
  l["tuning.improvements"] += replay.improvements;
  l["tuning.replay_wall_s"] += replay.tune_wall_s;
  l["tuning.replay_matched"] +=
      ReplayMatchRatio(replay, result) *
      static_cast<double>(result.per_algorithm.size());
  l["tuning.replay_candidates"] +=
      static_cast<double>(result.per_algorithm.size());
  // The run's candidate tuning time summed over candidates: its tuning phase
  // when it ran on one thread, and comparable to the one-thread replay when
  // its candidates ran in parallel.
  double candidates_s = 0.0;
  for (const auto& run : result.per_algorithm) candidates_s += run.seconds;
  l["tuning.run_candidates_s"] += candidates_s;
  l["trace.overhead_ms"] += 1000.0 * (replay.tune_wall_s - candidates_s);
}

/// Derives the ratio layers once the sums are in, and reports (without
/// failing) when the attribution misses the bars it is meant to meet.
void FinishReplayLayers(Layers* layers) {
  Layers& l = *layers;
  auto take = [&l](const char* name) {
    const double value = l[name];
    l.erase(name);
    return value;
  };
  const double improvements = take("tuning.improvements");
  const double matched = take("tuning.replay_matched");
  const double candidates = take("tuning.replay_candidates");
  const double run_candidates_s = take("tuning.run_candidates_s");
  l["tuning.improvement_ratio"] =
      l["tuning.evals"] > 0 ? improvements / l["tuning.evals"] : 0.0;
  l["tuning.replay_match_ratio"] = candidates > 0 ? matched / candidates : 0;
  const double wall = l["tuning.replay_wall_s"];
  if (wall > 0) {
    l["core.layer_coverage"] = (l["ml.fit_s"] + l["ml.predict_s"] +
                                l["tuning.smac_self_s"] + l["core.refit_s"]) /
                               wall;
  }
  if (run_candidates_s > 0) l["core.replay_vs_run"] = wall / run_candidates_s;
  if (l["core.layer_coverage"] < 0.95) {
    std::fprintf(stderr,
                 "[e2ebench] warning: layers cover only %.3f of the replayed "
                 "tuning time\n",
                 l["core.layer_coverage"]);
  }
  if (std::abs(l["core.replay_vs_run"] - 1.0) > 0.10) {
    std::fprintf(stderr,
                 "[e2ebench] warning: replayed tuning time is %.3fx the "
                 "run's\n",
                 l["core.replay_vs_run"]);
  }
  if (l["tuning.replay_match_ratio"] < 1.0) {
    std::fprintf(stderr,
                 "[e2ebench] warning: replay reproduced %.3f of the run's "
                 "candidates\n",
                 l["tuning.replay_match_ratio"]);
  }
}

double TimeMetaFeatureExtraction(const Dataset& dataset,
                                 const SmartMlOptions& options) {
  auto split = smartml::StratifiedSplit(dataset, options.validation_fraction,
                                        options.seed);
  if (!split.ok()) return 0.0;
  const double start = Now();
  (void)smartml::ExtractMetaFeatures(split->train);
  return Now() - start;
}

double TimeCsvParse(const std::string& csv) {
  const double start = Now();
  (void)smartml::ReadCsvString(csv);
  return Now() - start;
}

/// Traced in-process selection flow: spans plus the api/data layers.
void TracedFlow(smartml::RestService* service, const std::string& csv,
                bool need_nominations, SpanLog* spans, Layers* layers,
                Outcome* outcome) {
  const double start = Now();
  const InProcessFlow flow = RunInProcessFlow(service, csv);
  const int root = spans->Add("flow", start, start + flow.latency_s);
  spans->Add("flow/metafeatures", start, start + flow.metafeatures_handle_s,
             root);
  spans->Add("flow/select", start + flow.metafeatures_handle_s,
             start + flow.latency_s, root);
  AccountFlow(flow, need_nominations, outcome);
  (*layers)["api.handle_ms"] += 1000.0 * flow.latency_s;
  (*layers)["api.handled"] += 2.0;
  (*layers)["data.csv_parse_s"] += TimeCsvParse(csv);
}

void FinishFlowLayers(Layers* layers) {
  Layers& l = *layers;
  const double handled = l["api.handled"];
  l.erase("api.handled");
  if (handled > 0) l["api.handle_ms"] /= handled;
}

// ---------------------------------------------------------------- capped

/// tune_capped cycles through this many seed-derived row orders of its
/// dataset, so one invocation averages over several searches.
constexpr size_t kCappedVariants = 8;
/// In-process selection flows after each measured run, and the rows of the
/// CSV they send. The tail of a short flow is set by scheduling hiccups, not
/// by the flow, so tune_capped sends few flows of its whole dataset (about 32
/// per invocation) and tune_budget more flows of half of it (about 200);
/// these were the steadiest settings tried for each.
constexpr int kCappedFlowsPerRun = 4;
constexpr size_t kCappedFlowRows = 2000;
constexpr int kBudgetFlowsPerRun = 10;
constexpr size_t kBudgetFlowRows = 1000;

struct CappedState {
  std::vector<Dataset> variants;
  std::string csv;
  std::unique_ptr<SmartML> framework;
  std::unique_ptr<smartml::RestService> service;
};

SmartMlOptions CappedOptions() {
  SmartMlOptions options;
  options.cold_start_algorithms = {"random_forest", "j48",  "svm",
                                   "naive_bayes",   "knn",  "neuralnet"};
  options.cv_folds = 3;
  options.max_evaluations = kCappedEvaluations;
  options.time_budget_seconds = 3600.0;  // The evaluation cap binds.
  options.enable_ensembling = true;
  options.enable_interpretability = true;
  options.update_kb = false;  // Every run starts cold from an empty KB.
  options.num_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  options.seed = 42;
  return options;
}

smartml::SyntheticSpec CappedSpec() {
  smartml::SyntheticSpec spec;
  spec.name = "tune_capped";
  spec.kind = smartml::SyntheticKind::kGaussianClusters;
  spec.num_instances = 2000;
  spec.num_informative = 12;
  spec.num_redundant = 10;
  spec.num_noise = 10;
  spec.num_classes = 3;
  spec.clusters_per_class = 2;
  spec.class_sep = 1.0;
  spec.label_noise = 0.05;
  spec.seed = 2019;
  return spec;
}

/// The CSV both tune workloads send through the in-process selection flow:
/// the first `num_rows` rows of the tune_capped dataset in the seed's first
/// row order.
std::string FlowCsv(uint64_t seed, size_t num_rows) {
  std::vector<size_t> rows(num_rows);
  std::iota(rows.begin(), rows.end(), size_t{0});
  return smartml::WriteCsvString(
      Shuffled(smartml::GenerateSynthetic(CappedSpec()), MixSeed(seed, 0))
          .Subset(rows));
}

}  // namespace

Outcome RunTuneCapped(const Args& args) {
  Outcome outcome;
  const SeedKbGuard guard;
  const SmartMlOptions options = CappedOptions();
  std::unique_ptr<CappedState> state;
  const double setup_s = TimeSetup(
      [&] {
        state = std::make_unique<CappedState>();
        const Dataset base = smartml::GenerateSynthetic(CappedSpec());
        for (size_t v = 0; v < kCappedVariants; ++v) {
          state->variants.push_back(Shuffled(base, MixSeed(args.seed, v)));
        }
        state->csv = FlowCsv(args.seed, kCappedFlowRows);
        state->framework = std::make_unique<SmartML>(options);
        state->service =
            std::make_unique<smartml::RestService>(state->framework.get());
      },
      [&] { state.reset(); });
  SmartML& framework = *state->framework;
  uint64_t variant = 0;

  if (!args.trace) {
    Samples samples;
    std::vector<std::string> first(kCappedVariants);
    // Warm-up (not measured): the process's first run pays one-time costs
    // such as heap growth; it also gives the repeat check its reference.
    {
      auto result = framework.Run(state->variants[0], options);
      const SmartMlResult* run = Account(result, &outcome);
      if (run != nullptr) first[0] = Signature(*run);
    }
    const double start = Now();
    double cycle_s = 0.0;
    // Whole cycles over the variants, while the next one fits the window.
    for (size_t i = 0;; ++i) {
      if (i > 0 && i % kCappedVariants == 0) {
        cycle_s = (Now() - start) / static_cast<double>(i / kCappedVariants);
        if (Now() - start + cycle_s > args.seconds) break;
      }
      const Dataset& dataset = state->variants[i % kCappedVariants];
      const double run_start = Now();
      auto result = framework.Run(dataset, options);
      const double wall = Now() - run_start;
      const SmartMlResult* run = Account(result, &outcome);
      if (run == nullptr) break;
      if (run->degraded) outcome.Fail("tune_capped run degraded");
      std::string& expected = first[i % kCappedVariants];
      if (expected.empty()) expected = Signature(*run);
      if (Signature(*run) != expected) {
        outcome.Fail("repeat differs: '" + Signature(*run) + "' vs '" +
                     expected + "'");
      }
      samples.AddRun(wall, *run);
      samples.AddFlows(state->service.get(), state->csv, kCappedFlowsPerRun,
                       false, &variant, &outcome);
    }
    AddEndToEnd(samples.Finish(setup_s, samples.evaluations /
                                            std::max<size_t>(
                                                samples.run_s.size(), 1)),
                &outcome);
    guard.Verify(&outcome);
    return outcome;
  }

  SpanLog spans;
  Layers layers;
  const CounterSnapshot before = CounterSnapshot::Take();
  // 1. The workload's own run (nproc threads): pool layers.
  {
    const double run_start = Now();
    auto result = framework.Run(state->variants[0], options);
    const double wall = Now() - run_start;
    spans.Add("run/parallel", run_start, run_start + wall);
    Account(result, &outcome);
    const CounterSnapshot after = CounterSnapshot::Take();
    const int workers = smartml::ResolveNumThreads(options.num_threads) - 1;
    layers["pool.tasks"] = after.Delta(before, "smartml_pool_tasks_total");
    if (workers > 0) {
      layers["pool.busy_ratio"] =
          after.Delta(before, "smartml_pool_task_seconds_sum") /
          (workers * wall);
    }
  }
  // 2. The same run on one thread: phase and span layers, and the yardstick
  //    the replay must match.
  SmartMlOptions one_thread = options;
  one_thread.num_threads = 1;
  const double run_start = Now();
  const Dataset& dataset = state->variants[0];
  auto result = framework.Run(dataset, one_thread);
  spans.Add("run/one_thread", run_start, Now());
  const SmartMlResult* run = Account(result, &outcome);
  if (run != nullptr) {
    AddRunLayers(*run, &layers);
    // 3. Replay of its tuning phase with the timing decorators.
    const double replay_start = Now();
    auto replay = ReplayTuning(dataset, one_thread,
                               ColdStartPlan(one_thread));
    spans.Add("replay", replay_start, Now());
    if (replay.ok()) {
      AddReplayLayers(*replay, *run, &layers);
      for (const auto& [algorithm, stats] : replay->learners) {
        outcome.Count(stats.fits, stats.fit_failed);
      }
    } else {
      outcome.Fail("replay failed: " + replay.status().ToString());
    }
  }
  layers["data.binned_build_s"] = BinnedBuildSeconds(dataset, one_thread);
  layers["metafeatures.extract_s"] =
      TimeMetaFeatureExtraction(dataset, one_thread);
  TracedFlow(state->service.get(), CsvVariant(state->csv, ++variant), false,
             &spans, &layers, &outcome);
  SetCounterLayers(before, CounterSnapshot::Take(), &layers);
  FinishReplayLayers(&layers);
  FinishFlowLayers(&layers);
  AddPerLayer(layers, &outcome);
  WriteSpans(spans, args);
  guard.Verify(&outcome);
  return outcome;
}

// ---------------------------------------------------------------- budget

namespace {

struct BudgetState {
  std::vector<Dataset> recipes;
  std::string flow_csv;
  std::unique_ptr<ScratchDir> scratch;
  std::unique_ptr<SmartML> framework;
  std::unique_ptr<smartml::RestService> service;
};

SmartMlOptions BudgetOptions() {
  SmartMlOptions options;
  options.time_budget_seconds = kBudgetSeconds;
  options.max_evaluations = 0;  // Time budget only, as in the paper.
  options.update_kb = false;    // The warm KB stays the seed KB.
  // Neither changes the accuracy the budget buys; tune_capped measures the
  // output phase.
  options.enable_ensembling = false;
  options.enable_interpretability = false;
  options.num_threads = 0;  // The library default: one per core.
  options.seed = 42;
  return options;
}

}  // namespace

Outcome RunTuneBudget(const Args& args) {
  Outcome outcome;
  const SeedKbGuard guard;
  if (!guard.loaded()) {
    outcome.Fail(std::string("cannot read ") + SeedKbGuard::kPath);
    return outcome;
  }
  const SmartMlOptions options = BudgetOptions();
  std::unique_ptr<BudgetState> state;
  bool kb_ok = true;
  const double setup_s = TimeSetup(
      [&] {
        state = std::make_unique<BudgetState>();
        for (const smartml::Table4Entry& entry : smartml::Table4Datasets()) {
          state->recipes.push_back(smartml::GenerateSynthetic(entry.spec));
        }
        state->flow_csv = FlowCsv(args.seed, kBudgetFlowRows);
        // A private copy of the seed KB: nothing the run does can reach the
        // checked-in file.
        state->scratch = std::make_unique<ScratchDir>("tune_budget");
        const std::string copy = state->scratch->path() + "/seed_kb.txt";
        std::FILE* file = std::fopen(copy.c_str(), "wb");
        if (file != nullptr) {
          std::fwrite(guard.bytes().data(), 1, guard.bytes().size(), file);
          std::fclose(file);
        }
        state->framework = std::make_unique<SmartML>(options);
        kb_ok = state->framework->LoadKnowledgeBase(copy).ok() &&
                state->framework->kb().NumRecords() == 50;
        state->service =
            std::make_unique<smartml::RestService>(state->framework.get());
      },
      [&] { state.reset(); });
  if (!kb_ok) {
    outcome.Fail("the seed KB copy did not load 50 records");
    return outcome;
  }
  SmartML& framework = *state->framework;
  uint64_t variant = 0;

  // Sweep k runs recipe i in its own seed-derived row order, so successive
  // sweeps average over different searches.
  auto recipe = [&](size_t k, size_t i) {
    return Shuffled(state->recipes[i], MixSeed(args.seed, k * 1000 + i));
  };
  auto check = [&outcome](const SmartMlResult& run) {
    if (run.degraded) outcome.Fail(run.dataset_name + " run degraded");
    if (!run.used_meta_learning) {
      outcome.Fail(run.dataset_name + " run did not use meta-learning");
    }
  };

  if (!args.trace) {
    // Warm-up (not measured): the process's first run pays one-time costs.
    auto warm_up = framework.Run(recipe(0, 0), options);
    if (const SmartMlResult* run = Account(warm_up, &outcome)) check(*run);
    Samples samples;
    size_t sweeps = 0;
    const double start = Now();
    double sweep_s = 0.0;
    // Whole sweeps only, while the next one fits in the measuring window.
    while (sweeps == 0 || Now() - start + sweep_s <= args.seconds) {
      const double sweep_start = Now();
      for (size_t i = 0; i < state->recipes.size(); ++i) {
        const Dataset dataset = recipe(sweeps, i);
        const double run_start = Now();
        auto result = framework.Run(dataset, options);
        const double wall = Now() - run_start;
        const SmartMlResult* run = Account(result, &outcome);
        if (run == nullptr) continue;
        check(*run);
        samples.AddRun(wall, *run);
        samples.AddFlows(state->service.get(), state->flow_csv,
                         kBudgetFlowsPerRun, true, &variant, &outcome);
      }
      sweep_s = Now() - sweep_start;
      ++sweeps;
    }
    AddEndToEnd(samples.Finish(setup_s, samples.evaluations /
                                            static_cast<double>(sweeps)),
                &outcome);
    guard.Verify(&outcome);
    return outcome;
  }

  // Traced: one sweep on one thread, so that each run and the one-thread
  // replay of its tuning phase do the same work in the same way.
  SmartMlOptions one_thread = options;
  one_thread.num_threads = 1;
  SpanLog spans;
  Layers layers;
  const CounterSnapshot before = CounterSnapshot::Take();
  for (size_t i = 0; i < state->recipes.size(); ++i) {
    const Dataset dataset = recipe(0, i);
    const double run_start = Now();
    auto result = framework.Run(dataset, one_thread);
    const int root = spans.Add("run/" + dataset.name(), run_start, Now());
    const SmartMlResult* run = Account(result, &outcome);
    if (run == nullptr) continue;
    check(*run);
    AddRunLayers(*run, &layers);
    // Replays the search the time budget allowed, as an evaluation cap.
    const double replay_start = Now();
    auto replay =
        ReplayTuning(dataset, one_thread, PlanFromResult(*run, one_thread));
    spans.Add("replay/" + dataset.name(), replay_start, Now(), root);
    if (replay.ok()) {
      AddReplayLayers(*replay, *run, &layers);
      for (const auto& [algorithm, stats] : replay->learners) {
        outcome.Count(stats.fits, stats.fit_failed);
      }
    } else {
      outcome.Fail("replay failed: " + replay.status().ToString());
    }
    layers["data.binned_build_s"] += BinnedBuildSeconds(dataset, one_thread);
    layers["metafeatures.extract_s"] +=
        TimeMetaFeatureExtraction(dataset, one_thread);
    TracedFlow(state->service.get(), CsvVariant(state->flow_csv, ++variant),
               true, &spans, &layers, &outcome);
  }
  SetCounterLayers(before, CounterSnapshot::Take(), &layers);
  FinishReplayLayers(&layers);
  FinishFlowLayers(&layers);
  AddPerLayer(layers, &outcome);
  WriteSpans(spans, args);
  guard.Verify(&outcome);
  return outcome;
}

}  // namespace e2e
