#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <thread>

#include "src/api/json.h"
#include "src/data/split.h"
#include "workloads.h"

namespace e2e {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* const metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>();
    // The tune_capped roster first, then the learners KB nominations add.
    for (const char* algorithm :
         {"random_forest", "j48", "svm", "naive_bayes", "knn", "neuralnet",
          "bagging", "part", "c50", "rpart", "lda", "plsda", "lmt", "rda",
          "deepboost"}) {
      const std::string a = algorithm;
      m->push_back({"ml.fit_s." + a, "s"});
      m->push_back({"ml.predict_s." + a, "s"});
      m->push_back({"ml.fits." + a, "count"});
      m->push_back({"ml.fit_failed." + a, "count"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"ml.fit_s", "s"},
        {"ml.predict_s", "s"},
        {"tuning.evals", "count"},
        {"tuning.fold_eval_s", "s"},
        {"tuning.smac_self_s", "s"},
        {"tuning.surrogate_fit_s", "s"},
        {"tuning.improvement_ratio", "ratio"},
        {"tuning.replay_wall_s", "s"},
        {"tuning.replay_match_ratio", "ratio"},
        {"data.binned_build_s", "s"},
        {"data.csv_parse_s", "s"},
        {"core.preprocess_s", "s"},
        {"core.select_s", "s"},
        {"core.tune_s", "s"},
        {"core.output_s", "s"},
        {"core.refit_s", "s"},
        {"core.ensemble_s", "s"},
        {"core.layer_coverage", "ratio"},
        {"core.replay_vs_run", "ratio"},
        {"interpret.importance_s", "s"},
        {"pool.tasks", "count"},
        {"pool.busy_ratio", "ratio"},
        {"metafeatures.extract_s", "s"},
        {"metafeatures.cache_hit_ratio", "ratio"},
        {"kb.nominate_ms", "ms"},
        {"kb.add_ms", "ms"},
        {"kb.index_rebuilds", "count"},
        {"kb.tree_lookup_ratio", "ratio"},
        {"api.handle_ms", "ms"},
        {"api.http_overhead_ms", "ms"},
        {"api.queue_wait_s", "s"},
        {"api.shed", "count"},
        {"persist.journal_appends", "count"},
        {"persist.journal_bytes", "bytes"},
        {"trace.overhead_ms", "ms"},
        {"serve.generator_lag_p99_ms", "ms"},
        {"serve.generator_lag_max_ms", "ms"},
        {"host.steal_ratio", "ratio"},
    };
    m->insert(m->end(), rest.begin(), rest.end());
    return m;
  }();
  return *metrics;
}

void AddEndToEnd(const EndToEnd& values, Outcome* outcome) {
  outcome->Add("setup_s", values.setup_s, "s");
  outcome->Add("peak_rss_mb", PeakRssMb(), "MiB");
  outcome->Add("success_ratio", outcome->SuccessRatio(), "ratio");
  outcome->Add("run_s", values.run_s, "s");
  outcome->Add("evals_per_s", values.evals_per_s, "1/s");
  outcome->Add("budget_accuracy", values.budget_accuracy, "ratio");
  outcome->Add("budget_evals", values.budget_evals, "count");
  outcome->Add("select_p50_ms", values.select_p50_ms, "ms");
  outcome->Add("select_p99_ms", values.select_p99_ms, "ms");
  outcome->Add("turnaround_p50_s", values.turnaround_p50_s, "s");
}

void AddRunLayers(const smartml::SmartMlResult& result, Layers* layers) {
  Layers& l = *layers;
  l["core.preprocess_s"] += result.preprocessing_seconds;
  l["core.select_s"] += result.selection_seconds;
  l["core.tune_s"] += result.tuning_seconds;
  l["core.output_s"] += result.output_seconds;
  for (const smartml::TraceSpan& span : result.trace) {
    if (span.name == "tune/refit") l["core.refit_s"] += span.duration_seconds;
    if (span.name == "ensemble") l["core.ensemble_s"] += span.duration_seconds;
    if (span.name == "interpret") {
      l["interpret.importance_s"] += span.duration_seconds;
    }
    if (span.name == "kb_update") {
      l["kb.add_ms"] += 1000.0 * span.duration_seconds;
    }
  }
}

void SetCounterLayers(const CounterSnapshot& before,
                      const CounterSnapshot& after, Layers* layers) {
  Layers& l = *layers;
  auto delta = [&](const char* name, const char* labels = "") {
    return after.Delta(before, name, labels);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double hits = delta("smartml_metafeature_cache_hits_total");
  const double misses = delta("smartml_metafeature_cache_misses_total");
  l["metafeatures.cache_hit_ratio"] = ratio(hits, hits + misses);
  l["kb.nominate_ms"] =
      1000.0 * ratio(delta("smartml_kb_lookup_seconds_sum"),
                     delta("smartml_kb_lookup_seconds_count"));
  l["kb.index_rebuilds"] = delta("smartml_kb_index_rebuilds_total");
  l["kb.tree_lookup_ratio"] =
      ratio(delta("smartml_kb_lookup_path_total", "kdtree"),
            delta("smartml_kb_lookup_path_total"));
  l["api.queue_wait_s"] =
      ratio(delta("smartml_job_queue_wait_seconds_sum"),
            delta("smartml_job_queue_wait_seconds_count"));
  l["api.shed"] =
      delta("smartml_http_shed_total") + delta("smartml_tenant_shed_total");
  l["persist.journal_appends"] = delta("smartml_journal_appends_total");
  l["persist.journal_bytes"] = delta("smartml_journal_bytes_written_total");
}

double BinnedBuildSeconds(const smartml::Dataset& dataset,
                          const smartml::SmartMlOptions& options) {
  auto split = smartml::StratifiedSplit(dataset, options.validation_fraction,
                                        options.seed);
  if (!split.ok()) return 0.0;
  auto folds = smartml::StratifiedFolds(split->train, options.cv_folds,
                                        options.seed);
  if (!folds.ok()) return 0.0;
  double total = 0.0;
  auto time_build = [&total](const smartml::Dataset& data) {
    const double start = Now();
    data.Binned();
    total += Now() - start;
  };
  for (int f = 0; f < options.cv_folds; ++f) {
    time_build(smartml::MaterializeFold(split->train, *folds, f).train);
  }
  time_build(split->train);
  return total;
}

void WriteSpans(const SpanLog& spans, const Args& args) {
  const std::string dir = ".bench_build/traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/" + args.workload + "." + std::to_string(args.seed) + ".jsonl";
  if (spans.Write(path)) {
    std::fprintf(stderr, "[e2ebench] %zu spans written to %s\n", spans.size(),
                 path.c_str());
  }
}

void AddPerLayer(Layers values, Outcome* outcome) {
  values["host.steal_ratio"] = StealRatioSinceStart();
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    outcome->Add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& entry : values) {
    bool known = false;
    for (const auto& metric : PerLayerMetrics()) {
      if (metric.first == entry.first) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "[e2ebench] unlisted per-layer metric %s\n",
                   entry.first.c_str());
    }
  }
}

smartml::Dataset Shuffled(const smartml::Dataset& dataset, uint64_t seed) {
  std::vector<size_t> rows(dataset.NumRows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(rows.begin(), rows.end(), rng);
  smartml::Dataset shuffled = dataset.Subset(rows);
  shuffled.set_name(dataset.name());
  return shuffled;
}

std::string CsvVariant(const std::string& base, uint64_t k) {
  const size_t row = base.find('\n');
  if (row == std::string::npos) return base;
  const size_t cell_end = base.find(',', row + 1);
  if (cell_end == std::string::npos) return base;
  // A small distinct value: the column's distribution barely moves.
  const std::string value =
      std::to_string(static_cast<double>(k % 1000003) * 1e-7);
  return base.substr(0, row + 1) + value + base.substr(cell_end);
}

size_t JsonArrayLength(const std::string& body) {
  auto parsed = smartml::ParseJson(body);
  if (!parsed.ok() || !parsed->is_array()) return 0;
  return parsed->array.size();
}

namespace {

InProcessFlow HandleFlow(smartml::RestService* service,
                         const std::string& csv) {
  InProcessFlow flow;
  smartml::HttpRequest request;
  request.method = "POST";
  request.version = "HTTP/1.1";
  request.path = "/v1/metafeatures";
  request.body = csv;
  const double start = Now();
  const smartml::HttpResponse features = service->Handle(request);
  const double middle = Now();
  request.path = "/v1/select";
  request.body = features.body;
  const smartml::HttpResponse selected = service->Handle(request);
  const double end = Now();
  flow.latency_s = end - start;
  flow.metafeatures_handle_s = middle - start;
  flow.select_handle_s = end - middle;
  flow.ok = features.status / 100 == 2 && selected.status / 100 == 2;
  flow.nominations = JsonArrayLength(selected.body);
  return flow;
}

}  // namespace

InProcessFlow RunInProcessFlow(smartml::RestService* service,
                               const std::string& csv) {
  // Each flow runs on its own thread, pinned to the cores in turn: the cores
  // of a shared host differ in speed, and one-threaded samples all taken on
  // the caller's core would inherit that core's speed.
  static unsigned next_cpu = 0;
  const unsigned cpu = next_cpu++ % std::max(1u, std::thread::hardware_concurrency());
  InProcessFlow flow;
  std::thread worker([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    flow = HandleFlow(service, csv);
  });
  worker.join();
  return flow;
}

}  // namespace e2e
