// The three workloads. Each runs its set-up kSetupRepeats times, measures
// for args.seconds, checks its outputs, and fills an Outcome with every
// end-to-end metric (args.trace == false) or every per-layer metric
// (args.trace == true). README.md in this directory explains the choices.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "src/api/rest.h"

namespace e2e {

Outcome RunTuneCapped(const Args& args);
Outcome RunTuneBudget(const Args& args);
Outcome RunServeSelect(const Args& args);

/// The end-to-end values every untraced invocation prints (peak memory and
/// the success ratio come from the process and the Outcome).
struct EndToEnd {
  double setup_s = 0.0;
  double run_s = 0.0;
  double evals_per_s = 0.0;
  double budget_accuracy = 0.0;
  double budget_evals = 0.0;
  double select_p50_ms = 0.0;
  double select_p99_ms = 0.0;
  double turnaround_p50_s = 0.0;
};
void AddEndToEnd(const EndToEnd& values, Outcome* outcome);

using Layers = std::map<std::string, double>;

/// Adds a run's phase times and trace spans to the core.* / interpret.* /
/// kb.add_ms layers (summed; kb.add_ms in ms).
void AddRunLayers(const smartml::SmartMlResult& result, Layers* layers);

/// Sets the layers read from the metrics registry between two snapshots:
/// meta-feature cache, KB lookups and index, job queue, shedding, journal.
void SetCounterLayers(const CounterSnapshot& before,
                      const CounterSnapshot& after, Layers* layers);

/// Seconds to build the binned column view of `dataset`'s training split
/// and of each CV fold's training set, as one run's tuning does.
double BinnedBuildSeconds(const smartml::Dataset& dataset,
                          const smartml::SmartMlOptions& options);

/// Writes the in-memory spans to .bench_build/traces/<workload>.<seed>.jsonl.
void WriteSpans(const SpanLog& spans, const Args& args);

/// The per-layer metrics every traced invocation prints, in order. A layer
/// a workload does not exercise reads 0 there.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills every per-layer metric into `outcome`, taking values from `values`
/// (missing names read 0).
void AddPerLayer(Layers values, Outcome* outcome);

/// The workload seed's view of a fixed dataset: the same rows in a
/// seed-determined order. Splits, folds and everything tuned on them follow
/// the seed; the data's distribution and size do not, so the seed moves the
/// work a run does but not the problem it solves.
smartml::Dataset Shuffled(const smartml::Dataset& dataset, uint64_t seed);

/// CSV text of `base` with its first data cell replaced by a value unique to
/// `k`: same shape and cost, different content hash (a meta-feature cache
/// miss).
std::string CsvVariant(const std::string& base, uint64_t k);

/// One POST /v1/metafeatures + POST /v1/select pass through
/// RestService::Handle, without sockets.
struct InProcessFlow {
  double latency_s = 0.0;
  double metafeatures_handle_s = 0.0;
  double select_handle_s = 0.0;
  bool ok = false;          ///< Both answers 2xx.
  size_t nominations = 0;   ///< Entries in the /v1/select answer.
};
InProcessFlow RunInProcessFlow(smartml::RestService* service,
                               const std::string& csv);

/// Number of top-level entries of a JSON array answer (0 if not an array).
size_t JsonArrayLength(const std::string& body);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
