// Shared plumbing for the end-to-end benchmark: clocks and order
// statistics, counter deltas read from the process-global metrics registry,
// in-memory spans, and the result record printed as the last stdout line.
#ifndef E2EBENCH_BENCH_UTIL_H_
#define E2EBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Monotonic seconds since an arbitrary process-wide epoch.
double Now();

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Share of all CPU time the hypervisor stole from this machine since the
/// first call (from /proc/stat; 0 where unavailable). High values mean
/// the timings of this invocation are noisy.
double StealRatioSinceStart();

/// Mixes the workload seed into a per-purpose 64-bit stream seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// A point-in-time copy of every series in the global metrics registry,
/// keyed by the Prometheus series text ("name{labels}").
class CounterSnapshot {
 public:
  static CounterSnapshot Take();

  /// Sum of every series named `name` whose label text contains `labels`.
  double Sum(const std::string& name, const std::string& labels = "") const;
  /// this - before, for Sum(name, labels).
  double Delta(const CounterSnapshot& before, const std::string& name,
               const std::string& labels = "") const;

 private:
  std::map<std::string, double> series_;
};

/// Bench-side spans, kept in memory and written out once at the end.
class SpanLog {
 public:
  /// Records one closed span; returns its id. `parent` = -1 for roots.
  int Add(const std::string& name, double start, double end, int parent = -1);
  /// Writes one JSON object per line; returns false on I/O error.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  std::vector<Span> spans_;
};

/// What one invocation reports.
class Outcome {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Marks the output incorrect (a failed check) and explains why on stderr.
  void Fail(const std::string& why);
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  /// 1 - failed/attempted (1 when nothing was attempted).
  double SuccessRatio() const;
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Reads a whole file; returns false when it is unreadable.
bool ReadFile(const std::string& path, std::string* out);

/// Scratch directory for one invocation, inside the checkout's build
/// directory; created on construction, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Guards the checked-in seed knowledge base: remembers its bytes at
/// construction and reports whether they are unchanged.
class SeedKbGuard {
 public:
  static constexpr const char* kPath = "data/seed_kb.txt";
  SeedKbGuard();
  bool loaded() const { return loaded_; }
  const std::string& bytes() const { return bytes_; }
  /// Adds a failed check to `outcome` if the file changed or vanished.
  void Verify(Outcome* outcome) const;

 private:
  std::string bytes_;
  bool loaded_ = false;
};

/// Set-up is timed this many times per invocation; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Runs `setup` kSetupRepeats times with an untimed `teardown` between
/// calls and returns the median wall time; the state built by the last call
/// is the one the workload measures.
template <typename Setup, typename Teardown>
double TimeSetup(Setup&& setup, Teardown&& teardown) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) teardown();
    const double start = Now();
    setup();
    times.push_back(Now() - start);
  }
  return Median(times);
}

}  // namespace e2e

#endif  // E2EBENCH_BENCH_UTIL_H_
