#include "bench_util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/obs/metrics.h"

namespace e2e {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

namespace {

/// (steal, total) jiffies from the aggregate cpu line of /proc/stat.
std::pair<double, double> ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double value = 0.0;
  double total = 0.0;
  double steal = 0.0;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already counted in user.
  for (int field = 0; field < 8 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

}  // namespace

double StealRatioSinceStart() {
  static const std::pair<double, double> start = ReadCpuJiffies();
  const std::pair<double, double> now = ReadCpuJiffies();
  const double total = now.second - start.second;
  return total > 0 ? (now.first - start.first) / total : 0.0;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snapshot;
  std::istringstream in(smartml::GlobalMetrics().EncodePrometheus());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snapshot.series_[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return snapshot;
}

double CounterSnapshot::Sum(const std::string& name,
                            const std::string& labels) const {
  double total = 0.0;
  for (auto it = series_.lower_bound(name); it != series_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    const std::string rest = key.substr(name.size());
    if (!rest.empty() && rest[0] != '{') continue;  // A longer metric name.
    if (!labels.empty() && rest.find(labels) == std::string::npos) continue;
    total += it->second;
  }
  return total;
}

double CounterSnapshot::Delta(const CounterSnapshot& before,
                              const std::string& name,
                              const std::string& labels) const {
  return Sum(name, labels) - before.Sum(name, labels);
}

int SpanLog::Add(const std::string& name, double start, double end,
                 int parent) {
  spans_.push_back({name, start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                  "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  i, s.parent, s.name.c_str(), s.start, s.end);
    out << line;
  }
  return static_cast<bool>(out);
}

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Outcome::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "[e2ebench] check failed: %s\n", why.c_str());
}

double Outcome::SuccessRatio() const {
  if (attempted_ == 0) return 1.0;
  return 1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_);
}

std::string Outcome::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", value);
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

ScratchDir::ScratchDir(const std::string& tag) {
  path_ = ".bench_build/tmp/" + tag + "." + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

SeedKbGuard::SeedKbGuard() { loaded_ = ReadFile(kPath, &bytes_); }

void SeedKbGuard::Verify(Outcome* outcome) const {
  std::string now;
  if (!ReadFile(kPath, &now)) {
    outcome->Fail(std::string(kPath) + " is gone");
  } else if (now != bytes_) {
    outcome->Fail(std::string(kPath) + " was modified during the run");
  }
}

}  // namespace e2e
