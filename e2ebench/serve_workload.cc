// serve_select: an open loop of client selection flows (POST /v1/metafeatures
// then POST /v1/select) and occasional small runs (POST /v1/runs) against an
// in-process HttpServer + JobManager over loopback.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/api/job_manager.h"
#include "src/api/json.h"
#include "src/api/rest.h"
#include "src/core/smartml.h"
#include "src/data/csv.h"
#include "src/data/synthetic.h"
#include "src/kb/knowledge_base.h"
#include "src/metafeatures/metafeatures.h"
#include "workloads.h"

namespace e2e {
namespace {

using smartml::Dataset;

/// Selection flows started per second.
constexpr double kFlowRate = 50.0;
/// Seconds between run submissions (the first is half an interval in).
constexpr double kRunInterval = 2.0;
/// Fold-evaluation cap of one submitted run (no ensemble, no importances:
/// the runs are there to write the KB and exercise the job path).
constexpr int kRunEvaluations = 24;
/// KB size, and how many generated datasets its meta-features come from.
constexpr size_t kKbRecords = 20000;
constexpr size_t kKbSources = 48;
/// Row counts of the datasets behind the miss traffic; every miss is a
/// fresh variant of one of them.
constexpr size_t kMissRows[] = {300, 600, 1000, 1400, 2000, 800};
/// Repeated contents (meta-feature cache hits after their first request).
constexpr size_t kHotRows[] = {400, 900, 1500, 700};
/// Submitted runs use a dataset shaped like this KB source.
constexpr size_t kRunSource = 2;
/// A run is invalid when the generator sent its p99 arrival this late: two
/// arrival gaps behind schedule.
constexpr double kMaxGeneratorLagMs = 2000.0 / kFlowRate;
/// Unmeasured traffic before the measured loop.
constexpr double kWarmUpSeconds = 2.0;
/// Select bodies replayed in process for api.handle_ms.
constexpr size_t kHandleReplays = 200;

Dataset FlowDataset(uint64_t seed, size_t rows, size_t index) {
  smartml::SyntheticSpec spec;
  spec.name = "flow" + std::to_string(index);
  spec.kind = index % 2 == 0 ? smartml::SyntheticKind::kGaussianClusters
                             : smartml::SyntheticKind::kHypercube;
  spec.num_instances = rows;
  spec.num_informative = 6;
  spec.num_redundant = 2;
  spec.num_noise = 4;
  spec.num_classes = 3;
  spec.seed = 1000 + index;
  return Shuffled(smartml::GenerateSynthetic(spec), MixSeed(seed, index));
}

/// The generated dataset behind the meta-features of KB source `s`.
smartml::SyntheticSpec KbSourceSpec(size_t s) {
  smartml::SyntheticSpec spec;
  spec.kind = static_cast<smartml::SyntheticKind>(s % 4);
  spec.num_instances = 120 + (s * 37) % 400;
  spec.num_informative = 2 + s % 9;
  spec.num_redundant = s % 3;
  spec.num_noise = s % 5;
  spec.num_categorical = s % 4 == 0 ? 2 : 0;
  spec.num_classes = 2 + s % 5;
  spec.seed = 100 + s;
  return spec;
}

/// The submitted runs' dataset: like KB source `s`, sized so its training
/// split matches the source's rows. Every submission sends these same bytes,
/// whatever the workload seed, so each run repeats the same search: after
/// the first few runs their own KB records are the nearest neighbours and
/// the nominations stop changing.
Dataset RunDataset(size_t s) {
  smartml::SyntheticSpec spec = KbSourceSpec(s);
  spec.name = "run_source" + std::to_string(s);
  spec.num_instances = spec.num_instances * 4 / 3;
  spec.seed += 5000;
  return smartml::GenerateSynthetic(spec);
}

/// The KB behind /v1/select: kKbRecords records whose meta-features are
/// jittered copies of those of kKbSources generated datasets. The copies of
/// one source carry the algorithm results of one seed-KB record (with
/// jittered accuracies), so similar datasets keep similar evidence. The KB
/// is the deployed state, the same for every workload seed.
smartml::StatusOr<smartml::KnowledgeBase> BuildKb(
    const std::string& seed_kb_bytes) {
  SMARTML_ASSIGN_OR_RETURN(smartml::KnowledgeBase seed_kb,
                           smartml::KnowledgeBase::Deserialize(seed_kb_bytes));
  const std::vector<smartml::KbRecord> results = seed_kb.SnapshotRecords();
  if (results.empty()) return smartml::Status::Internal("empty seed KB");
  std::vector<smartml::MetaFeatureVector> sources;
  for (size_t s = 0; s < kKbSources; ++s) {
    SMARTML_ASSIGN_OR_RETURN(
        smartml::MetaFeatureVector mf,
        smartml::ExtractMetaFeatures(
            smartml::GenerateSynthetic(KbSourceSpec(s))));
    sources.push_back(mf);
  }
  std::mt19937_64 rng(7);
  std::normal_distribution<double> jitter(0.0, 0.03);
  smartml::KnowledgeBase kb;
  for (size_t r = 0; r < kKbRecords; ++r) {
    const size_t source = r % sources.size();
    smartml::KbRecord record = results[source % results.size()];
    record.dataset_name = "generated" + std::to_string(r);
    record.meta_features = sources[source];
    for (double& value : record.meta_features) value *= 1.0 + jitter(rng);
    for (smartml::KbAlgorithmResult& result : record.results) {
      result.accuracy = std::clamp(result.accuracy + jitter(rng), 0.0, 1.0);
    }
    kb.AddRecord(record);
  }
  return kb;
}

/// Minimal HTTP/1.1 keep-alive client (one connection, one request at a
/// time).
class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Returns the HTTP status, or -1 when the exchange failed in transport.
  int Post(const std::string& target, const std::string& body,
           std::string* response) {
    const std::string request =
        "POST " + target +
        " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const bool reused = fd_ >= 0;
      if (fd_ < 0 && !Connect()) return -1;
      bool received = false;
      bool close = false;
      const int status =
          SendAll(request) ? ReadResponse(response, &received, &close) : -1;
      if (status > 0) {
        if (close) Close();
        return status;
      }
      Close();
      // The server may close an idle kept-alive connection just before we
      // reuse it; only then is a resend safe.
      if (!reused || received) return -1;
    }
    return -1;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    buffer_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill(bool* received) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      *received = true;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  int ReadResponse(std::string* body, bool* received, bool* close) {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(received)) return -1;
    }
    std::string head = buffer_.substr(0, header_end);
    for (char& c : head) c = static_cast<char>(std::tolower(c));
    const size_t space = head.find(' ');
    if (space == std::string::npos) return -1;
    const int status = std::atoi(head.c_str() + space + 1);
    size_t length = 0;
    const size_t cl = head.find("\r\ncontent-length:");
    if (cl != std::string::npos) {
      length = std::strtoul(head.c_str() + cl + 17, nullptr, 10);
    }
    *close = head.find("\r\nconnection: close") != std::string::npos;
    const size_t body_start = header_end + 4;
    while (buffer_.size() < body_start + length) {
      if (!Fill(received)) return -1;
    }
    body->assign(buffer_, body_start, length);
    buffer_.erase(0, body_start + length);
    return status;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

struct ServeState {
  std::unique_ptr<ScratchDir> scratch;
  std::vector<std::string> hot_csv;
  std::vector<std::string> miss_csv;
  std::string run_csv;
  std::unique_ptr<smartml::SmartML> framework;
  std::unique_ptr<smartml::JobManager> jobs;
  std::unique_ptr<smartml::RestService> service;
  std::unique_ptr<smartml::HttpServer> server;
  std::thread serve_thread;
  int port = 0;
  /// Miss variants already sent: every loop's misses are new contents.
  uint64_t variants_sent = 0;

  ~ServeState() {
    if (server != nullptr) server->Stop();
    if (serve_thread.joinable()) serve_thread.join();
    server.reset();
    service.reset();
    jobs.reset();  // Joins the job worker.
    framework.reset();
  }
};

smartml::SmartMlOptions ServeOptions() {
  smartml::SmartMlOptions options;
  options.update_kb = true;  // Runs write the KB while lookups read it.
  options.num_threads = 1;
  options.seed = 42;
  return options;
}

int NumClients() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

smartml::Status SetUp(uint64_t seed, const std::string& seed_kb_bytes,
                      ServeState* state) {
  state->scratch = std::make_unique<ScratchDir>("serve_select");
  for (size_t i = 0; i < std::size(kHotRows); ++i) {
    state->hot_csv.push_back(
        smartml::WriteCsvString(FlowDataset(seed, kHotRows[i], i)));
  }
  for (size_t i = 0; i < std::size(kMissRows); ++i) {
    state->miss_csv.push_back(
        smartml::WriteCsvString(FlowDataset(seed, kMissRows[i], 100 + i)));
  }
  state->run_csv = smartml::WriteCsvString(RunDataset(kRunSource));
  state->framework = std::make_unique<smartml::SmartML>(ServeOptions());
  SMARTML_ASSIGN_OR_RETURN(state->framework->mutable_kb(),
                           BuildKb(seed_kb_bytes));
  smartml::JobManagerOptions job_options;
  job_options.num_workers = 1;
  job_options.journal_dir = state->scratch->path() + "/journal";
  state->jobs = std::make_unique<smartml::JobManager>(state->framework.get(),
                                                      job_options);
  state->service = std::make_unique<smartml::RestService>(
      state->framework.get(), state->jobs.get());
  smartml::HttpServerOptions server_options;
  // Each keep-alive client connection holds one worker.
  server_options.num_workers = NumClients() + 2;
  state->server = std::make_unique<smartml::HttpServer>(state->service.get(),
                                                        server_options);
  state->service->set_http_server(state->server.get());
  SMARTML_ASSIGN_OR_RETURN(state->port, state->server->Bind(0));
  smartml::HttpServer* server = state->server.get();
  state->serve_thread = std::thread([server] { (void)server->Serve(); });
  return smartml::Status::OK();
}

enum class Kind { kHit, kMiss, kRun };

struct Arrival {
  double at = 0.0;  ///< Scheduled send time, seconds after the loop starts.
  Kind kind = Kind::kHit;
  size_t index = 0;  ///< Sequence number within its kind.
};

std::vector<Arrival> Schedule(double seconds) {
  std::vector<Arrival> schedule;
  size_t flows = 0;
  for (double t = 0.0; t < seconds; t = ++flows / kFlowRate) {
    schedule.push_back(
        {t, flows % 2 == 0 ? Kind::kHit : Kind::kMiss, flows / 2});
  }
  size_t runs = 0;
  for (double t = kRunInterval / 2; t < seconds;
       t = kRunInterval / 2 + ++runs * kRunInterval) {
    schedule.push_back({t, Kind::kRun, runs});
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  return schedule;
}

/// What one loop measured.
struct LoopResult {
  std::vector<double> flow_s;        ///< Scheduled send -> select answer.
  std::vector<double> select_rtt_s;  ///< POST /v1/select round trip.
  std::vector<double> turnaround_s;  ///< Scheduled POST -> terminal state.
  std::vector<double> lag_s;         ///< Generator lateness per arrival.
  std::vector<smartml::JobSnapshot> runs;
  std::vector<std::string> select_bodies;  ///< For the in-process replay.
  size_t hits = 0;
  size_t misses = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
};

/// Runs the open loop for `seconds`: one generator thread releases arrivals
/// on schedule; NumClients() client threads, each with one keep-alive
/// connection, serve them; one reaper waits for submitted runs.
LoopResult RunLoop(ServeState* state, double seconds, SpanLog* spans) {
  const std::vector<Arrival> schedule = Schedule(seconds);
  const uint64_t first_variant = state->variants_sent;
  state->variants_sent += schedule.size();
  LoopResult out;
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Arrival> queue;
  bool generator_done = false;
  struct Submitted {
    std::string id;
    double due = 0.0;
  };
  std::deque<Submitted> submitted;
  std::condition_variable submitted_ready;
  bool clients_done = false;

  const double epoch = Now() + 0.05;
  auto problem = [&](const std::string& what) {
    ++out.failed;
    if (out.problems.size() < 5) out.problems.push_back(what);
  };

  auto client_main = [&] {
    HttpClient client(state->port);
    std::string features;
    std::string answer;
    for (;;) {
      Arrival arrival;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) return;
        arrival = queue.front();
        queue.pop_front();
      }
      const double due = epoch + arrival.at;
      if (arrival.kind == Kind::kRun) {
        const std::string& csv = state->run_csv;
        const double send = Now();
        const int status = client.Post(
            "/v1/runs?evals=" + std::to_string(kRunEvaluations) +
                "&budget=60&threads=1&ensemble=0&interpretability=0"
                "&name=served" +
                std::to_string(arrival.index),
            csv, &answer);
        std::lock_guard<std::mutex> lock(mutex);
        ++out.attempted;
        if (spans != nullptr) spans->Add("run/submit", send, Now());
        auto parsed = smartml::ParseJson(answer);
        const smartml::JsonValue* id =
            parsed.ok() ? parsed->Find("id") : nullptr;
        if (status != 202 || id == nullptr || !id->is_string()) {
          problem("POST /v1/runs answered " + std::to_string(status));
          continue;
        }
        submitted.push_back({id->string, due});
        submitted_ready.notify_one();
        continue;
      }
      const bool hit = arrival.kind == Kind::kHit;
      const std::string csv =
          hit ? state->hot_csv[arrival.index % state->hot_csv.size()]
              : CsvVariant(
                    state->miss_csv[arrival.index % state->miss_csv.size()],
                    first_variant + arrival.index);
      const double send = Now();
      const int features_status =
          client.Post("/v1/metafeatures", csv, &features);
      const double middle = Now();
      const int select_status =
          features_status == 200 ? client.Post("/v1/select", features, &answer)
                                 : -1;
      const double end = Now();
      const size_t nominations =
          select_status == 200 ? JsonArrayLength(answer) : 0;
      std::lock_guard<std::mutex> lock(mutex);
      out.attempted += 2;
      (hit ? out.hits : out.misses) += 1;
      if (features_status != 200) {
        problem("POST /v1/metafeatures answered " +
                std::to_string(features_status));
        continue;
      }
      if (select_status != 200) {
        problem("POST /v1/select answered " + std::to_string(select_status));
        continue;
      }
      if (nominations == 0) problem("POST /v1/select nominated nothing");
      out.flow_s.push_back(end - due);
      out.select_rtt_s.push_back(end - middle);
      if (out.select_bodies.size() < kHandleReplays) {
        out.select_bodies.push_back(features);
      }
      if (spans != nullptr) {
        const int root = spans->Add("flow", due, end);
        spans->Add("flow/queued", due, send, root);
        spans->Add("flow/metafeatures", send, middle, root);
        spans->Add("flow/select", middle, end, root);
      }
    }
  };

  auto reaper_main = [&] {
    for (;;) {
      Submitted next;
      {
        std::unique_lock<std::mutex> lock(mutex);
        submitted_ready.wait(
            lock, [&] { return !submitted.empty() || clients_done; });
        if (submitted.empty()) return;
        next = submitted.front();
        submitted.pop_front();
      }
      auto snapshot = state->jobs->Wait(next.id, 120.0);
      const double end = Now();
      std::lock_guard<std::mutex> lock(mutex);
      ++out.attempted;
      if (!snapshot.ok() || snapshot->state != smartml::JobState::kDone) {
        problem("run " + next.id + " ended " +
                (snapshot.ok() ? smartml::JobStateName(snapshot->state)
                               : snapshot.status().ToString()));
        continue;
      }
      out.turnaround_s.push_back(end - next.due);
      out.runs.push_back(*snapshot);
      if (spans != nullptr) spans->Add("run", next.due, end);
    }
  };

  std::vector<std::thread> clients;
  for (int i = 0; i < NumClients(); ++i) clients.emplace_back(client_main);
  std::thread reaper(reaper_main);
  for (const Arrival& arrival : schedule) {
    const double due = epoch + arrival.at;
    const double wait = due - Now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double lag = std::max(0.0, Now() - due);
    std::lock_guard<std::mutex> lock(mutex);
    out.lag_s.push_back(lag);
    queue.push_back(arrival);
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    generator_done = true;
  }
  ready.notify_all();
  for (std::thread& client : clients) client.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    clients_done = true;
  }
  submitted_ready.notify_all();
  reaper.join();
  return out;
}

/// Sums duration_seconds of every span named `name` in a run's JSON trace.
double SpanSeconds(const smartml::JsonValue& spans, const std::string& name,
                   size_t* count) {
  double total = 0.0;
  if (!spans.is_array()) return total;
  for (const smartml::JsonValue& span : spans.array) {
    const smartml::JsonValue* span_name = span.Find("name");
    const smartml::JsonValue* duration = span.Find("duration_seconds");
    if (span_name != nullptr && duration != nullptr &&
        span_name->string == name) {
      total += duration->number;
      ++*count;
    }
    if (const smartml::JsonValue* children = span.Find("children")) {
      total += SpanSeconds(*children, name, count);
    }
  }
  return total;
}

/// Evaluations and span totals of one served run's result JSON.
struct RunJson {
  double evaluations = 0.0;
  std::map<std::string, double> span_s;
  std::map<std::string, size_t> span_count;
};

RunJson ParseRun(const smartml::JobSnapshot& snapshot) {
  RunJson out;
  auto parsed = smartml::ParseJson(snapshot.result_json);
  if (!parsed.ok()) return out;
  if (const smartml::JsonValue* algorithms = parsed->Find("algorithms")) {
    for (const smartml::JsonValue& algorithm : algorithms->array) {
      if (const smartml::JsonValue* n = algorithm.Find("evaluations")) {
        out.evaluations += n->number;
      }
    }
  }
  if (const smartml::JsonValue* trace = parsed->Find("trace")) {
    for (const char* name : {"tune/refit", "ensemble", "interpret",
                             "kb_update"}) {
      out.span_s[name] = SpanSeconds(*trace, name, &out.span_count[name]);
    }
  }
  return out;
}

void CheckLoop(const LoopResult& loop, Outcome* outcome) {
  outcome->Count(loop.attempted, loop.failed);
  for (const std::string& problem : loop.problems) outcome->Fail(problem);
  if (loop.flow_s.empty()) outcome->Fail("no selection flow completed");
  if (loop.runs.empty()) outcome->Fail("no submitted run completed");
  const double lag_p99_ms = 1000.0 * Percentile(loop.lag_s, 0.99);
  if (lag_p99_ms > kMaxGeneratorLagMs) {
    outcome->Fail("invalid run: the generator fell behind (p99 lag " +
                  std::to_string(lag_p99_ms) + " ms)");
  }
}

}  // namespace

Outcome RunServeSelect(const Args& args) {
  Outcome outcome;
  const SeedKbGuard guard;
  if (!guard.loaded()) {
    outcome.Fail(std::string("cannot read ") + SeedKbGuard::kPath);
    return outcome;
  }
  std::unique_ptr<ServeState> state;
  smartml::Status setup_status;
  const double setup_s = TimeSetup(
      [&] {
        state = std::make_unique<ServeState>();
        setup_status = SetUp(args.seed, guard.bytes(), state.get());
      },
      [&] { state.reset(); });
  if (!setup_status.ok()) {
    outcome.Fail("set-up failed: " + setup_status.ToString());
    return outcome;
  }

  // Warm-up (not measured): connections, server workers and allocator.
  CheckLoop(RunLoop(state.get(), kWarmUpSeconds, nullptr), &outcome);
  if (!args.trace) {
    const LoopResult loop =
        RunLoop(state.get(), args.seconds, nullptr);
    CheckLoop(loop, &outcome);
    EndToEnd e;
    e.setup_s = setup_s;
    std::vector<double> run_s;
    double evaluations = 0.0;
    double tuning_s = 0.0;
    std::vector<double> accuracy;
    for (const smartml::JobSnapshot& run : loop.runs) {
      run_s.push_back(run.total_seconds);
      evaluations += ParseRun(run).evaluations;
      tuning_s += run.tuning_seconds;
      accuracy.push_back(run.best_validation_accuracy);
    }
    e.run_s = Median(run_s);
    e.evals_per_s = tuning_s > 0 ? evaluations / tuning_s : 0.0;
    e.budget_accuracy = Mean(accuracy);
    e.budget_evals =
        loop.runs.empty() ? 0.0 : evaluations / loop.runs.size();
    e.select_p50_ms = 1000.0 * Percentile(loop.flow_s, 0.5);
    e.select_p99_ms = 1000.0 * Percentile(loop.flow_s, 0.99);
    e.turnaround_p50_s = Median(loop.turnaround_s);
    AddEndToEnd(e, &outcome);
    state.reset();
    guard.Verify(&outcome);
    return outcome;
  }

  // Traced: the same loop untraced (the overhead baseline), then traced.
  const LoopResult baseline =
      RunLoop(state.get(), args.seconds, nullptr);
  CheckLoop(baseline, &outcome);
  SpanLog spans;
  Layers layers;
  const CounterSnapshot before = CounterSnapshot::Take();
  const LoopResult loop = RunLoop(state.get(), args.seconds, &spans);
  const CounterSnapshot after = CounterSnapshot::Take();
  CheckLoop(loop, &outcome);
  SetCounterLayers(before, after, &layers);
  layers["trace.overhead_ms"] = 1000.0 * (Percentile(loop.flow_s, 0.5) -
                                          Percentile(baseline.flow_s, 0.5));
  layers["serve.generator_lag_p99_ms"] = 1000.0 * Percentile(loop.lag_s, 0.99);
  layers["serve.generator_lag_max_ms"] = 1000.0 * Percentile(loop.lag_s, 1.0);

  // Served runs: phase fields and spans from their snapshots.
  size_t kb_updates = 0;
  for (const smartml::JobSnapshot& run : loop.runs) {
    const RunJson parsed = ParseRun(run);
    layers["core.preprocess_s"] += run.preprocessing_seconds;
    layers["core.select_s"] += run.selection_seconds;
    layers["core.tune_s"] += run.tuning_seconds;
    layers["core.output_s"] += run.output_seconds;
    layers["core.refit_s"] += parsed.span_s.at("tune/refit");
    layers["core.ensemble_s"] += parsed.span_s.at("ensemble");
    layers["interpret.importance_s"] += parsed.span_s.at("interpret");
    layers["kb.add_ms"] += 1000.0 * parsed.span_s.at("kb_update");
    kb_updates += parsed.span_count.at("kb_update");
    layers["tuning.evals"] += parsed.evaluations;
  }
  if (kb_updates > 0) layers["kb.add_ms"] /= kb_updates;
  const double evals = layers["tuning.evals"];
  layers["tuning.surrogate_fit_s"] =
      after.Delta(before, "smartml_smac_surrogate_fit_seconds_sum");
  if (evals > 0) {
    layers["tuning.improvement_ratio"] =
        after.Delta(before, "smartml_tuner_incumbent_improvements_total") /
        evals;
  }

  // In-process replays on the loop's own inputs.
  std::vector<double> handle_s;
  smartml::HttpRequest request;
  request.method = "POST";
  request.version = "HTTP/1.1";
  request.path = "/v1/select";
  for (const std::string& body : loop.select_bodies) {
    request.body = body;
    const double start = Now();
    (void)state->service->Handle(request);
    handle_s.push_back(Now() - start);
  }
  layers["api.handle_ms"] = 1000.0 * Mean(handle_s);
  layers["api.http_overhead_ms"] =
      1000.0 * (Mean(loop.select_rtt_s) - Mean(handle_s));
  // CSV parsing and extraction the server did: per distinct base, timed
  // once, times how often the loop sent it (extraction only on misses and
  // on each hot content's first request).
  auto time_of = [](auto&& f) {
    const double start = Now();
    f();
    return Now() - start;
  };
  const double hits_per_hot =
      static_cast<double>(loop.hits) / state->hot_csv.size();
  const double misses_per_base =
      static_cast<double>(loop.misses) / state->miss_csv.size();
  for (const auto* group : {&state->hot_csv, &state->miss_csv}) {
    const bool hot = group == &state->hot_csv;
    for (const std::string& csv : *group) {
      auto dataset = smartml::ReadCsvString(csv);
      const double parse_s = time_of([&] { (void)smartml::ReadCsvString(csv); });
      const double extract_s = dataset.ok() ? time_of([&] {
        (void)smartml::ExtractMetaFeatures(*dataset);
      }) : 0.0;
      layers["data.csv_parse_s"] +=
          parse_s * (hot ? hits_per_hot : misses_per_base);
      layers["metafeatures.extract_s"] +=
          extract_s * (hot ? 1.0 : misses_per_base);
    }
  }
  AddPerLayer(layers, &outcome);
  WriteSpans(spans, args);
  state.reset();
  guard.Verify(&outcome);
  return outcome;
}

}  // namespace e2e
