// rest_server: the paper's REST API ("programming language agnostic ... can
// be embedded in any programming language using its available REST APIs"),
// served concurrently: a worker pool handles requests while experiments run
// asynchronously on a separate job pool.
//
//   rest_server [--port P] [--kb FILE] [--budget SECONDS] [--evals N]
//               [--workers N] [--job-workers N] [--max-jobs N]
//               [--tenant-quota N] [--tenant-weight NAME=W ...]
//               [--tenant-burst NAME=N | --tenant-burst N]
//               [--journal-dir DIR]
//               [--kb-compact-interval SECONDS] [--kb-max-records N]
//               [--kb-dedup-epsilon E]
//
// v1 endpoints (see docs/API.md and docs/openapi.yaml):
//   GET    /v1/health /v1/metrics /v1/algorithms /v1/kb
//   POST   /v1/metafeatures (CSV body)
//   POST   /v1/select       (JSON body of named meta-features)
//   POST   /v1/runs[?budget=..&evals=..] (CSV body) -> 202 + job id
//   POST   /v1/batch        (JSON body {"items": [...]}) -> 202 + batch id
//   GET    /v1/runs[?status=&tenant=&after=&limit=]
//   GET    /v1/runs/{id}    DELETE /v1/runs/{id}
//   GET    /v1/runs/{id}/events  (SSE progress stream)
//   GET    /v1/batches/{id}
//
// Tenancy: send an X-Tenant header to keep tenants' queues fair-shared;
// --tenant-quota caps each tenant's queued+running jobs (429 beyond it), and
// --tenant-burst grants token-bucket burst credits on top of the quota.
//
// Durability: --journal-dir makes accepted jobs survive a crash or restart.
// Admissions are journaled before they are acknowledged; on startup the
// journal replays, re-queuing interrupted jobs (their tuners resume from
// checkpoints under DIR/checkpoints) and keeping finished ones pollable.
//
// Try it:
//   ./rest_server --port 8080 &
//   curl localhost:8080/v1/health
//   curl -X POST --data-binary @data.csv 'localhost:8080/v1/runs?budget=10'
//   curl -N localhost:8080/v1/runs/run-000001/events
//   curl localhost:8080/v1/runs/run-000001
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "src/api/job_manager.h"
#include "src/api/rest.h"
#include "src/common/logging.h"

namespace {
smartml::HttpServer* g_server = nullptr;
void HandleSigInt(int) {
  if (g_server != nullptr) g_server->Stop();
}
}  // namespace

int main(int argc, char** argv) {
  using namespace smartml;

  int port = 8080;
  std::string kb_path;
  SmartMlOptions options;
  options.time_budget_seconds = 10;
  options.max_evaluations = 60;
  options.cv_folds = 2;
  HttpServerOptions server_options;
  JobManagerOptions job_options;
  // Background KB compaction (off by default): every interval, merge
  // near-duplicate records and enforce the size cap while serving continues
  // (Compact takes the KB's writer lock only for the pass itself).
  double kb_compact_interval_seconds = 0.0;
  KbCompactionOptions kb_compact_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--kb") {
      kb_path = next();
    } else if (arg == "--budget") {
      options.time_budget_seconds = std::atof(next());
    } else if (arg == "--evals") {
      options.max_evaluations = std::atoi(next());
    } else if (arg == "--workers") {
      server_options.num_workers = std::atoi(next());
    } else if (arg == "--job-workers") {
      job_options.num_workers = std::atoi(next());
    } else if (arg == "--max-jobs") {
      job_options.max_pending_jobs =
          static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--tenant-quota") {
      job_options.default_tenant_quota =
          static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--tenant-weight") {
      // NAME=W, e.g. --tenant-weight team-a=3
      const std::string spec = next();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--tenant-weight wants NAME=W, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      job_options.tenant_weights[spec.substr(0, eq)] =
          std::atoi(spec.c_str() + eq + 1);
    } else if (arg == "--tenant-burst") {
      // NAME=N grants one tenant N burst tokens; a bare N sets the default
      // for every tenant.
      const std::string spec = next();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        job_options.default_tenant_burst =
            static_cast<size_t>(std::atoi(spec.c_str()));
      } else {
        job_options.tenant_bursts[spec.substr(0, eq)] =
            static_cast<size_t>(std::atoi(spec.c_str() + eq + 1));
      }
    } else if (arg == "--journal-dir") {
      job_options.journal_dir = next();
    } else if (arg == "--kb-compact-interval") {
      kb_compact_interval_seconds = std::atof(next());
    } else if (arg == "--kb-max-records") {
      kb_compact_options.max_records = static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--kb-dedup-epsilon") {
      kb_compact_options.dedup_epsilon = std::atof(next());
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  SetLogLevel(LogLevel::kInfo);
  SmartML framework(options);
  if (!kb_path.empty()) {
    const Status status = framework.LoadKnowledgeBase(kb_path);
    std::printf("knowledge base: %s (%zu records)\n",
                status.ok() ? "loaded" : "starting empty",
                framework.kb().NumRecords());
  }

  JobManager jobs(&framework, job_options);
  RestService service(&framework, &jobs);
  HttpServer server(&service, server_options);
  service.set_http_server(&server);
  auto bound = server.Bind(port);
  if (!bound.ok()) {
    std::fprintf(stderr, "bind failed: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSigInt);
  std::printf("SmartML REST API listening on http://127.0.0.1:%d "
              "(%d http workers, %d experiment workers)\n",
              *bound, server.num_workers(), jobs.num_workers());
  std::printf("endpoints: GET /v1/health /v1/metrics /v1/algorithms /v1/kb "
              "/v1/runs /v1/runs/{id} /v1/runs/{id}/events /v1/batches/{id}; "
              "POST /v1/metafeatures /v1/select /v1/runs /v1/batch; "
              "DELETE /v1/runs/{id}\n");
  // Scripts parse the listening line from a pipe; don't sit in the stdio
  // buffer until something else fills it.
  std::fflush(stdout);

  // Background compaction: condition_variable (not sleep) so shutdown does
  // not wait out the remainder of an interval.
  std::mutex compactor_mutex;
  std::condition_variable compactor_cv;
  std::atomic<bool> compactor_stop{false};
  std::thread compactor;
  if (kb_compact_interval_seconds > 0.0) {
    compactor = std::thread([&] {
      const auto interval = std::chrono::duration_cast<
          std::chrono::milliseconds>(
          std::chrono::duration<double>(kb_compact_interval_seconds));
      std::unique_lock lock(compactor_mutex);
      while (!compactor_cv.wait_for(lock, interval, [&] {
        return compactor_stop.load();
      })) {
        const KbCompactionStats stats =
            framework.mutable_kb().Compact(kb_compact_options);
        if (stats.merged > 0 || stats.evicted > 0) {
          SMARTML_LOG_INFO << "kb compaction: " << stats.before << " -> "
                           << stats.after << " records (" << stats.merged
                           << " merged, " << stats.evicted << " evicted)";
        }
      }
    });
    std::printf("kb compaction: every %.0fs (epsilon %g, max records %zu)\n",
                kb_compact_interval_seconds, kb_compact_options.dedup_epsilon,
                kb_compact_options.max_records);
    std::fflush(stdout);
  }

  const Status status = server.Serve();
  if (compactor.joinable()) {
    {
      std::lock_guard lock(compactor_mutex);
      compactor_stop = true;
    }
    compactor_cv.notify_all();
    compactor.join();
  }
  if (!kb_path.empty()) {
    const std::string save_path = KbSnapshotSavePath(kb_path);
    if (save_path != kb_path) {
      std::fprintf(stderr,
                   "warning: %s is a text knowledge base; writing the "
                   "binary snapshot to %s instead of overwriting it\n",
                   kb_path.c_str(), save_path.c_str());
    }
    (void)framework.SaveKnowledgeBase(save_path);
    std::printf("knowledge base saved to %s (%zu records)\n",
                save_path.c_str(), framework.kb().NumRecords());
  }
  return status.ok() ? 0 : 1;
}
