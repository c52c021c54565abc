// Cooperative cancellation and run-level budget propagation.
//
// A CancelToken is a shared atomic flag: the REST layer (DELETE
// /v1/runs/{id}) flips it from one thread while the experiment thread polls
// it at loop boundaries — between pipeline phases, between tuner fold
// evaluations, and inside the iterative classifier training loops — so a
// *running* job reaches a terminal state within a bounded latency instead of
// only being cancellable while still queued.
//
// A RunBudget bundles the token with a whole-run wall-clock deadline. It is
// created by the caller (JobManager per job; SmartML::Run derives one from
// the options otherwise) and threaded through SmartML::Run into
// preprocessing, meta-feature extraction, KB lookup and every tuner. The two
// halves have different semantics on purpose:
//
//   - token cancelled  -> the run's output is unwanted; abort with
//                         StatusCode::kCancelled as fast as possible.
//   - deadline expired -> the caller still wants a result; stop starting new
//                         work and return the best-so-far.
//
// Deep training loops (neural net epochs, boosting rounds, ...) cannot take
// a RunBudget parameter without churning every Classifier::Fit signature, so
// SmartML::Run additionally installs the token in a thread-local slot via
// ScopedCancelScope; CancellationRequested() reads it. Only *cancellation*
// is propagated that way — deadline expiry deliberately is not, so the final
// refit of the best configuration can complete after the budget ran out.
#ifndef SMARTML_COMMON_CANCELLATION_H_
#define SMARTML_COMMON_CANCELLATION_H_

#include <atomic>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/stopwatch.h"

namespace smartml {

class CheckpointSink;  // src/persist/checkpoint.h

/// Shared, thread-safe cancellation flag. Create via std::make_shared and
/// hand copies of the shared_ptr to both the canceller and the cancellee.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The unified per-run budget: wall-clock deadline + cancellation token.
/// Copyable; copies share the token and the deadline's epoch.
struct RunBudget {
  Deadline deadline;  ///< Whole-run cap; infinite by default.
  std::shared_ptr<CancelToken> token;  ///< May be null (uncancellable run).

  /// Optional checkpoint store for resumable tuning (null = no durability).
  /// Threaded by JobManager into SmartML::Run; SMAC writes its search
  /// state under keys prefixed with `checkpoint_scope` (the job id), so a
  /// recovered run finds its own checkpoints and a finished job's keys can
  /// be removed by prefix. Non-owning: the sink outlives the run.
  CheckpointSink* checkpoint = nullptr;
  std::string checkpoint_scope;

  static RunBudget Unbounded() { return RunBudget{}; }

  bool Cancelled() const { return token != nullptr && token->IsCancelled(); }
  bool DeadlineExpired() const { return deadline.Expired(); }
  /// Either stop condition (callers that just need "stop starting work").
  bool Stop() const { return Cancelled() || DeadlineExpired(); }

  /// OK while the run may proceed; kCancelled / kDeadlineExceeded otherwise.
  /// `what` names the phase for the error message ("preprocess", ...).
  Status Check(const char* what) const;
};

/// Installs `token` as the calling thread's current cancellation token for
/// the guard's lifetime (nested scopes restore the previous token). Null is
/// allowed and clears the slot.
class ScopedCancelScope {
 public:
  explicit ScopedCancelScope(const CancelToken* token);
  ~ScopedCancelScope();
  ScopedCancelScope(const ScopedCancelScope&) = delete;
  ScopedCancelScope& operator=(const ScopedCancelScope&) = delete;

 private:
  const CancelToken* previous_;
};

/// True when the calling thread runs under a ScopedCancelScope whose token
/// has been cancelled. Cheap (one thread-local read + one atomic load);
/// safe to call from tight training loops every few iterations.
bool CancellationRequested();

/// The calling thread's installed token (null outside any scope). Parallel
/// loops forward it into pool strands so per-index cancellation checks keep
/// working on worker threads.
const CancelToken* CurrentCancelToken();

}  // namespace smartml

#endif  // SMARTML_COMMON_CANCELLATION_H_
