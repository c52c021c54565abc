// Deterministic fault injection for robustness testing.
//
// Production code is sprinkled with named fault points that are compiled in
// but cost one relaxed atomic load while no faults are armed. Faults are
// armed either from the environment (read once at first use):
//
//   SMARTML_FAULT="kb_save_crash,tuner_throw:0.1,slow_train:50ms"
//
// or programmatically by tests via FaultInjection::SetSpec(). Each entry is
// `name`, `name:<probability>` (0..1, default 1 = always fire),
// `name:<N>x` (fire on exactly the first N calls, then stop) or
// `name:<duration>` (e.g. "50ms", "1.5s" — a delay, not a firing gate).
//
// Points used by the pipeline (see docs/ROBUSTNESS.md):
//   kb_save_crash    KnowledgeBase::SaveToFile dies after writing a torn
//                    temp file — simulates kill -9 mid-save.
//   kb_load_corrupt  KnowledgeBase::LoadFromFile reads a bit-flipped body —
//                    simulates on-disk corruption (checksum must catch it).
//   kb_rename_fail   KnowledgeBase::SaveToFile's final rename (tmp -> path)
//                    fails after the old file moved to .bak — the save must
//                    restore the last-good file to the main path.
//   kb_lookup_throw  KB nomination throws — exercises the degraded
//                    no-meta-learning path.
//   tuner_throw      TuneAlgorithm (src/core/smartml.cc) throws before
//                    tuning — exercises per-candidate failure isolation.
//   refit_fail       TuneAlgorithm's refit of the tuned config fails — the
//                    candidate must fail, not be ranked at accuracy 0.
//   slow_train       ClassifierObjective::EvaluateFold sleeps per fold —
//                    makes runs reliably slow for cancellation latency and
//                    per-candidate timeout tests.
//   journal_write_torn  JobJournal::Append writes half a frame and skips
//                    the fsync — simulates power loss mid-append; replay
//                    must salvage the longest valid prefix.
//   journal_fsync_fail  JobJournal::Append's fsync fails — the record may
//                    not be durable; JobManager logs and keeps serving.
//   checkpoint_corrupt  FileCheckpointStore::Get reads a bit-flipped blob —
//                    the crc trailer must catch it and the tuner must fall
//                    back to a fresh start instead of resuming from garbage.
//
// Probability draws use a fixed-seed RNG per armed spec, so a given spec
// fires on the same call sequence every run (deterministic tests).
#ifndef SMARTML_COMMON_FAULT_INJECTION_H_
#define SMARTML_COMMON_FAULT_INJECTION_H_

#include <string>

#include "src/common/status.h"

namespace smartml {

class FaultInjection {
 public:
  /// The process-wide instance. First call arms faults from SMARTML_FAULT.
  static FaultInjection& Instance();

  /// Replaces the armed fault set from a spec string ("" disarms all).
  /// InvalidArgument on malformed entries (the previous set is kept).
  Status SetSpec(const std::string& spec);

  /// True when any fault is armed (one relaxed atomic load).
  bool AnyArmed() const;

  /// True when `point` is armed and its probability gate passes this call.
  bool ShouldFire(const char* point);

  /// Configured delay for `point` in seconds (0 when unarmed / no delay).
  double DelaySeconds(const char* point) const;

  /// Sleeps for the configured delay of `point`, if any. The sleep is
  /// chunked and returns early when `CancellationRequested()` — an injected
  /// slowdown must not defeat the cancellation it exists to test.
  void MaybeDelay(const char* point);

 private:
  FaultInjection();
  struct Impl;
  Impl* impl_;  // Never freed: fault points may fire during shutdown.
};

/// Convenience wrappers with the no-faults early-out inlined at the call
/// site's expense of one function call. Safe from any thread.
bool FaultShouldFire(const char* point);
void FaultMaybeDelay(const char* point);

}  // namespace smartml

#endif  // SMARTML_COMMON_FAULT_INJECTION_H_
