#!/usr/bin/env sh
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/tier1.sh                 # plain build + ctest (the CI gate)
#   SMARTML_SANITIZE=thread scripts/tier1.sh
#       ThreadSanitizer build; additionally re-runs the concurrency tests
#       (rest_concurrency_test, kb_concurrency_test, events_test,
#       multitenant_test, interpret_test, ensemble_test, ...) under TSan so data races in the serving core and
#       the fair-share scheduler fail loudly.
#   SMARTML_SANITIZE=thread,undefined scripts/tier1.sh
#       TSan + UBSan combined (the value is passed to -fsanitize= verbatim).
#
# Both flavours finish with the fault-injection leg: the fault-tolerance
# suite plus the process-level KB crash-recovery smoke test.
#
# The sanitizer build lands in build-<sanitizer>/ so it never invalidates
# the primary build/ tree.
set -eu

cd "$(dirname "$0")/.."

SANITIZE="${SMARTML_SANITIZE:-}"
BUILD_DIR="build${SANITIZE:+-$(echo "$SANITIZE" | tr ',' '-')}"

# Make every sanitizer report fatal rather than a warning. The suppressions
# file silences a known GCC shared-runtime artifact (libubsan's vptr probe
# racing TSan's fd bookkeeping — see scripts/tsan_suppressions.txt); it
# matches sanitizer-internal frames only, so repo races still fail loudly.
TSAN_OPTIONS="halt_on_error=1:history_size=7:suppressions=$(pwd)/scripts/tsan_suppressions.txt${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}"
export TSAN_OPTIONS UBSAN_OPTIONS

# SMARTML_CMAKE_ARGS lets CI inject extra configure flags (e.g. a ccache
# compiler launcher) without teaching this script about each one. The plain
# build treats every -Wall -Wextra warning as an error, so the tree stays
# warning-free and a helper left without callers (-Wunused-function) fails
# the gate. Sanitizer builds keep warnings as warnings: the instrumentation
# can add its own.
WERROR=""
[ -z "$SANITIZE" ] && WERROR="-DCMAKE_COMPILE_WARNING_AS_ERROR=ON"
# shellcheck disable=SC2086
cmake -B "$BUILD_DIR" -S . ${SANITIZE:+-DSMARTML_SANITIZE="$SANITIZE"} \
  ${WERROR} ${SMARTML_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j"$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)")

case "$SANITIZE" in
  *thread*)
    # Surface the concurrency suites explicitly under the sanitizer.
    # kb_index_test includes the lookups-race-appends k-d tree oracle case;
    # tree_histogram_test races the lazy Dataset::Binned() cache against
    # parallel forest workers sharing one binned view. interpret_test runs
    # permutation importance for every learner on a 4-thread pool
    # (concurrent const Predict calls on one shared model); ensemble_test
    # predicts through ensembles that share a member from four threads.
    "$BUILD_DIR"/tests/kb_concurrency_test
    "$BUILD_DIR"/tests/tree_histogram_test
    "$BUILD_DIR"/tests/interpret_test
    "$BUILD_DIR"/tests/ensemble_test
    "$BUILD_DIR"/tests/kb_index_test
    "$BUILD_DIR"/tests/rest_concurrency_test
    "$BUILD_DIR"/tests/events_test
    "$BUILD_DIR"/tests/multitenant_test
    "$BUILD_DIR"/tests/obs_test
    "$BUILD_DIR"/tests/pool_test
    "$BUILD_DIR"/tests/recovery_test
    ;;
  *)
    # The restart tests each tear a JobManager down around a running blocker
    # job; repeat them so a return of a shutdown/dispatch race fails the gate
    # instead of passing on a lucky schedule.
    (cd "$BUILD_DIR" && ctest -R RecoveryTest --repeat until-fail:5 \
      --output-on-failure -j"$(nproc)")
    # Live-server smokes: /v1/metrics must serve valid Prometheus exposition
    # with the request counter advancing and the span tree attached to a
    # completed run, and the multi-tenant surface (batch admission, quota
    # 429s, SSE event streams) must conform end to end. A missing
    # interpreter must fail the gate, not silently skip it.
    command -v python3 > /dev/null 2>&1 || {
      echo "tier1: python3 is required for the smoke tests" >&2
      exit 1
    }
    python3 scripts/metrics_smoke.py "$BUILD_DIR"/examples/rest_server
    python3 scripts/api_conformance.py "$BUILD_DIR"/examples/rest_server
    ;;
esac

# Fault-injection leg (both flavours): deterministic failure handling plus
# the kill-mid-save KB recovery path driven through SMARTML_FAULT, and the
# kill-9-the-server job-journal recovery path (queued jobs re-run, the
# mid-flight run resumes from its tuner checkpoint). Sanitizer builds run
# the recovered tuning loop ~15x slower, so give the smoke a bigger poll
# budget there (iterations of 0.2s).
if [ -n "$SANITIZE" ]; then
  SMARTML_SMOKE_WAIT_ITERS="${SMARTML_SMOKE_WAIT_ITERS:-3000}"
  export SMARTML_SMOKE_WAIT_ITERS
fi
"$BUILD_DIR"/tests/fault_tolerance_test
scripts/kb_recovery_smoke.sh "$BUILD_DIR"
scripts/crash_recovery_smoke.sh "$BUILD_DIR"
