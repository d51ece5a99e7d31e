#!/usr/bin/env bash
# CI entry point: sanitizer builds + test suites.
#
#   ./ci.sh            # 1) ASan+UBSan build in build-asan/, full ctest
#                      # 2) TSan build in build-tsan/, threading-focused tests
#   BUILD_DIR=foo ./ci.sh
#   SKIP_TSAN=1 ./ci.sh      # ASan stage only
#   CTEST_LABEL=fast ./ci.sh # restrict the ctest stage to one label
#                            # (fast | slow | death, see tests/CMakeLists.txt)
#
# The sanitizer runs are observability for memory and threading bugs the way
# the metrics registry is observability for latency: every tier-1 test
# executes under AddressSanitizer and UndefinedBehaviorSanitizer, and the
# suites that exercise the parallel round executor, the async update queue,
# the TCP transport, and the observability plane (status socket, fleet
# metrics merge, cross-process trace stitching) additionally run under
# ThreadSanitizer. The TSan list is not hardcoded here: any test registered
# with the fast_tsan label (tests/CMakeLists.txt) is picked up by the
# `ctest -L tsan` selection automatically.
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR=${BUILD_DIR:-build-asan}
TSAN_BUILD_DIR=${TSAN_BUILD_DIR:-build-tsan}
JOBS=${JOBS:-$(nproc)}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFEDGTA_SANITIZE=ON
cmake --build "$BUILD_DIR" -j"$JOBS"

export ASAN_OPTIONS=detect_leaks=0   # intentional leaked singletons (logging, metrics)
export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1
CTEST_ARGS=(--output-on-failure -j"$JOBS")
if [[ -n "${CTEST_LABEL:-}" ]]; then
  CTEST_ARGS+=(-L "$CTEST_LABEL")
fi
ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}"

# ctest runs every test case in its own process, which hides state that
# leaks from one run into the next (process-wide metrics, the timeline,
# trace buffers). The round-loop suites therefore also run as one process
# each, so a second run in the same process must behave like the first.
for suite in fed_test async_test loopback_test hierarchy_test; do
  echo "== $suite as a single process =="
  "$BUILD_DIR/tests/$suite"
done

# Every kernel backend must pass the fast tier, not just the default one:
# FEDGTA_BACKEND is read at first dispatch, so the same binaries re-run
# with each backend selected (see src/linalg/backend.h).
for backend in reference blocked simd; do
  echo "== fast tier under FEDGTA_BACKEND=$backend =="
  FEDGTA_BACKEND="$backend" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -j"$JOBS" -L fast
done

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  cmake -B "$TSAN_BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFEDGTA_SANITIZE=thread
  cmake --build "$TSAN_BUILD_DIR" -j"$JOBS"

  export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
  # Force a multi-threaded pool so the round executor actually runs
  # clients concurrently under TSan, whatever the CI machine reports.
  export FEDGTA_NUM_THREADS=4
  # The threading-sensitive suites select themselves via the fast_tsan
  # ctest label — a new concurrency test only has to register with that
  # label to be raced under TSan here.
  ctest --test-dir "$TSAN_BUILD_DIR" -L tsan --output-on-failure -j"$JOBS"
fi
