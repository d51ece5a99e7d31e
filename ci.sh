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

# _GLIBCXX_ASSERTIONS adds libstdc++'s precondition checks (bounds of
# operator[], std::clamp's lo <= hi, ...) to the sanitizer stage. Both
# sanitizer builds treat a compiler warning (-Wall -Wextra) as an error.
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS -Werror" \
  -DFEDGTA_SANITIZE=ON
cmake --build "$BUILD_DIR" -j"$JOBS"

# The kernels start on 64-byte boundaries (aligned(64) in
# src/linalg/backend_reference.cc and backend_simd.cc), so code added
# elsewhere cannot shift them against cache lines and move kernel-bound
# timings. Check all eight GEMM/SpMM/GatherDots/Axpy entry points (four
# reference kernels, four simd AVX2 kernels) in the library and in a
# binary linking it; a `[clone .cold]` part the compiler splits off is not
# an entry point.
check_kernel_alignment() {
  local file=$1 found=0 addr name
  while read -r addr name; do
    found=$((found + 1))
    if (( 16#$addr % 64 != 0 )); then
      echo "kernel not 64-byte aligned in $file: $name at 0x$addr" >&2
      return 1
    fi
  done < <(nm -C --defined-only "$file" |
    awk '$2 ~ /^[Tt]$/ && $0 !~ /\[clone / && $3 ~ /^fedgta::linalg::internal::(Reference(GemmRows|SpmmRows|GatherDots|Axpy)|Simd(GemmRows|SpmmRows|GatherDots|Axpy)Avx2)\(/ { print $1, $3 }')
  if (( found != 8 )); then
    echo "expected 8 kernels in $file, found $found" >&2
    return 1
  fi
  echo "kernels 64-byte aligned in $file"
}
check_kernel_alignment "$BUILD_DIR/src/libfedgta_linalg.a"
check_kernel_alignment "$BUILD_DIR/tests/linalg_test"

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

# The golden digests again, with glibc told the host has no AVX2 or FMA:
# its libm then takes the code paths of such a host (software fmaf, other
# exp/log variants; cpuid is unchanged, so the AVX2 kernels still run).
echo "== golden digests under GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4 =="
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4 \
  "$BUILD_DIR/tests/golden_digest_test"

# Every kernel backend must pass the fast tier, not just the default one:
# FEDGTA_BACKEND is read at first dispatch, so the same binaries re-run
# with each backend selected (see src/linalg/backend.h).
for backend in reference simd; do
  echo "== fast tier under FEDGTA_BACKEND=$backend =="
  FEDGTA_BACKEND="$backend" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -j"$JOBS" -L fast
done

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  cmake -B "$TSAN_BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror \
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
