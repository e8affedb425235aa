#!/usr/bin/env bash
# Builds and runs the tier-1 test suite under AddressSanitizer(+UBSan) and
# ThreadSanitizer, using the IMRM_SANITIZE cache option the root CMakeLists
# already exposes. Each sanitizer gets its own build tree so the
# instrumented objects never mix with the regular build (or each other).
#
# Usage: tools/run_sanitizers.sh [asan|tsan|checkpoint|ubsan-checkpoint|shard|serve|scale|adapt|netpath|campus|sim|all]
#        (default: all)
#        checkpoint = asan+ubsan over the `checkpoint`-labelled tests only —
#        the serialization/restore code paths (fast: one instrumented tree,
#        a handful of tests).
#        ubsan-checkpoint = undefined-behaviour sanitizer alone over the
#        `checkpoint` label — the strict binary parsers (checkpoint restore
#        and the serve wire codec share the discipline), where UB would mean
#        a malformed byte stream escaped the typed-error path.
#        shard = tsan over the `shard`-labelled tests only — the ShardedRunner
#        worker pool and everything that runs on it (the suite whose data
#        races tsan can actually see).
#        serve = tsan over the `serve`-labelled tests only — the SPSC ring's
#        acquire/release handshake and the two-thread wall-pacing service
#        loop (ISSUE 8).
#        scale = asan+ubsan over the `scale`-labelled tests only — the grid
#        campus engine (milestone arena, per-cell resident rows and
#        reservation flat maps, swap-pop resident removal), where an
#        indexing bug would smear silently.
#        adapt = asan+ubsan over the `adapt`-labelled tests only — the
#        closed adaptation loop (ISSUE 9): the dual token-bucket shaper's
#        per-flow counter arithmetic, the controller's window harvesting,
#        and the campus loop's packet lambdas that capture per-stream state.
#        netpath = asan+ubsan over the `netpath` and `serve` labels — the
#        routed network path (memoized Router trees and out-link table,
#        NetworkState's id index with its lazily dropped dead ids, the
#        connection table's per-hop buffers that LinkState's Table 2 sums are
#        taken back from, multicast setup, max-min extraction, gated
#        reclassification, the randomized stress campaign and the link-sum
#        oracle) and the admission service on top of it. Router hands
#        out references into a memo that is reset
#        when the topology grows; a dangling one would corrupt routes
#        silently, which is what asan catches.
#        campus = asan+ubsan over the `campus` label — the campus-day path:
#        the mobility manager's sorted resident index (portables_in hands
#        out a reference into a bucket that the next move edits), the
#        policies and dispatcher that walk it, their incremental refresh
#        and its oracle (reservation_refresh_oracle_test) with the pooled
#        share table, the profiles' slab-indexed windows (profiles_test,
#        prediction_test), the serial-indexed pending event table, its
#        strict checkpoint restore, the campus golden and the day's
#        allocation budget (campus_alloc_budget_test).
#        sim = asan+ubsan over the `sim` label — the discrete-event engine
#        (sim_test, engine_regression_test): the event queue's time buckets
#        are intrusive FIFOs threaded through slot metadata, with heap
#        back-pointers and two free lists, where a stale index would fire or
#        cancel the wrong event silently.
# Env:   CMAKE_ARGS  extra configure flags (e.g. -DCMAKE_CXX_COMPILER=clang++)
#        CTEST_ARGS  extra ctest flags (e.g. -R fault)
#
# Opt-in ctest wiring: configure with -DIMRM_SANITIZER_TESTS=ON and this
# script runs as the label-gated test `run_sanitizers` (ctest -L sanitize).
# It is OFF by default because each sanitizer implies a full extra build.
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
which=${1:-all}

run_one() {
  local name=$1 sanitizers=$2 extra_ctest=${3:-}
  # The checkpoint sweep reuses the asan tree — same instrumentation, smaller
  # test selection.
  local build_dir="$repo_root/build-${name%%-*}"
  echo "==> $name: configuring $build_dir (IMRM_SANITIZE=$sanitizers)"
  cmake -B "$build_dir" -S "$repo_root" \
    -DIMRM_SANITIZE="$sanitizers" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    ${CMAKE_ARGS:-} >/dev/null
  echo "==> $name: building"
  cmake --build "$build_dir" -j >/dev/null
  echo "==> $name: running tests"
  # Exclude this wrapper's own label to keep a sanitized tree from recursing.
  (cd "$build_dir" && ctest --output-on-failure -LE sanitize ${extra_ctest} ${CTEST_ARGS:-})
}

case "$which" in
  asan) run_one asan "address;undefined" ;;
  tsan) run_one tsan "thread" ;;
  checkpoint) run_one asan-checkpoint "address;undefined" "-L checkpoint" ;;
  ubsan-checkpoint) run_one ubsan-checkpoint "undefined" "-L checkpoint" ;;
  shard) run_one tsan-shard "thread" "-L shard" ;;
  serve) run_one tsan-serve "thread" "-L serve" ;;
  scale) run_one asan-scale "address;undefined" "-L scale" ;;
  adapt) run_one asan-adapt "address;undefined" "-L adapt" ;;
  netpath) run_one asan-netpath "address;undefined" "-L netpath|serve" ;;
  campus) run_one asan-campus "address;undefined" "-L campus" ;;
  sim) run_one asan-sim "address;undefined" "-L sim" ;;
  all)
    run_one asan "address;undefined"
    run_one tsan "thread"
    ;;
  *)
    echo "usage: tools/run_sanitizers.sh [asan|tsan|checkpoint|ubsan-checkpoint|shard|serve|scale|adapt|netpath|campus|sim|all]" >&2
    exit 2
    ;;
esac
echo "==> sanitizer suites passed"
