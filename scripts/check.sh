#!/bin/sh
# Tier-1 test suite under AddressSanitizer + UndefinedBehaviorSanitizer, with
# asserts and libstdc++ assertions on (-UNDEBUG -D_GLIBCXX_ASSERTIONS, see
# CMakeLists.txt), and eight smoke modes.  Each mode is one row of the case table at the bottom:
# a default build tree and sanitizer, the targets to build, the test binaries
# to run whole, and a bench whose report paths run once (timing loops
# filtered out) in a fresh <build-dir>/<mode>-smoke.  The bench exits
# non-zero when one of its gates fails, and the BENCH_*.json it writes must
# validate.
#   bench     build, plain: test_db (with the index block-edge and cell
#             property tests) and test_join_consistency; bench_queries,
#             whose gates must pass: join plans (cost-based and naive
#             tuples per call equal on every join arm; join_selective_tail
#             reordered and examining >= 100x fewer rows than naive at 10k
#             and 100k; join_fanout not reordered), index upkeep, index
#             memory (<= 32 heap bytes per users index entry) and row
#             memory (<= 18 heap bytes per cell on users and on members,
#             at 10k and 100k rows).
#   fault     build-asan, ASan: bench_propagation at 10k users, where the
#             flaky fleet converges, and faster than the baseline, and the
#             full_generation gate holds (the NFS consumer memory gate does
#             not run: ASan hides the heap).
#   dcm       build, plain: test_update (with the keyed-patch splice's
#             property test against the Parse reference, and KeyedFile's
#             against a std::map model), test_dcm_incremental and
#             test_consumers (with the NFS credentials property test
#             against a std::map reference); bench_propagation at 100k
#             users, where journal deltas examine and ship >= 50x less and
#             patched fleets match a full regeneration byte for byte, one
#             NFS consumer on a 10k-user site holds 0 < x <= 32 heap bytes
#             per credentials line (consumer_memory), and one full HESIOD,
#             NFS and SMTP generation on that site make <= 200 Table::Match
#             calls together (full_generation).
#   repl      build-asan, ASan: test_repl, which delivers every log-window
#             rule as a push and, where a primary can serve it, as a fetch
#             reply, and pins the quorum gate's re-window; bench_replication,
#             with >= 3x read scaling under seeded faults, read-your-writes
#             and convergence.
#   failover  build-asan, ASan: test_failover; bench_replication, where the
#             failover sweep loses no acked write and has one primary per
#             epoch.  Then test_failover again under TSan (TSan and ASan
#             cannot share a build tree).
#   restore   build-asan, ASan: test_restore.  Then the data directory it
#             leaves behind replays through the offline mrrestore CLI, to a
#             mid-history seq and to the end.
#   quota     build-asan, ASan: test_quota.  Then bench_quota in a plain
#             build (its 100k-user rollup arm is too slow under the
#             sanitizers): get_quota_status, summing quotausage rows through
#             their indexes, examines >= 50x fewer rows than a full scan,
#             and the seeded-fault sweep fires every expected notice
#             exactly once.
#   tsan      build-tsan, TSan: test_tcp, whose clients run on other threads
#             than the server's poll loop.
# Usage: scripts/check.sh [build-dir]                   (default: build-asan)
#        scripts/check.sh --bench-smoke [build-dir]     (default: build)
#        scripts/check.sh --dcm-smoke [build-dir]       (default: build)
#        scripts/check.sh --failover-smoke [build-dir] [tsan-build-dir]
#                                          (defaults: build-asan, build-tsan)
#        scripts/check.sh --fault-smoke [build-dir]     (default: build-asan)
#        scripts/check.sh --quota-smoke [build-dir] [plain-build-dir]
#                                          (defaults: build-asan, build)
#        scripts/check.sh --repl-smoke [build-dir]      (default: build-asan)
#        scripts/check.sh --restore-smoke [build-dir]   (default: build-asan)
#        scripts/check.sh --tsan-smoke [build-dir]      (default: build-tsan)
set -e
cd "$(dirname "$0")/.."

# build <dir> <sanitizer: "" (plain), ON or thread> <target>...
build() {
  dir=$1
  sanitize=$2
  shift 2
  cmake -B "$dir" -S . ${sanitize:+-DMOIRA_SANITIZE=$sanitize} >/dev/null
  cmake --build "$dir" -j --target "$@"
}

# bench <dir> <mode> <bench> [VAR=value]: the bench's report paths in a
# fresh <dir>/<mode>-smoke, then the BENCH_*.json they wrote is validated.
bench() {
  smoke="$1/$2-smoke"
  bin="$(pwd)/$1/bench/$3"
  rm -rf "$smoke"
  mkdir -p "$smoke"
  (cd "$smoke" && env $4 "$bin" --benchmark_filter='^$')
  python3 scripts/validate_bench_json.py "$smoke"/BENCH_*.json
}

# row <default-build-dir> <sanitizer> <targets> <tests> <bench> [bench-env]
row() {
  BUILD_DIR="${ARG_DIR:-$1}"
  build "$BUILD_DIR" "$2" $3
  for t in $4; do
    "$BUILD_DIR"/tests/"$t"
  done
  if [ -n "$5" ]; then
    bench "$BUILD_DIR" "$MODE" "$5" "$6"
  fi
}

MODE="${1#--}"
MODE="${MODE%-smoke}"
ARG_DIR="$2"
case "$1" in
  --bench-smoke)
    row build "" "bench_queries test_db test_join_consistency" \
      "test_db test_join_consistency" bench_queries ;;
  --fault-smoke)
    row build-asan ON bench_propagation "" bench_propagation \
      MOIRA_BENCH_INCREMENTAL_MAX_USERS=10000 ;;
  --dcm-smoke)
    row build "" "bench_propagation test_update test_dcm_incremental test_consumers" \
      "test_update test_dcm_incremental test_consumers" \
      bench_propagation MOIRA_BENCH_INCREMENTAL_MAX_USERS=100000 ;;
  --repl-smoke)
    row build-asan ON "test_repl bench_replication" test_repl bench_replication ;;
  --failover-smoke)
    row build-asan ON "test_failover bench_replication" test_failover \
      bench_replication
    TSAN_DIR="${3:-build-tsan}"
    build "$TSAN_DIR" thread test_failover
    "$TSAN_DIR"/tests/test_failover ;;
  --restore-smoke)
    row build-asan ON "test_restore mrrestore" test_restore ""
    PIT_DIR="${TMPDIR:-/tmp}/moira-test/restore-pit"
    if [ ! -d "$PIT_DIR" ]; then
      echo "restore-smoke: missing $PIT_DIR (test_restore should have left it)" >&2
      exit 1
    fi
    "$BUILD_DIR"/examples/mrrestore "$PIT_DIR" --to-seq 5 >/dev/null
    "$BUILD_DIR"/examples/mrrestore "$PIT_DIR" --dump >/dev/null
    echo "restore-smoke: ok" ;;
  --quota-smoke)
    row build-asan ON test_quota test_quota ""
    PLAIN_DIR="${3:-build}"
    build "$PLAIN_DIR" "" bench_quota
    bench "$PLAIN_DIR" quota bench_quota ;;
  --tsan-smoke)
    row build-tsan thread test_tcp test_tcp "" ;;
  *)
    BUILD_DIR="${1:-build-asan}"
    cmake -B "$BUILD_DIR" -S . -DMOIRA_SANITIZE=ON
    cmake --build "$BUILD_DIR" -j
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j ;;
esac
