#!/bin/sh
# Tier-1 test suite under AddressSanitizer + UndefinedBehaviorSanitizer,
# plus a bench smoke mode that runs the report-generating benchmark once
# (microbenchmarks filtered out) and fails on malformed BENCH_*.json, plus a
# fault smoke mode that replays the deterministic flaky-fleet sweep under the
# sanitizers and fails if the resilience layer stops converging the fleet,
# plus a replication smoke mode that runs the journal-shipping
# replication workload under the sanitizers and fails unless its scaling,
# read-your-writes, and convergence gates hold, plus a TSan smoke mode that
# builds the concurrency tests (worker pool, chunked parallel scans and
# concurrent readers, server batch dispatch) under ThreadSanitizer and runs
# them.
# A restore smoke mode exercises the checkpoint/changelog lifecycle
# (checkpoint -> rotate -> truncate -> restart -> replica bootstrap under the
# seeded fault plan) under the sanitizers and replays a recorded data
# directory through the offline mrrestore CLI.
# A DCM smoke mode runs the incremental-propagation sweep (full regeneration
# vs journal-delta patch shipping at 100k users / 0.1% churn per pass) plus
# the dedicated incremental test binary, and fails unless the row/byte
# reduction and byte-identity gates hold.
# A quota smoke mode runs the hierarchical quota suite (ingest/rollup
# accounting, grace lifecycle, notice dedup, replica replay, dbck repair)
# under the sanitizers, then the bench_quota gates (rollup row reduction,
# seeded-fault sweep vs the notice oracle) in a plain build.
# A failover smoke mode runs the quorum-write + automatic-failover suite
# (elections, epoch fencing, router replay, the randomized
# partition/flap/crash sweep) under ASan+UBSan and again under TSan, plus the
# bench_replication failover gates (zero acked writes lost, automatic
# convergence, one primary per epoch).
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

if [ "$1" = "--tsan-smoke" ]; then
  BUILD_DIR="${2:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . -DMOIRA_SANITIZE=thread >/dev/null
  cmake --build "$BUILD_DIR" -j --target test_worker_pool --target test_parallel_reads
  # Both suites run whole: every test in them executes on several threads.
  "$BUILD_DIR"/tests/test_worker_pool
  "$BUILD_DIR"/tests/test_parallel_reads
  exit 0
fi

if [ "$1" = "--fault-smoke" ]; then
  BUILD_DIR="${2:-build-asan}"
  cmake -B "$BUILD_DIR" -S . -DMOIRA_SANITIZE=ON >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_propagation
  SMOKE_DIR="$BUILD_DIR/fault-smoke"
  rm -rf "$SMOKE_DIR"
  mkdir -p "$SMOKE_DIR"
  BENCH_BIN="$(pwd)/$BUILD_DIR/bench/bench_propagation"
  # The unmatchable filter skips the timing loops; the resilience report still
  # runs, writes BENCH_propagation.json, and exits non-zero if the flaky
  # fleet fails to converge (or converges no faster than the baseline).  The
  # incremental sweep is capped at 10k users here — the sanitizers make the
  # 100k full-regeneration arm too slow for a smoke; the full-size sweep is
  # the --dcm-smoke mode's job.
  (cd "$SMOKE_DIR" && MOIRA_BENCH_INCREMENTAL_MAX_USERS=10000 \
    "$BENCH_BIN" --benchmark_filter='^$')
  python3 scripts/validate_bench_json.py "$SMOKE_DIR"/BENCH_*.json
  exit 0
fi

if [ "$1" = "--dcm-smoke" ]; then
  BUILD_DIR="${2:-build}"
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_propagation --target test_dcm_incremental
  # The dedicated suite first: delta extraction, keyed patch shipping with
  # base-CRC fallback, truncation fallback, torn-write self-healing, the
  # randomized churn oracle, and replica-offloaded generation reads.
  "$BUILD_DIR"/tests/test_dcm_incremental
  SMOKE_DIR="$BUILD_DIR/dcm-smoke"
  rm -rf "$SMOKE_DIR"
  mkdir -p "$SMOKE_DIR"
  BENCH_BIN="$(pwd)/$BUILD_DIR/bench/bench_propagation"
  # The unmatchable filter skips the timing loops; the incremental sweep
  # still runs full vs journal-delta arms at 10k and 100k users and exits
  # non-zero unless incremental mode examines >= 50x fewer rows, ships
  # >= 50x fewer bytes, and the patched fleets match a fresh full
  # regeneration byte for byte under the seeded fault plan.
  (cd "$SMOKE_DIR" && MOIRA_BENCH_INCREMENTAL_MAX_USERS=100000 \
    "$BENCH_BIN" --benchmark_filter='^$')
  python3 scripts/validate_bench_json.py "$SMOKE_DIR"/BENCH_*.json
  exit 0
fi

if [ "$1" = "--quota-smoke" ]; then
  BUILD_DIR="${2:-build-asan}"
  cmake -B "$BUILD_DIR" -S . -DMOIRA_SANITIZE=ON >/dev/null
  cmake --build "$BUILD_DIR" -j --target test_quota
  # The dedicated suite: journalled ingest with per-machine sequence dedup,
  # rollup maintenance, limit validation, the grace lifecycle on the
  # simulated clock, exactly-one-notice under flapping, the dirty-bit sweep
  # skip, byte-identical replica replay, the seeded-fault telemetry oracle,
  # and dbck detection/repair of the quota invariants.
  "$BUILD_DIR"/tests/test_quota
  # The bench gates run in a plain build: the rollup arm ingests telemetry
  # for a 100k-user site, too slow under the sanitizers.
  PLAIN_DIR="${3:-build}"
  cmake -B "$PLAIN_DIR" -S . >/dev/null
  cmake --build "$PLAIN_DIR" -j --target bench_quota
  SMOKE_DIR="$PLAIN_DIR/quota-smoke"
  rm -rf "$SMOKE_DIR"
  mkdir -p "$SMOKE_DIR"
  BENCH_BIN="$(pwd)/$PLAIN_DIR/bench/bench_quota"
  # The unmatchable filter skips the timing loops; the report still runs,
  # writes BENCH_quota.json, and exits non-zero unless the rollups examine
  # >= 50x fewer rows than the full-scan baseline (agreeing on every answer)
  # and the seeded-fault sweep fires every oracle-expected hard-limit notice
  # exactly once.
  (cd "$SMOKE_DIR" && "$BENCH_BIN" --benchmark_filter='^$')
  python3 scripts/validate_bench_json.py "$SMOKE_DIR"/BENCH_*.json
  exit 0
fi

if [ "$1" = "--repl-smoke" ]; then
  BUILD_DIR="${2:-build-asan}"
  cmake -B "$BUILD_DIR" -S . -DMOIRA_SANITIZE=ON >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_replication
  SMOKE_DIR="$BUILD_DIR/repl-smoke"
  rm -rf "$SMOKE_DIR"
  mkdir -p "$SMOKE_DIR"
  BENCH_BIN="$(pwd)/$BUILD_DIR/bench/bench_replication"
  # The unmatchable filter skips the timing loops; the replication report
  # still runs, writes BENCH_replication.json, and exits non-zero unless the
  # read-scaling (>= 3x with 4 replicas under seeded faults), read-your-writes,
  # and byte-identical-convergence gates all hold.
  (cd "$SMOKE_DIR" && "$BENCH_BIN" --benchmark_filter='^$')
  python3 scripts/validate_bench_json.py "$SMOKE_DIR"/BENCH_*.json
  exit 0
fi

if [ "$1" = "--failover-smoke" ]; then
  BUILD_DIR="${2:-build-asan}"
  cmake -B "$BUILD_DIR" -S . -DMOIRA_SANITIZE=ON >/dev/null
  cmake --build "$BUILD_DIR" -j --target test_failover --target bench_replication
  # The dedicated suite: the quorum gate and its degraded modes, heartbeat
  # elections with pre-vote and epoch fencing (split-brain regressions),
  # asymmetric partitions, torn quorum pushes, tagged router replay, DCM
  # offload over a cluster replica, and the randomized partition/flap/crash
  # sweep against the lost-acked-write oracle.
  "$BUILD_DIR"/tests/test_failover
  SMOKE_DIR="$BUILD_DIR/failover-smoke"
  rm -rf "$SMOKE_DIR"
  mkdir -p "$SMOKE_DIR"
  BENCH_BIN="$(pwd)/$BUILD_DIR/bench/bench_replication"
  # The unmatchable filter skips the timing loops; the report still runs the
  # failover sweep and exits non-zero unless zero acked writes were lost,
  # failover converged without operator action, and every epoch had exactly
  # one writable primary.
  (cd "$SMOKE_DIR" && "$BENCH_BIN" --benchmark_filter='^$')
  python3 scripts/validate_bench_json.py "$SMOKE_DIR"/BENCH_*.json
  # The same suite again under ThreadSanitizer (TSan and ASan cannot share a
  # build tree, hence the second one).
  TSAN_DIR="${3:-build-tsan}"
  cmake -B "$TSAN_DIR" -S . -DMOIRA_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_DIR" -j --target test_failover
  "$TSAN_DIR"/tests/test_failover
  exit 0
fi

if [ "$1" = "--restore-smoke" ]; then
  BUILD_DIR="${2:-build-asan}"
  cmake -B "$BUILD_DIR" -S . -DMOIRA_SANITIZE=ON >/dev/null
  cmake --build "$BUILD_DIR" -j --target test_restore --target mrrestore
  # The full lifecycle suite: segment rotation and on-disk truncation
  # invariants, crash-safe checkpoint writes, recovery (including the
  # gapped-tail refusal and base_seq restoration), point-in-time replay
  # against reference dumps, and the end-to-end checkpoint -> rotate ->
  # truncate -> restart -> replica bootstrap flow under seeded faults.
  "$BUILD_DIR"/tests/test_restore
  # The point-in-time test leaves its data directory behind; replay it
  # through the offline CLI to a mid-history seq and to the end, exercising
  # the same recovery code path an operator would run.
  PIT_DIR="${TMPDIR:-/tmp}/moira-test/restore-pit"
  if [ -d "$PIT_DIR" ]; then
    "$BUILD_DIR"/examples/mrrestore "$PIT_DIR" --to-seq 5 >/dev/null
    "$BUILD_DIR"/examples/mrrestore "$PIT_DIR" --dump >/dev/null
  else
    echo "restore-smoke: missing $PIT_DIR (test_restore should have left it)" >&2
    exit 1
  fi
  echo "restore-smoke: ok"
  exit 0
fi

if [ "$1" = "--bench-smoke" ]; then
  BUILD_DIR="${2:-build}"
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j --target bench_queries
  SMOKE_DIR="$BUILD_DIR/bench-smoke"
  rm -rf "$SMOKE_DIR"
  mkdir -p "$SMOKE_DIR"
  BENCH_BIN="$(pwd)/$BUILD_DIR/bench/bench_queries"
  # An unmatchable filter skips the timing loops but still runs the report
  # paths, which write BENCH_*.json into the working directory.
  (cd "$SMOKE_DIR" && "$BENCH_BIN" --benchmark_filter='^$')
  python3 scripts/validate_bench_json.py "$SMOKE_DIR"/BENCH_*.json
  exit 0
fi

BUILD_DIR="${1:-build-asan}"
cmake -B "$BUILD_DIR" -S . -DMOIRA_SANITIZE=ON
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j
