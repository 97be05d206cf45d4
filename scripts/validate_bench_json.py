#!/usr/bin/env python3
"""Validates the BENCH_*.json files the benchmark binaries emit.

A valid file is a JSON object with a string "benchmark" name, a "machine"
record of the host it ran on ({"nproc": positive integer, "build_type":
non-empty string}), and at least one non-empty array of flat sample records;
every record field must be a finite number, a string, or a boolean.  Known
reports additionally carry required arrays and record fields
(BENCH_replication.json must show the scaling sweep, the faulted run, and
the acceptance gates).  Exits non-zero (failing the check_bench /
check_repl targets) on the first malformed file.
"""
import json
import math
import sys

# Per-benchmark schema: array key -> fields every record must carry.
REQUIRED_ARRAYS = {
    "bench_queries_access_paths": {
        "samples": ["workload", "table_rows", "indexed", "ns_per_op",
                    "rows_examined_per_op", "rows_emitted_per_op"],
        "join_samples": ["workload", "fact_rows", "cost_based", "ns_per_op",
                         "rows_examined_per_op", "index_probes_per_op"],
        "index_maintenance": ["operation", "table_rows", "samples", "p50_ns"],
        "index_memory": ["table_rows", "entries", "bytes_per_entry"],
        "row_memory": ["relation", "table_rows", "cells", "bytes_per_cell"],
        "gates": ["name", "value", "pass"],
    },
    "bench_propagation": {
        "convergence": ["config", "flaky_permille", "seed", "hosts", "passes",
                        "converged", "soft_failures", "host_retries"],
        "quarantine": ["config", "passes", "attempts_on_down_host",
                       "breaker_opens", "breaker_skips", "probe_failures"],
        "consumer_memory": ["users", "credential_lines", "heap_bytes",
                            "bytes_per_line"],
        "full_generation": ["service", "users", "wall_ms", "match_calls"],
        "incremental": ["config", "users", "churn_per_pass", "passes",
                        "rows_examined", "bytes_shipped", "journal_entries",
                        "patch_ships", "patch_fallbacks", "full_regens",
                        "wall_ms", "oracle_files", "oracle_ok"],
        "gates": ["name", "value", "pass"],
    },
    "bench_quota": {
        "rollup": ["config", "users", "queries", "rows_examined", "wall_ms",
                   "mismatches"],
        "sweep": ["config", "rounds", "sweeps", "skipped", "applied",
                  "ingest_deduped", "flagged", "notices_expected",
                  "notices_fired", "missed", "duplicates"],
        "gates": ["name", "value", "pass"],
    },
    "bench_replication": {
        "scaling": ["replicas", "reads", "busiest_server_reads", "read_speedup_x",
                    "ryw_failures", "converged"],
        "faulted": ["replicas", "seed", "reads", "read_speedup_x", "max_lag",
                    "ryw_checks", "ryw_failures", "snapshot_loads", "converged"],
        "failover": ["rounds", "seed", "write_attempts", "acked_writes",
                     "lost_acked_writes", "elections_started", "promotions",
                     "epochs_observed", "split_brain_epochs",
                     "unique_final_primary", "converged"],
        "gates": ["name", "value", "pass"],
    },
}


def fail(msg):
    print("validate_bench_json: " + msg, file=sys.stderr)
    sys.exit(1)


def main(paths):
    if not paths:
        fail("no BENCH_*.json files to validate")
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            fail("%s: %s" % (path, e))
        if not isinstance(doc, dict) or not isinstance(doc.get("benchmark"), str):
            fail("%s: missing string 'benchmark' key" % path)
        machine = doc.get("machine")
        if not isinstance(machine, dict):
            fail("%s: missing 'machine' record" % path)
        nproc = machine.get("nproc")
        if isinstance(nproc, bool) or not isinstance(nproc, int) or nproc < 1:
            fail("%s: machine.nproc is not a positive integer" % path)
        build_type = machine.get("build_type")
        if not isinstance(build_type, str) or not build_type:
            fail("%s: machine.build_type is not a non-empty string" % path)
        arrays = [(k, v) for k, v in doc.items() if isinstance(v, list)]
        if not arrays:
            fail("%s: no sample arrays" % path)
        for key, rows in arrays:
            if not rows:
                fail("%s: sample array '%s' is empty" % (path, key))
            for i, row in enumerate(rows):
                if not isinstance(row, dict) or not row:
                    fail("%s: %s[%d] is not a record" % (path, key, i))
                for field, value in row.items():
                    if isinstance(value, bool):
                        continue
                    if isinstance(value, (int, float)):
                        if not math.isfinite(value):
                            fail("%s: %s[%d].%s is not finite" % (path, key, i, field))
                    elif not isinstance(value, str):
                        fail("%s: %s[%d].%s has type %s" %
                             (path, key, i, field, type(value).__name__))
        required = REQUIRED_ARRAYS.get(doc["benchmark"], {})
        for key, fields in required.items():
            rows = doc.get(key)
            if not isinstance(rows, list) or not rows:
                fail("%s: missing required array '%s'" % (path, key))
            for i, row in enumerate(rows):
                for field in fields:
                    if field not in row:
                        fail("%s: %s[%d] lacks required field '%s'" %
                             (path, key, i, field))
    print("validate_bench_json: %d file(s) OK" % len(paths))


if __name__ == "__main__":
    main(sys.argv[1:])
