"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is the contract the runner
reads; this module is the record behind it.  The self-test
(``perfbench/selftest.py``) checks that both name the same workloads and
metrics with the same units.

Each per-layer metric names the end-to-end metric it should move and on
which workload (``moves``), and where it should stay put (``still``), so
a later change to one layer can be checked against a prediction written
down before the change.
"""

from __future__ import annotations

#: name -> why, as in ``BENCHMARK.json``: why the workload was chosen and
#: whether its loop is open or closed, with its rate or caller count.
WORKLOADS = {
    "paper-small": (
        "Closed loop, 1 caller: paper-scale angle solves (n 20-60, k "
        "2-4, 4 algorithms, exact/FPTAS oracles, 20% repeats); knapsack "
        "oracle and rotation scan dominate."
    ),
    "metro-large": (
        "Closed loop, 1 caller: fresh n=1e5 angle greedy+ls, n=1e6 "
        "metro and n=1e5 scenario sector solves; compile, local search, "
        "partition, pool, constraints, verify."
    ),
    "service-mixed": (
        "Open loop, Poisson 30 req/s on 1 connection to serve --workers "
        "1: 85% small solves, 15% delta-session events; batcher, "
        "protocol, supervisor, worker IPC."
    ),
}

#: name -> (unit, better).  Only metrics defined and non-zero on every
#: workload are gated end-to-end metrics; the other whole-path numbers
#: are recorded per run (see ``EXTRA_E2E``).
E2E = {
    "setup_s": ("s", "lower"),
    "throughput_ops_s": ("ops/s", "higher"),
    "solve_p50_ms": ("ms", "lower"),
    "lone_p50_ms": ("ms", "lower"),
    "quality_ratio": ("ratio", "higher"),
    "success_rate": ("share", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Whole-path numbers recorded in the results file and printed, but not
#: gated: each is missing, zero or too noisy on at least one workload.
EXTRA_E2E = {
    "solve_tail_ms": "needs 100+ solves; metro-large makes 12-18 per run",
    "event_p50_ms": "service-mixed only (no event ops elsewhere)",
    "event_tail_ms": "service-mixed only; ~90 event ops per run",
    "slo_attainment": "service-mixed only; 0 by construction on metro-large",
    "error_rate": "0 on every workload, so not a usable gate; "
                  "success_rate carries the same count",
}

#: name -> (unit, moves, still).
PER_LAYER = {
    # knapsack
    "knapsack.oracle_calls": ("count", "throughput_ops_s, solve_p50_ms on paper-small", "~0 on metro-large"),
    "knapsack.oracle_s": ("s", "throughput_ops_s, solve_p50_ms on paper-small", "~0 on metro-large"),
    "knapsack.repeat_share": ("share", "bounds an oracle memo's gain on paper-small", "metro-large, service-mixed"),
    "knapsack.fptas_dp_cells": ("count", "solve_p50_ms on paper-small", "metro-large"),
    # packing
    "packing.rotation_s": ("s", "solve_p50_ms on paper-small", "service-mixed"),
    "packing.windows_visited_share": ("share", "solve_p50_ms on paper-small", "service-mixed"),
    "packing.candidate_windows": ("count", "base of windows_visited_share", "-"),
    "packing.local_search_s": ("s", "throughput_ops_s on metro-large (angle slice)", "small on paper-small, 0 on service-mixed"),
    "packing.self_s": ("s", "solve_p50_ms on paper-small, throughput_ops_s on metro-large", "service-mixed"),
    # core
    "core.compile_s": ("s", "throughput_ops_s on metro-large", "paper-small, service-mixed"),
    "core.compile_hit_ratio": ("share", "throughput_ops_s on metro-large", "paper-small"),
    "core.compile_lookups": ("count", "base of compile_hit_ratio", "-"),
    "core.backend_numpy_share": ("share", "throughput_ops_s on metro-large", "0 on paper-small"),
    "core.backend_solves": ("count", "base of backend_numpy_share", "-"),
    # model
    "model.constraints_s": ("s", "throughput_ops_s on metro-large (scenario slice)", "0 on paper-small, service-mixed"),
    # engine
    "engine.verify_s": ("s", "throughput_ops_s on metro-large", "paper-small"),
    "engine.cache_hit_ratio": ("share", "throughput_ops_s on paper-small", "metro-large"),
    "engine.cache_lookups": ("count", "base of cache_hit_ratio", "-"),
    "engine.partition_s": ("s", "throughput_ops_s on metro-large", "0 on paper-small, service-mixed"),
    "engine.partition_parts": ("count", "throughput_ops_s on metro-large", "0 on paper-small, service-mixed"),
    "engine.self_s": ("s", "solve_p50_ms on paper-small", "-"),
    # parallel
    "parallel.map_s": ("s", "throughput_ops_s on metro-large (metro slice)", "0 on paper-small"),
    "parallel.overhead_s": ("s", "throughput_ops_s on metro-large (metro slice)", "0 on paper-small"),
    "parallel.serial_retries": ("count", "throughput_ops_s on metro-large", "0 on paper-small"),
    "parallel.worker_failures": ("count", "throughput_ops_s on metro-large", "0 on paper-small"),
    # online
    "online.apply_ms": ("ms", "event_p50_ms on service-mixed", "0 elsewhere"),
    "online.resolve_ms": ("ms", "event_p50_ms on service-mixed", "0 elsewhere"),
    "online.invalidated_share": ("share", "event_p50_ms on service-mixed", "0 elsewhere"),
    "online.touched_keys": ("count", "base of invalidated_share", "-"),
    # service
    "service.overhead_ms": ("ms", "lone_p50_ms, solve_p50_ms on service-mixed", "0 in-process"),
    "service.server_p50_ms": ("ms", "solve_p50_ms on service-mixed", "0 in-process"),
    "service.worker_p50_ms": ("ms", "solve_p50_ms on service-mixed", "0 in-process"),
    "service.batch_size_mean": ("count", "solve_p50_ms on service-mixed", "0 in-process"),
    "service.cache_served_share": ("share", "solve_p50_ms on service-mixed", "0 in-process"),
    "service.requests": ("count", "base of cache_served_share", "-"),
    "service.dispatches": ("count", "must be > 0 on service-mixed", "0 in-process"),
    "service.degraded": ("count", "must be 0 on service-mixed", "0 in-process"),
    "service.redispatches": ("count", "solve_p50_ms on service-mixed", "0 in-process"),
    "service.shed": ("count", "success_rate on service-mixed", "0 in-process"),
    "service.expired": ("count", "success_rate on service-mixed", "0 in-process"),
    "service.generator_lag_ms": ("ms", "validity of the open loop on service-mixed", "0 in-process"),
    # tracing overhead (traced minus untraced on the same requests)
    "trace.throughput_delta_ops_s": ("ops/s", "-", "-"),
    "trace.p50_delta_ms": ("ms", "-", "-"),
}
