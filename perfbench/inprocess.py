"""Closed-loop runner shared by the two in-process workloads.

One caller sends the next request only when the previous one returned.
A workload supplies a list of *groups* (one request per group on
paper-small, one three-instance cycle on metro-large); the runner runs
whole groups until ``seconds`` of wall time have passed, timing only the
call into the program (``repro.engine.core.solve``) and checking each
answer after the clock stops.

In a traced run the same groups run twice on freshly generated inputs
with cold caches: first untraced, then traced, so the difference is the
tracing overhead and the traced half gives the per-layer split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from common import (
    Outcome, digest, median, own_peak_rss_mb, ratio, registry_delta,
    registry_snapshot, tail, tail_text, timed, value_token,
)
from layers import layer_metrics

#: How many times set-up runs per run; ``setup_s`` is their median.
SETUP_REPEATS = 7


@dataclass
class Op:
    """One request: the engine request plus what its check needs."""

    request: Any
    kind: str
    origin: Optional[int] = None  # index of the original for repeats
    meta: Dict[str, Any] = field(default_factory=dict)
    cell: str = ""  # stratum of the planned mix; defaults to ``kind``

    def __post_init__(self) -> None:
        self.cell = self.cell or self.kind


@dataclass
class Phase:
    latencies: List[float] = field(default_factory=list)
    quality: List[float] = field(default_factory=list)
    values: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    groups: int = 0
    wall_s: float = 0.0
    delta: Dict[str, float] = field(default_factory=dict)
    cached: Dict[str, List[bool]] = field(default_factory=dict)
    by_kind: Dict[str, List[float]] = field(default_factory=dict)
    by_cell: Dict[str, List[float]] = field(default_factory=dict)
    mix: Dict[str, float] = field(default_factory=dict)
    p50_by_cell: bool = False

    def _weights(self) -> Dict[str, float]:
        """Planned share of each visited cell, renormalized over them."""
        total = sum(self.mix[c] for c in self.by_cell)
        return {c: self.mix[c] / total for c in self.by_cell}

    @property
    def throughput(self) -> float:
        """Solves per second at the planned mix.

        Each cell contributes its median latency at its planned share, so
        neither which cells a time-bounded run happened to reach nor one
        unusually slow instance moves the figure.
        """
        weights = self._weights()
        return ratio(1.0, sum(w * median(self.by_cell[c]) for c, w in weights.items()))

    @property
    def p50_ms(self) -> float:
        """Median latency of the planned mix.

        With ``by_cell`` each cell stands at its own median latency (for a
        mix of a few cells of very different cost, whose plain median falls
        on the boundary between two cells); otherwise every sample counts
        with its cell's planned share divided by the cell's sample count.
        Either way the result is the latency at which the shares first
        reach one half.
        """
        weights = self._weights()
        if self.p50_by_cell:
            points = sorted((median(ts), weights[c]) for c, ts in self.by_cell.items())
        else:
            points = sorted((t, weights[c] / len(ts))
                            for c, ts in self.by_cell.items() for t in ts)
        seen = 0.0
        for latency, weight in points:
            seen += weight
            if seen >= 0.5 - 1e-9:
                return 1000.0 * latency
        return 0.0


def run_groups(
    groups: Callable[[int], Optional[List[Op]]],
    check: Callable[[Op, Any, Dict[int, float], Outcome], Optional[float]],
    outcome: Outcome,
    seconds: float,
    mix: Dict[str, float],
    p50_by_cell: bool,
    max_groups: Optional[int] = None,
    tracer=None,
) -> Phase:
    """Run groups ``0, 1, ...`` until time or ``max_groups`` runs out."""
    from repro.engine import core

    phase = Phase(mix=mix, p50_by_cell=p50_by_cell)
    before = registry_snapshot()
    values: Dict[int, float] = {}
    index = 0
    start = time.perf_counter()
    while max_groups is None or phase.groups < max_groups:
        if max_groups is None and time.perf_counter() - start >= seconds:
            break
        ops = groups(phase.groups)
        if ops is None:
            break
        for op in ops:
            phase.attempted += 1
            try:
                if tracer is not None:
                    with tracer.request(index):
                        t0 = time.perf_counter()
                        report = core.solve(op.request)
                        t1 = time.perf_counter()
                else:
                    t0 = time.perf_counter()
                    report = core.solve(op.request)
                    t1 = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 - counted, not hidden
                phase.failed += 1
                outcome.check(False, f"request {index} ({op.kind}) raised "
                                     f"{type(exc).__name__}: {exc}")
                index += 1
                continue
            quality = check(op, report, values, outcome)
            if quality is None:
                phase.failed += 1
            else:
                phase.latencies.append(t1 - t0)
                phase.quality.append(quality)
                phase.values.append(value_token(report.value))
                phase.cached.setdefault(op.kind, []).append(bool(report.cached))
                phase.by_kind.setdefault(op.kind, []).append(t1 - t0)
                phase.by_cell.setdefault(op.cell, []).append(t1 - t0)
            values[index] = float(report.value)
            index += 1
        # Drop this group's inputs and answers before the next group is
        # generated, so peak memory holds one group at a time.
        ops = op = report = None
        phase.groups += 1
    phase.wall_s = time.perf_counter() - start
    phase.delta = registry_delta(before, registry_snapshot())
    return phase


def setup_repeated(make: Callable[[], Any], fingerprint: Callable[[Any], str],
                   outcome: Outcome, repeats: int = SETUP_REPEATS):
    """Run set-up ``repeats`` times; return (median seconds, last result).

    Every repeat must produce inputs with the same digest: the same seed
    gives the same inputs.
    """
    times: List[float] = []
    digests = set()
    result = None
    for _ in range(repeats):
        seconds, result = timed(make)
        times.append(seconds)
        digests.add(fingerprint(result))
    outcome.check(len(digests) == 1, "set-up repeats produced different inputs")
    outcome.notes["setup_repeats_s"] = times
    outcome.notes["input_digest"] = next(iter(digests))
    return median(times), result


def fill_outcome(outcome: Outcome, phase: Phase, setup_s: float) -> None:
    """End-to-end metrics of a closed-loop phase (see ``spec.E2E``)."""
    outcome.attempted = phase.attempted
    outcome.failed = phase.failed
    p50 = phase.p50_ms
    rss = own_peak_rss_mb()
    outcome.e2e = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (phase.throughput, "ops/s"),
        "solve_p50_ms": (p50, "ms"),
        # One caller, closed loop: every request is alone in flight.
        "lone_p50_ms": (p50, "ms"),
        "quality_ratio": (sum(phase.quality) / len(phase.quality)
                          if phase.quality else 0.0, "ratio"),
        "success_rate": (1.0 - ratio(phase.failed, phase.attempted), "share"),
        "peak_rss_mb": (max(rss), "MiB"),
    }
    outcome.notes["peak_rss_mb"] = {"self": rss[0], "largest_child": rss[1]}
    outcome.notes["extra_e2e"] = {
        "solve_tail_ms": tail_text(tail([1000.0 * s for s in phase.latencies]),
                                   len(phase.latencies)),
        "error_rate": f"{ratio(phase.failed, phase.attempted):.6g} share",
    }
    outcome.notes.update({
        "solves": len(phase.latencies),
        "groups": phase.groups,
        "wall_s": phase.wall_s,
        "output_digest": digest(phase.values),
        "cached_by_kind": {k: {"hits": sum(v), "of": len(v)}
                           for k, v in phase.cached.items()},
        "p50_ms_by_kind": {k: 1000.0 * median(v) for k, v in phase.by_kind.items()},
        "cells_visited": f"{len(phase.by_cell)} of {len(phase.mix)}",
        "counters": {k: v for k, v in phase.delta.items() if v},
    })


def run_closed_loop(
    make_groups: Callable[[], Callable[[int], Optional[List[Op]]]],
    mix: Dict[str, float],
    p50_by_cell: bool,
    input_digest: Callable[[Any], str],
    check: Callable,
    warm_up: Callable[[], None],
    seconds: float,
    trace: bool,
    outcome: Outcome,
    spans_path: str,
) -> Outcome:
    """Set up, measure, and (traced) measure again with spans."""
    from repro.engine import clear_caches

    def setup():
        groups = make_groups()
        warm_up()
        return groups

    setup_s, groups = setup_repeated(setup, input_digest, outcome)
    clear_caches()
    untraced = run_groups(groups, check, outcome,
                          seconds / 2 if trace else seconds, mix, p50_by_cell)
    fill_outcome(outcome, untraced, setup_s)
    if not trace:
        return outcome

    from tracing import Tracer

    clear_caches()
    groups = make_groups()
    tracer = Tracer().install()
    try:
        traced = run_groups(groups, check, outcome, seconds, mix, p50_by_cell,
                            max_groups=untraced.groups, tracer=tracer)
    finally:
        tracer.uninstall()
    outcome.attempted += traced.attempted
    outcome.failed += traced.failed
    tracer.write(spans_path)
    outcome.layer = layer_metrics(traced.delta, tracer, {
        "trace.throughput_delta_ops_s": traced.throughput - untraced.throughput,
        "trace.p50_delta_ms": traced.p50_ms - untraced.p50_ms,
    })
    outcome.notes["self_time_by_span"] = tracer.self_times()
    outcome.notes["self_time_by_layer"] = tracer.layer_self_times()
    outcome.notes["spans"] = {"path": spans_path, "count": len(tracer.spans),
                              "names": tracer.layers_seen()}
    outcome.notes["traced_counters"] = {k: v for k, v in traced.delta.items() if v}
    return outcome


def upper_bound(instance) -> float:
    """The proven bound ``obs/bench.py`` reports quality against:
    ``combined_upper_bound`` for angle instances, the capacity/density
    bound for sector instances."""
    from repro.obs.bench import _upper_bound

    return float(_upper_bound(instance))


def check_solution(op: Op, report, values: Dict[int, float], outcome: Outcome,
                   bound: float, instance) -> Optional[float]:
    """Shared output checks; returns value / upper bound, or None on failure."""
    label = f"{op.kind} request"
    ok = outcome.check(report.error is None and report.solution is not None,
                       f"{label}: no solution ({report.error})")
    if not ok:
        return None
    try:
        report.solution.verify(instance)
    except Exception as exc:  # noqa: BLE001 - any verify failure is a wrong answer
        outcome.check(False, f"{label}: verify failed: {exc}")
        return None
    value = float(report.value)
    recomputed = float(report.solution.value(instance))
    ok = outcome.check(abs(recomputed - value) <= 1e-9 * max(1.0, abs(value)),
                       f"{label}: reported value {value} != solution value {recomputed}")
    ok &= outcome.check(value <= bound * (1 + 1e-9) + 1e-9,
                        f"{label}: value {value} exceeds upper bound {bound}")
    if op.origin is not None and op.origin in values:
        ok &= outcome.check(
            value == values[op.origin],
            f"{label}: repeat returned {value}, original {values[op.origin]}"
            f" (cached={report.cached})")
    if not ok:
        return None
    return ratio(value, bound)
