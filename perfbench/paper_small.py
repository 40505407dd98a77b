"""paper-small: paper-scale angle solves, one caller, closed loop.

The request stream is a seeded schedule over a fixed grid of cells —
family x n x algorithm, visited in a fresh random order each round, with
``k`` stepping through 2, 3, 4 round by round — so every seed runs the
same mix and only the instance draws differ.  Oracles follow the
engine's eps rule: FPTAS (``eps=0.5``) for most requests, the exact
oracle (``eps=1.0``) at ``n = 20`` and on the integer ``subset_sum``
family.

Every fifth request repeats the content of an earlier original as a new
object: alternately one of the last ``NEAR_WINDOW`` requests, which the
256-entry result cache still holds, and one from ``FAR_MIN``-``FAR_MAX``
requests back, which ~300 distinct keys in between have evicted.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import replace
from typing import List, Optional

import numpy as np

from common import Outcome, digest
from inprocess import Op, check_solution, run_closed_loop, upper_bound

FAMILIES = ("uniform", "clustered", "hotspot", "mixed", "subset_sum")
SIZES = (20, 40, 60)
KS = (2, 3, 4)
ALGORITHMS = ("auto", "greedy", "adaptive", "greedy+ls")
FPTAS_EPS = 0.5
EXACT_EPS = 1.0
REPEAT_EVERY = 5
NEAR_WINDOW = 100
FAR_MIN, FAR_MAX = 400, 800
#: Schedule length: several times what one run completes.
SCHEDULE = {"full": 4000, "tiny": 120}


def _instance(family: str, n: int, k: int, rng: np.random.Generator):
    from repro.model.generators import ANGLE_FAMILIES

    kwargs = {"n": n, "seed": rng}
    if family != "mixed":  # mixed_antenna_angles fixes its three antennas
        kwargs["k"] = k
    return ANGLE_FAMILIES[family](**kwargs)


def _clone(instance):
    """Equal content, new object and new arrays (no per-object memo)."""
    from repro.model.instance import AngleInstance

    return AngleInstance(
        thetas=instance.thetas.copy(),
        demands=instance.demands.copy(),
        antennas=instance.antennas,
        profits=None if instance.profits is None else instance.profits.copy(),
    )


def build_schedule(seed: int, count: int) -> List[Op]:
    from repro.engine import SolveRequest

    rng = np.random.default_rng([seed, 1])
    cells = list(itertools.product(FAMILIES, SIZES, ALGORITHMS))
    ops: List[Op] = []
    originals: List[int] = []
    order: List[int] = []
    rounds = -1
    for i in range(count):
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            lo, hi = i - NEAR_WINDOW, i - 1
            kind = "repeat_near"
            if (i // REPEAT_EVERY) % 2 and i - FAR_MIN >= 0:
                lo, hi, kind = i - FAR_MAX, i - FAR_MIN, "repeat_far"
            a = bisect.bisect_left(originals, lo)
            b = bisect.bisect_right(originals, hi)
            if b > a:
                origin = originals[int(rng.integers(a, b))]
                src = ops[origin]
                ops.append(Op(
                    replace(src.request, instance=_clone(src.request.instance)),
                    kind, origin=origin, meta=src.meta,
                ))
                continue
        if not order:
            order = [int(c) for c in rng.permutation(len(cells))]
            rounds += 1
        family, n, algorithm = cells[order.pop()]
        k = KS[rounds % len(KS)]
        eps = EXACT_EPS if (n == 20 or family == "subset_sum") else FPTAS_EPS
        instance = _instance(family, n, k, rng)
        originals.append(i)
        ops.append(Op(
            SolveRequest(instance=instance, family="angle",
                         algorithm=algorithm, eps=eps),
            "original", cell=f"{family}/n{n}/{algorithm}",
        ))
    return ops


def _digest(ops: List[Op]) -> str:
    from repro.engine import fingerprint

    return digest(
        f"{fingerprint(op.request.instance)}|{op.request.algorithm}|"
        f"{op.request.eps}|{op.kind}|{op.origin}"
        for op in ops
    )


def _warm_up() -> None:
    """Import and first-call costs, paid once before any timed request."""
    from repro.engine import SolveRequest, solve

    rng = np.random.default_rng(12345)
    for family in FAMILIES:
        for eps in (FPTAS_EPS, EXACT_EPS):
            solve(SolveRequest(instance=_instance(family, 20, 2, rng),
                               family="angle", algorithm="greedy+ls", eps=eps))


def _check(op: Op, report, values, outcome: Outcome) -> Optional[float]:
    instance = op.request.instance
    if "ub" not in op.meta:
        op.meta["ub"] = upper_bound(instance)
    return check_solution(op, report, values, outcome, op.meta["ub"], instance)


def run(seed: int, seconds: float, trace: bool, size: str, spans_path: str) -> Outcome:
    outcome = Outcome()
    count = SCHEDULE[size]
    state = {}

    def make_groups():
        state["ops"] = ops = build_schedule(seed, count)
        return lambda g: [ops[g]] if g < len(ops) else None

    def input_digest(_groups) -> str:
        return _digest(state["ops"])

    # The planned mix: each cell's share of the whole schedule.
    cells = Counter(op.cell for op in build_schedule(seed, count))
    mix = {cell: n / count for cell, n in cells.items()}
    run_closed_loop(make_groups, mix, False, input_digest, _check, _warm_up,
                    seconds, trace, outcome, spans_path)
    outcome.notes["schedule"] = {
        "requests": count, "cells": len(FAMILIES) * len(SIZES) * len(ALGORITHMS),
        "repeat_share": 1.0 / REPEAT_EVERY, "fptas_eps": FPTAS_EPS,
    }
    return outcome
