"""metro-large: fresh large instances, one caller, closed loop.

Each cycle generates three new instances from ``(seed, cycle)`` and
solves them in order; instances memoize compiled views and constraint
masks, so reusing an object would time the memo instead of the solve.

* ``angle``: ``uniform`` n = 1e5, k = 3, rho = pi/3, ``greedy+ls``.  The
  capacity fits every window, so the oracle is never called and local
  search dominates.
* ``metro``: ``metro`` n = 1e6 in 8 towns, sector ``greedy`` with
  ``partition="auto"``: partition, pool fan-out and merge.
* ``scenario``: ``scenario`` n = 1e5 (blockage walls and an assignment
  cap), sector ``greedy`` with the default backend and partition:
  constraint composition and the parent-side verify.  Capacity is 0.5 of
  the total demand so every window fits here too; at the family default
  (0.2) the busiest town's windows overflow it and the FPTAS table
  exceeds its size cap on some seeds.

All three use the FPTAS oracle (``eps=0.5``), the bench default.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from common import Outcome, digest
from inprocess import Op, check_solution, run_closed_loop, upper_bound

EPS = 0.5
SIZES = {
    "full": {"angle": 100_000, "metro": 1_000_000, "scenario": 100_000},
    # Above the engine's partition threshold (2e4), so tiny runs still
    # take the partitioned path.
    "tiny": {"angle": 5_000, "metro": 30_000, "scenario": 25_000},
}
SCENARIO_CAPACITY_FRACTION = 0.5


def make_cycle(seed: int, cycle: int, sizes: dict, stream: int = 2) -> List[Op]:
    from repro.engine import SolveRequest
    from repro.model.generators import (
        power_law_metro, scenario_metro_blockage, uniform_angles,
    )

    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence([seed, stream, cycle]).spawn(3)]
    angle = uniform_angles(n=sizes["angle"], k=3, rho=math.pi / 3,
                           capacity_fraction=4.0, seed=rngs[0])
    metro = power_law_metro(n=sizes["metro"], towns=8, seed=rngs[1])
    scenario = scenario_metro_blockage(
        n=sizes["scenario"], capacity_fraction=SCENARIO_CAPACITY_FRACTION,
        seed=rngs[2])
    return [
        Op(SolveRequest(instance=angle, family="angle", algorithm="greedy+ls",
                        eps=EPS), "angle"),
        Op(SolveRequest(instance=metro, family="sector", algorithm="greedy",
                        partition="auto", eps=EPS), "metro"),
        Op(SolveRequest(instance=scenario, family="sector", algorithm="greedy",
                        eps=EPS), "scenario"),
    ]


def _warm_up() -> None:
    """First-call costs (imports, pool start-up paths) on small inputs."""
    from repro.engine import solve

    for op in make_cycle(0, 0, SIZES["tiny"], stream=3):
        solve(op.request)


def _check(op: Op, report, values, outcome: Outcome) -> Optional[float]:
    instance = op.request.instance
    quality = check_solution(op, report, values, outcome,
                             upper_bound(instance), instance)
    if op.kind == "metro":
        outcome.check(report.extra.get("strategy") == "partitioned",
                      "metro request was not partitioned")
    return quality


def run(seed: int, seconds: float, trace: bool, size: str, spans_path: str) -> Outcome:
    from repro.engine import clear_caches, fingerprint

    outcome = Outcome()
    sizes = SIZES[size]
    digests: List[str] = []
    state = {}

    def make_groups():
        state["first"] = make_cycle(seed, 0, sizes)

        def groups(cycle: int) -> List[Op]:
            if cycle:
                # Fresh content never hits the engine caches; emptying them
                # keeps peak memory a per-cycle figure instead of one that
                # grows with the number of cycles a run completes.
                clear_caches()
            ops = state.pop("first") if cycle == 0 else make_cycle(seed, cycle, sizes)
            if len(digests) <= cycle:
                digests.append(digest(fingerprint(op.request.instance) for op in ops))
            return ops

        return groups

    def input_digest(_groups) -> str:
        return digest(fingerprint(op.request.instance) for op in state["first"])

    # Three slices of very different cost: the median is taken over the
    # slices' own medians (see ``inprocess.Phase.p50_ms``).
    mix = {"angle": 1 / 3, "metro": 1 / 3, "scenario": 1 / 3}
    run_closed_loop(make_groups, mix, True, input_digest, _check, _warm_up,
                    seconds, trace, outcome, spans_path)
    outcome.notes["cycle_input_digests"] = digests
    outcome.notes["sizes"] = sizes
    return outcome
