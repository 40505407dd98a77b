"""Vectorized numpy kernels behind the per-solver ``backend`` knob.

The compiled layer (:mod:`repro.core.compiled`) stores struct-of-arrays
views — argsorted angles, doubled prefix sums, per-station polar arrays,
density orders — but until this module existed every *consumer* of those
arrays still walked them one element at a time in pure python.  The three
kernels here replace exactly those hot loops:

* :func:`rotation_scan` — the circular-sweep window scan of
  :func:`repro.packing.single.best_rotation`: one vectorized
  everything-fits pass over the doubled prefix sums seeds the incumbent,
  and only the windows that can still beat it survive for per-window
  oracle calls;
* :func:`greedy_prefix_mask` — the sequential acceptance loop of the
  extended density greedy (:func:`repro.knapsack.greedy.solve_greedy`),
  replayed with cumulative sums in a handful of vectorized rounds;
* :func:`batched_station_polar` / :func:`nearest_reaching_station` — the
  per-station eligibility scans of :mod:`repro.packing.sectors`, batched
  into one ``(m, n)`` polar conversion and one masked ``argmin``;
* :func:`los_blocked` / :func:`topk_station_mask` — the constraint-mask
  composition kernels of :mod:`repro.model.constraints`
  (``docs/SCENARIOS.md``): per-station line-of-sight occlusion against a
  segment set, and the per-customer top-``k`` nearest-reaching-station
  membership mask, both bit-identical to the scalar per-pair primitives;
* :func:`fill_pass` — the fill move of the angle local search
  (:mod:`repro.packing.local_search`): arc membership and the initial
  capacity test of every unserved customer in one vectorized pass, then
  the first-fit replay over the few customers that survive both.

**Contract** (``docs/BACKENDS.md``): the pure-python path is the oracle.
Every kernel is either *bit-identical* to the scalar loop it replaces
(elementwise ufuncs batched over a different shape) or *value-identical*
(the solved objective value is provably equal while tie selections and
per-solve work metrics may differ); the tests in
``tests/test_backend.py`` assert which.  Backend selection is resolved by
the engine (:func:`repro.engine.planner.plan_backend`) against each
:class:`~repro.engine.registry.SolverSpec`'s declared ``backends``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.geometry.angles import angles_in_window
from repro.numerics import FIT_SLACK, fits

__all__ = [
    "BACKENDS",
    "AUTO_NUMPY_MIN_N",
    "normalize_backend",
    "rotation_scan",
    "greedy_prefix_mask",
    "batched_station_polar",
    "nearest_reaching_station",
    "los_blocked",
    "topk_station_mask",
    "fill_pass",
]

#: The valid values of every ``backend`` knob (requests additionally
#: accept ``"auto"``; solvers only ever see the two concrete names).
BACKENDS = ("python", "numpy", "auto")

#: Instance size at which ``backend="auto"`` switches a numpy-capable
#: solver from the scalar path to the vectorized kernels.  Below this the
#: kernel setup cost (argsorts of window potentials, mask allocation)
#: rivals the python loop it replaces; well above it the vectorized path
#: wins by orders of magnitude.  Documented in ``docs/BACKENDS.md``.
AUTO_NUMPY_MIN_N = 2048

#: Same break-even pruning epsilon as the scalar rotation search.
_PRUNE_EPS = 1e-15


def normalize_backend(name: str) -> str:
    """Validate a backend name; returns it (``ValueError`` otherwise)."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def rotation_scan(
    ids: np.ndarray,
    profit_sums: np.ndarray,
    demand_sums: np.ndarray,
    capacity: float,
) -> Tuple[int, float, float, np.ndarray]:
    """Vectorized seed-and-prune pass over the canonical windows.

    ``ids`` are the (deduplicated) window ids of a
    :class:`~repro.geometry.sweep.CircularSweep`; ``profit_sums`` /
    ``demand_sums`` its per-window totals from the doubled prefix sums.
    Returns ``(best_id, best_value, best_demand, hard_ids)``:

    * ``best_id`` — the fitting window of maximum profit potential (the
      stable-first one, matching the scalar visit order), or ``-1`` when
      no window fits entirely;
    * ``best_value`` / ``best_demand`` — its totals (0.0 when none);
    * ``hard_ids`` — the non-fitting windows whose potential still
      exceeds ``best_value``, in decreasing-potential (stable) order —
      the only windows the caller must hand to the knapsack oracle.

    Value identity with the scalar loop: both paths end at the unique
    fixed point ``V = max(best fitting potential, max oracle value over
    non-fitting windows with potential > V)`` — the scalar loop reaches
    it by interleaving fast-path and oracle visits, this kernel by
    seeding with the best fitting window up front (which can only prune
    *more* oracle calls, never change the maximum).  Tie *selection*
    (which window realizes an equal value) may differ.
    """
    if ids.size == 0:
        return -1, 0.0, 0.0, ids
    order = np.argsort(-profit_sums[ids], kind="stable")
    ids_sorted = ids[order]
    pot = profit_sums[ids_sorted]
    fit = fits(demand_sums[ids_sorted], float(capacity))

    best_id, best_value, best_demand = -1, 0.0, 0.0
    fit_pos = np.flatnonzero(fit)
    if fit_pos.size:
        p0 = int(fit_pos[0])
        # The scalar loop never takes a window with potential <= eps:
        # its incumbent starts at the empty outcome (value 0).
        if pot[p0] > _PRUNE_EPS:
            best_id = int(ids_sorted[p0])
            best_value = float(pot[p0])
            best_demand = float(demand_sums[best_id])
    hard_ids = ids_sorted[(~fit) & (pot > best_value + _PRUNE_EPS)]
    return best_id, best_value, best_demand, hard_ids


def _fits_elementwise(weight: np.ndarray, remaining: np.ndarray) -> np.ndarray:
    """:func:`repro.numerics.fits` with an *array* ``remaining``.

    Same expression, same ``FIT_SLACK``; the scalar original only
    broadcasts over ``weight`` (its slack term calls ``max``/``abs`` on
    the remaining capacity), so the per-position variant lives here.
    """
    return weight <= remaining + FIT_SLACK * np.maximum(1.0, np.abs(remaining))


def greedy_prefix_mask(weights: np.ndarray, capacity: float) -> np.ndarray:
    """Accept mask of the extended density greedy, in vectorized rounds.

    ``weights`` must already be in visit order (the density order of
    :class:`~repro.core.compiled.CompiledItems` restricted to the useful
    items).  Reproduces the sequential scan "take while it fits, keep
    scanning past misfits": each round accepts the longest fitting prefix
    via one cumulative sum, drops the first misfit, and discards every
    remaining item that can no longer fit the (monotonically shrinking)
    remaining capacity — an item rejected now is rejected forever because
    the :func:`repro.numerics.fits` threshold is monotone in the
    remaining capacity.  Each round accepts at least one item, so the
    number of rounds is bounded by the accepted count (typically a
    handful) rather than ``n``.

    The remaining capacity is tracked through cumulative sums instead of
    one scalar subtraction per item; the shared ``FIT_SLACK`` admission
    band absorbs the one-ulp summation-order differences, so the accept
    set matches the scalar loop on everything but adversarially
    ulp-boundary weights (the bench harness and the bit-identity tests
    assert equality).
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    accept = np.zeros(n, dtype=bool)
    cap = float(capacity)
    active = np.arange(n)
    spent = 0.0
    while active.size:
        wa = w[active]
        csum = np.cumsum(wa)
        rem_before = (cap - spent) - (csum - wa)
        ok = _fits_elementwise(wa, rem_before)
        bad = np.flatnonzero(~ok)
        if bad.size == 0:
            accept[active] = True
            break
        cut = int(bad[0])
        accept[active[:cut]] = True
        if cut > 0:
            spent += float(csum[cut - 1])
        tail = active[cut + 1:]
        tail = tail[fits(w[tail], cap - spent)]
        active = tail
    return accept


def batched_station_polar(instance) -> Tuple[np.ndarray, np.ndarray]:
    """Relative polar of every customer to every station, in one pass.

    Returns ``(thetas, rs)`` of shape ``(m, n)``; row ``s`` is
    bit-identical to ``relative_polar(positions, stations[s].position)``
    because the batch merely reshapes the inputs of the same elementwise
    ufuncs (subtract, hypot, arctan2, angle normalization).
    """
    from repro.geometry.points import cartesians_to_polar

    positions = np.asarray(instance.positions, dtype=np.float64)
    centers = np.asarray(
        [st.position for st in instance.stations], dtype=np.float64
    )
    m = centers.shape[0]
    n = positions.shape[0]
    diff = positions[None, :, :] - centers[:, None, :]
    thetas, rs = cartesians_to_polar(diff.reshape(m * n, 2))
    return thetas.reshape(m, n), rs.reshape(m, n)


def nearest_reaching_station(
    rs_all: np.ndarray,
    max_radii: np.ndarray,
    slack: float = 1.0 + 1e-12,
    eligible: "np.ndarray | None" = None,
) -> np.ndarray:
    """Home station of every customer: nearest station that reaches it.

    ``rs_all`` is the ``(m, n)`` distance matrix (station-major, as
    returned by :func:`batched_station_polar`), ``max_radii`` the per-
    station maximum antenna radius.  Returns ``home`` of shape ``(n,)``
    with ``-1`` for unreachable customers.  Identical to the per-station
    scalar loop of ``solve_sector_independent``: the same reach slack,
    the same ``inf`` fill, and ``argmin``'s first-occurrence tie-break
    matches the loop's station order.

    ``eligible`` optionally ANDs an ``(m, n)`` boolean mask (the composed
    constraint masks of ``docs/SCENARIOS.md``) into the reach test, so
    constrained instances home each customer onto its nearest *effective*
    station.
    """
    rs_all = np.asarray(rs_all, dtype=np.float64)
    max_radii = np.asarray(max_radii, dtype=np.float64).reshape(-1, 1)
    reach = rs_all <= max_radii * slack
    if eligible is not None:
        reach &= np.asarray(eligible, dtype=bool)
    dist = np.where(reach, rs_all, np.inf)
    return np.where(
        np.isfinite(dist.min(axis=0)), dist.argmin(axis=0), -1
    ).astype(np.int64)


def los_blocked(
    sx: float, sy: float, positions: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """Customers whose line of sight to station ``(sx, sy)`` is occluded.

    ``positions`` is the ``(n, 2)`` customer array, ``segments`` the
    ``(k, 4)`` blockage-segment array of ``(x1, y1, x2, y2)`` rows
    (:class:`repro.model.constraints.LosBlockage`).  A customer is
    blocked iff its open station→customer segment *properly crosses* any
    blockage segment — four strict orientation sign tests, written with
    the exact subtract/multiply expressions of the scalar primitive
    ``repro.model.constraints._cross_sign`` so the ``(n,)`` boolean
    result is bit-identical to the per-pair loop (touching endpoints and
    collinear overlap do not block in either path).
    """
    positions = np.asarray(positions, dtype=np.float64)
    segments = np.asarray(segments, dtype=np.float64).reshape(-1, 4)
    n = positions.shape[0]
    if segments.shape[0] == 0 or n == 0:
        return np.zeros(n, dtype=bool)
    x1 = segments[:, 0][:, None]
    y1 = segments[:, 1][:, None]
    x2 = segments[:, 2][:, None]
    y2 = segments[:, 3][:, None]
    cx = positions[:, 0][None, :]
    cy = positions[:, 1][None, :]
    # The three (k, n) scratch buffers below are reused via out= — the
    # subtract/multiply op order matches the scalar ``_cross_sign``
    # expression exactly, so buffer reuse changes no result bit.
    # d1: orientation of the station about each blockage segment
    # ((k, 1), broadcast over customers); d2: of each customer ((k, n)).
    d1 = (x2 - x1) * (sy - y1) - (y2 - y1) * (sx - x1)
    t1 = np.multiply(x2 - x1, np.subtract(cy, y1))
    t2 = np.multiply(y2 - y1, np.subtract(cx, x1))
    d2 = np.subtract(t1, t2, out=t1)
    crossed = np.multiply(d1, d2, out=d2) < 0.0
    # d3/d4: orientation of each blockage endpoint about station→customer.
    ux = cx - sx
    uy = cy - sy
    d3 = np.subtract(
        np.multiply(ux, y1 - sy, out=t2), np.multiply(uy, x1 - sx), out=t2
    )
    t3 = np.multiply(ux, y2 - sy)
    d4 = np.subtract(t3, np.multiply(uy, x2 - sx, out=t1), out=t3)
    crossed &= np.multiply(d3, d4, out=d3) < 0.0
    return crossed.any(axis=0)


def topk_station_mask(
    rs_all: np.ndarray,
    max_radii: np.ndarray,
    limit: int,
    slack: float = 1.0 + 1e-12,
) -> np.ndarray:
    """Membership mask of each customer's ``limit`` nearest reaching stations.

    ``rs_all`` is the ``(m, n)`` station-major distance matrix,
    ``max_radii`` the per-station maximum antenna radius.  Returns an
    ``(m, n)`` boolean mask: ``mask[s, i]`` iff station ``s`` is among
    customer ``i``'s ``limit`` nearest *reaching* stations, ranked by
    ``(distance, station_id)`` — ``limit`` column-wise argmin passes
    (each selecting then retiring one station per customer) break
    distance ties by first occurrence, i.e. lowest station id, matching
    the lexicographic sort of the scalar primitive
    ``repro.model.constraints._topk_stations`` exactly
    (:class:`repro.model.constraints.MaxAssignments`).

    Columns with at most ``limit`` reaching stations short-circuit to
    their reach column (every reaching station *is* in the top
    ``limit``), so the argmin ranking runs only on the contested
    columns — in clustered deployments (towns far apart relative to
    reach) that is a small fraction of ``n``, and the kernel's cost is
    dominated by the one reach comparison.
    """
    rs_all = np.asarray(rs_all, dtype=np.float64)
    radii = np.asarray(max_radii, dtype=np.float64).reshape(-1, 1)
    m, n = rs_all.shape
    reach = rs_all <= radii * slack
    limit = int(limit)
    if limit >= m:
        return reach.copy()
    mask = reach.copy()
    hard = np.flatnonzero(reach.sum(axis=0) > limit)
    if hard.size:
        sub = np.where(reach[:, hard], rs_all[:, hard], np.inf)
        picked = np.zeros((m, hard.size), dtype=bool)
        cols = np.arange(hard.size)
        # Contested columns have > limit finite entries, so every pass
        # retires a genuinely reaching station.
        for _ in range(limit):
            rows = sub.argmin(axis=0)
            picked[rows, cols] = True
            sub[rows, cols] = np.inf
        mask[:, hard] = picked
    return mask


def fill_pass(
    thetas: np.ndarray,
    demands: np.ndarray,
    profits: np.ndarray,
    assignment: np.ndarray,
    starts: np.ndarray,
    widths: np.ndarray,
    capacities: np.ndarray,
) -> bool:
    """First-fit of unserved customers into covering antennas with slack.

    ``assignment`` (``-1`` = unserved) is updated in place; returns True
    if anything changed.  Antenna ``j`` is the closed arc ``[starts[j],
    starts[j] + widths[j]]`` (``starts`` normalized, ``widths`` capped at
    ``2*pi``, as :class:`~repro.geometry.arcs.Arc` stores them) with
    capacity ``capacities[j]``.

    Bit-identical to the scalar oracle
    :func:`repro.packing.local_search._fill_pass`:

    * loads come from the same ``np.add.at`` over the served customers,
      candidates from the same stable ``-density`` argsort;
    * arc membership is :func:`~repro.geometry.angles.angles_in_window`,
      the vectorized form of ``Arc.contains`` (``ccw_deltas(start,
      theta) <= width + _EPS_WRAP``, full-circle arcs cover everything);
    * a candidate whose demand does not fit an antenna's *initial* load
      never fits it later (demands are positive, so loads only grow and
      :func:`~repro.numerics.fits` is monotone), so the replay skips
      every (customer, antenna) pair failing membership or that initial
      test — candidates no antenna passes are dropped entirely;
    * the survivors replay the scalar loop: density order, antennas in
      index order, the same ``fits(loads[j] + d, cap)`` float sequence.
    """
    k = len(starts)
    served = assignment >= 0
    loads = np.zeros(k)
    np.add.at(loads, assignment[served], demands[served])
    unserved = np.flatnonzero(~served)
    density = profits[unserved] / demands[unserved]
    cand = unserved[np.argsort(-density, kind="stable")]
    cand_thetas = thetas[cand]
    cand_demands = demands[cand]
    ok = np.empty((k, cand.size), dtype=bool)
    for j in range(k):
        ok[j] = angles_in_window(
            cand_thetas, float(starts[j]), float(widths[j])
        )
        ok[j] &= fits(loads[j] + cand_demands, float(capacities[j]))
    keep = np.flatnonzero(ok.any(axis=0))
    if keep.size == 0:
        return False
    loads_f = loads.tolist()
    caps = [float(c) for c in capacities]
    taken_i, taken_j = [], []
    for i, d, row in zip(
        cand[keep].tolist(), cand_demands[keep].tolist(), ok[:, keep].T.tolist()
    ):
        for j, covered in enumerate(row):
            if covered and fits(loads_f[j] + d, caps[j]):
                taken_i.append(i)
                taken_j.append(j)
                loads_f[j] += d
                break
    assignment[taken_i] = taken_j
    return bool(taken_i)
