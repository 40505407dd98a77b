"""The numpy backend against its pure-python oracle (``docs/BACKENDS.md``).

Four families of guarantees frozen here:

* **kernel identity** — each kernel in :mod:`repro.core.backend` matches
  the scalar loop it replaces, at the identity class its docstring
  claims: bit-identical for `batched_station_polar` /
  `nearest_reaching_station` / `fill_pass`, accept-set / value-identical
  for `greedy_prefix_mask` and `rotation_scan`;
* **solver identity** — every numpy-capable registered solver returns
  the same objective value under ``backend="python"`` and
  ``backend="numpy"`` through the public engine, on randomized
  continuous instances (caching disabled so both paths really run);
* **selection discipline** — `plan_backend` honours explicit requests,
  falls back cleanly on python-only specs (observable via the
  ``engine.backend.*`` counters), and `auto` respects the size
  threshold;
* **staleness guard** — mutating instance arrays after ``compile()``
  raises instead of silently serving a stale view.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backend import (
    AUTO_NUMPY_MIN_N,
    batched_station_polar,
    fill_pass,
    greedy_prefix_mask,
    nearest_reaching_station,
    normalize_backend,
    rotation_scan,
)
from repro.engine import SolveRequest, plan_backend, solve
from repro.engine.cache import clear_caches
from repro.geometry.angles import TWO_PI, angles_in_window
from repro.geometry.arcs import Arc
from repro.geometry.points import relative_polar
from repro.geometry.sweep import CircularSweep
from repro.knapsack.api import _fits
from repro.knapsack.greedy import solve_greedy
from repro.model import generators as gen
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance
from repro.obs.metrics import get_registry
from repro.packing.local_search import _fill_pass


def _counter(name: str) -> int:
    return int(get_registry().counter(name).value)


# ---------------------------------------------------------------------------
# kernel identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_greedy_prefix_mask_matches_sequential_scan(seed):
    rng = np.random.default_rng(seed)
    n = 400
    w = rng.uniform(0.05, 1.0, size=n)
    cap = float(0.3 * w.sum())

    accept = greedy_prefix_mask(w, cap)

    expect = np.zeros(n, dtype=bool)
    remaining = cap
    for i in range(n):
        if _fits(w[i], remaining):
            expect[i] = True
            remaining -= w[i]
    assert np.array_equal(accept, expect)


def test_greedy_prefix_mask_exact_boundary_weights():
    # Weights that exactly fill the capacity: the fits() slack must admit
    # the boundary item on both paths, and reject the one past it.
    w = np.array([0.5, 0.5, 0.5, 0.25, 0.25])
    accept = greedy_prefix_mask(w, 1.0)
    expect = np.zeros(5, dtype=bool)
    remaining = 1.0
    for i in range(5):
        if _fits(w[i], remaining):
            expect[i] = True
            remaining -= w[i]
    assert np.array_equal(accept, expect)
    assert accept[0] and accept[1] and not accept[2]


def test_greedy_prefix_mask_empty_and_nothing_fits():
    assert greedy_prefix_mask(np.array([]), 1.0).size == 0
    assert not greedy_prefix_mask(np.array([5.0, 7.0]), 1.0).any()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("capacity_scale", [0.1, 0.6, 10.0])
def test_rotation_scan_seed_and_prune_invariants(seed, capacity_scale):
    rng = np.random.default_rng(seed)
    n = 120
    thetas = rng.uniform(0.0, 2 * math.pi, size=n)
    demands = rng.uniform(0.1, 1.0, size=n)
    profits = rng.uniform(0.1, 1.0, size=n)
    sweep = CircularSweep(thetas, math.pi / 3)
    profit_sums = sweep.window_sums(profits)
    demand_sums = sweep.window_sums(demands)
    ids = np.asarray(sweep.unique_window_ids())
    capacity = float(capacity_scale * demands.sum() / 3)

    best_id, best_value, best_demand, hard = rotation_scan(
        ids, profit_sums, demand_sums, capacity
    )

    fitting = [i for i in ids if demand_sums[i] <= capacity * (1 + 1e-9)]
    if best_id >= 0:
        assert best_id in set(int(i) for i in ids)
        assert best_value == pytest.approx(float(profit_sums[best_id]))
        assert best_demand == pytest.approx(float(demand_sums[best_id]))
        # It is the *best* fitting window: no fitting window beats it.
        assert all(profit_sums[i] <= best_value + 1e-9 for i in fitting)
    # Every surviving hard window still beats the incumbent and does not
    # fit; every non-surviving non-fitting window is provably prunable.
    hard_set = set(int(i) for i in hard)
    for i in ids:
        i = int(i)
        fits_i = demand_sums[i] <= capacity * (1 + 1e-9)
        if i in hard_set:
            assert not fits_i
            assert profit_sums[i] > best_value
    # Decreasing-potential visit order for the oracle caller.
    pots = profit_sums[hard]
    assert np.all(np.diff(pots) <= 1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_station_polar_bit_identical(seed):
    inst = gen.grid_city(n=80, seed=seed)
    thetas_all, rs_all = batched_station_polar(inst)
    for s, st in enumerate(inst.stations):
        th, r = relative_polar(
            inst.positions, np.asarray(st.position, dtype=np.float64)
        )
        # Bit identity, not approx: same ufuncs, batched shape.
        assert np.array_equal(thetas_all[s], th)
        assert np.array_equal(rs_all[s], r)


def test_nearest_reaching_station_matches_python_loop():
    rng = np.random.default_rng(7)
    m, n = 4, 60
    rs_all = rng.uniform(0.0, 10.0, size=(m, n))
    max_radii = rng.uniform(2.0, 6.0, size=m)
    slack = 1.0 + 1e-12

    home = nearest_reaching_station(rs_all, max_radii, slack=slack)

    for c in range(n):
        best, best_d = -1, math.inf
        for s in range(m):
            d = rs_all[s, c]
            if d <= max_radii[s] * slack and d < best_d:
                best, best_d = s, d
        assert home[c] == best


def test_nearest_reaching_station_unreachable_customer():
    rs_all = np.array([[100.0, 1.0], [100.0, 2.0]])
    home = nearest_reaching_station(rs_all, np.array([5.0, 5.0]))
    assert home[0] == -1 and home[1] == 0


# Angles where np.mod and math.fmod could part ways: exact multiples of
# 2*pi, values a hair either side of them, and negatives.
_WRAP_ANGLES = [0.0, -0.0, TWO_PI, -TWO_PI, TWO_PI - 1e-13, 1e-13, -1e-13,
                TWO_PI + 1e-13, 3 * TWO_PI, -2.5 * TWO_PI, math.pi, -math.pi]


@settings(max_examples=300, deadline=None)
@given(
    theta=st.one_of(
        st.sampled_from(_WRAP_ANGLES),
        st.floats(-4 * TWO_PI, 4 * TWO_PI, allow_nan=False),
    ),
    orientation=st.one_of(
        st.sampled_from(_WRAP_ANGLES),
        st.floats(-4 * TWO_PI, 4 * TWO_PI, allow_nan=False),
    ),
    rho=st.one_of(st.sampled_from([0.0, 1e-13, math.pi, TWO_PI - 1e-13,
                                   TWO_PI]),
                  st.floats(0.0, TWO_PI)),
)
def test_angles_in_window_matches_arc_contains(theta, orientation, rho):
    # The fill kernel's membership test (np.mod inside normalize_angles)
    # against Arc.contains (math.fmod + 2*pi inside normalize_angle).
    arc = Arc(orientation, rho)
    for t in (theta, arc.start, arc.end):
        mask = angles_in_window(np.array([t]), arc.start, arc.width)
        assert bool(mask[0]) == arc.contains(t)


# Demands whose sums land exactly on, a float ulp around, and just past
# the capacities below (0.1 + 0.2 + 0.3 == 0.6000000000000001).
_FILL_DEMANDS = [0.1, 0.2, 0.3, 0.25, 0.5, 1.0, 0.5 + 4e-13, 0.5 + 3e-12,
                 0.7]
_FILL_CAPS = [0.6, 1.0, 1.0 - 5e-13, 1.0 + 2e-12, 1.5]


@st.composite
def _fill_case(draw):
    k = draw(st.integers(1, 4))
    antennas, arcs, orientations = [], [], []
    for _ in range(k):
        rho = draw(st.one_of(st.sampled_from([TWO_PI, math.pi / 3, 1.0]),
                             st.floats(0.05, TWO_PI)))
        spec = AntennaSpec(rho=rho, capacity=draw(st.sampled_from(_FILL_CAPS)))
        antennas.append(spec)
        orientation = draw(st.one_of(st.sampled_from(_WRAP_ANGLES),
                                     st.floats(-TWO_PI, 2 * TWO_PI)))
        orientations.append(orientation)
        arcs.append(Arc(orientation, rho))
    # Angles exactly at arc starts/ends and at the 2*pi -> 0 wrap, drawn
    # with replacement so duplicates are common.
    special = [0.0, TWO_PI - 1e-13, 1e-13, math.pi]
    special += [a.start for a in arcs] + [a.end for a in arcs]
    n = draw(st.integers(0, 40))
    thetas = draw(st.lists(
        st.one_of(st.sampled_from(special), st.floats(0.0, TWO_PI - 1e-9)),
        min_size=n, max_size=n,
    ))
    demands = draw(st.lists(st.sampled_from(_FILL_DEMANDS),
                            min_size=n, max_size=n))
    profits = draw(st.lists(st.sampled_from([1.0, 0.5, 2.0, 0.3]),
                            min_size=n, max_size=n))
    assignment = draw(st.lists(st.integers(-1, k - 1), min_size=n,
                               max_size=n))
    inst = AngleInstance(
        thetas=np.array(thetas, dtype=np.float64),
        demands=np.array(demands, dtype=np.float64),
        profits=np.array(profits, dtype=np.float64),
        antennas=tuple(antennas),
    )
    return inst, np.array(orientations), np.array(assignment, dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(_fill_case())
def test_fill_pass_bit_identical_to_scalar_oracle(case):
    inst, orientations, assignment = case
    expected = assignment.copy()
    changed = _fill_pass(inst, orientations, expected)
    arcs = [Arc(float(o), a.rho) for o, a in zip(orientations, inst.antennas)]
    got = assignment.copy()
    got_changed = fill_pass(
        inst.thetas, inst.demands, inst.profits, got,
        np.array([a.start for a in arcs]), np.array([a.width for a in arcs]),
        np.array([a.capacity for a in inst.antennas]),
    )
    assert got_changed == changed
    assert np.array_equal(got, expected)


def test_fill_pass_full_circle_and_exact_capacity():
    # Full-circle antenna, three demands summing exactly to capacity:
    # all fit, in density order; the 4th (lowest density) spills to the
    # narrow antenna only if it covers the angle.
    inst = AngleInstance(
        thetas=np.array([0.0, 3.0, TWO_PI - 1e-13, 1.0]),
        demands=np.array([0.5, 0.25, 0.25, 0.5]),
        profits=np.array([2.0, 1.0, 1.0, 0.25]),
        antennas=(AntennaSpec(rho=TWO_PI, capacity=1.0),
                  AntennaSpec(rho=0.5, capacity=1.0)),
    )
    assignment = np.full(4, -1, dtype=np.int64)
    assert fill_pass(inst.thetas, inst.demands, inst.profits, assignment,
                     np.array([0.0, 0.75]), np.array([TWO_PI, 0.5]),
                     np.array([1.0, 1.0]))
    assert assignment.tolist() == [0, 0, 0, 1]


# ---------------------------------------------------------------------------
# solver identity through the engine
# ---------------------------------------------------------------------------

NUMPY_CAPABLE = [
    ("angle", "greedy"),
    ("angle", "adaptive"),
    ("angle", "greedy+ls"),
    ("angle", "single"),
    ("sector", "greedy"),
    ("sector", "greedy+ls"),
    ("sector", "independent"),
    ("knapsack", "greedy"),
]


def _instance_for(family: str, algorithm: str, seed: int):
    if family == "angle":
        k = 1 if algorithm == "single" else 3
        return gen.uniform_angles(n=90, k=k, capacity_fraction=0.3, seed=seed)
    if family == "sector":
        return gen.grid_city(n=70, capacity_fraction=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=300)
    p = rng.uniform(0.05, 1.0, size=300)
    return (w, p, float(0.3 * w.sum()))


@pytest.mark.parametrize("family,algorithm", NUMPY_CAPABLE)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_numpy_backend_value_identical(family, algorithm, seed):
    inst = _instance_for(family, algorithm, seed)
    # use_cache=False: the result-cache key deliberately ignores the
    # backend, so a cached python result would otherwise answer the
    # numpy request and the test would compare a value with itself.
    reports = {
        backend: solve(
            SolveRequest(
                instance=inst,
                family=family,
                algorithm=algorithm,
                backend=backend,
                use_cache=False,
            )
        )
        for backend in ("python", "numpy")
    }
    assert reports["python"].value == reports["numpy"].value


@pytest.mark.parametrize("seed", [0, 1])
def test_greedy_ls_assignment_identical_at_auto_threshold(seed):
    # At n >= AUTO_NUMPY_MIN_N, auto resolves greedy+ls to numpy; the
    # fill kernel must reproduce the python solve's assignment exactly.
    inst = gen.uniform_angles(n=AUTO_NUMPY_MIN_N + 500, k=3,
                              capacity_fraction=0.3, seed=seed)
    before_np = _counter("engine.backend.numpy")
    reports = {
        backend: solve(SolveRequest(
            instance=inst, family="angle", algorithm="greedy+ls",
            backend=backend, eps=0.5, use_cache=False,
        ))
        for backend in ("python", "auto")
    }
    assert _counter("engine.backend.numpy") == before_np + 1
    assert reports["python"].value == reports["auto"].value
    assert np.array_equal(reports["python"].solution.assignment,
                          reports["auto"].solution.assignment)


def test_numpy_backend_identical_under_duplicate_angles():
    # Duplicate angles stress the sweep's tie handling; values must agree.
    base = gen.uniform_angles(n=40, k=2, capacity_fraction=0.4, seed=5)
    thetas = np.concatenate([base.thetas, base.thetas[:20]])
    demands = np.concatenate([base.demands, base.demands[:20]])
    inst = type(base)(thetas=thetas, demands=demands, antennas=base.antennas)
    vals = [
        solve(
            SolveRequest(
                instance=inst,
                family="angle",
                algorithm="greedy",
                backend=b,
                use_cache=False,
            )
        ).value
        for b in ("python", "numpy")
    ]
    assert vals[0] == vals[1]


def test_numpy_backend_empty_sector_instance():
    inst = gen.grid_city(n=4, grid=1, spacing=2.0, capacity_fraction=1.0,
                         seed=0)
    vals = [
        solve(
            SolveRequest(
                instance=inst,
                family="sector",
                algorithm="independent",
                backend=b,
                use_cache=False,
            )
        ).value
        for b in ("python", "numpy")
    ]
    assert vals[0] == vals[1]


# ---------------------------------------------------------------------------
# selection discipline
# ---------------------------------------------------------------------------


def test_plan_backend_rules():
    both = ("python", "numpy")
    only_py = ("python",)
    assert plan_backend("python", both, 10**6) == ("python", False)
    assert plan_backend("numpy", both, 1) == ("numpy", False)
    assert plan_backend("numpy", only_py, 10**6) == ("python", True)
    assert plan_backend("auto", both, AUTO_NUMPY_MIN_N) == ("numpy", False)
    assert plan_backend("auto", both, AUTO_NUMPY_MIN_N - 1) == (
        "python",
        False,
    )
    assert plan_backend("auto", only_py, 10**6) == ("python", False)
    with pytest.raises(ValueError):
        plan_backend("cuda", both, 10)
    with pytest.raises(ValueError):
        normalize_backend("fortran")


def test_numpy_request_on_python_only_spec_falls_back_cleanly():
    inst = _instance_for("knapsack", "fptas", seed=0)
    before = _counter("engine.backend.fallback")
    report = solve(
        SolveRequest(
            instance=inst,
            family="knapsack",
            algorithm="fptas",
            eps=0.5,
            backend="numpy",
            use_cache=False,
        )
    )
    assert report.error is None
    assert report.value > 0
    assert _counter("engine.backend.fallback") == before + 1


def test_backend_counters_track_resolution():
    inst = _instance_for("knapsack", "greedy", seed=3)
    before_py = _counter("engine.backend.python")
    before_np = _counter("engine.backend.numpy")
    solve(
        SolveRequest(
            instance=inst,
            family="knapsack",
            algorithm="greedy",
            backend="python",
            use_cache=False,
        )
    )
    solve(
        SolveRequest(
            instance=inst,
            family="knapsack",
            algorithm="greedy",
            backend="numpy",
            use_cache=False,
        )
    )
    assert _counter("engine.backend.python") == before_py + 1
    assert _counter("engine.backend.numpy") == before_np + 1


def test_solve_greedy_backend_param_direct():
    rng = np.random.default_rng(11)
    w = rng.uniform(0.05, 1.0, size=500)
    p = rng.uniform(0.05, 1.0, size=500)
    cap = float(0.25 * w.sum())
    py = solve_greedy(w, p, cap, backend="python")
    vec = solve_greedy(w, p, cap, backend="numpy")
    assert py.value == vec.value
    assert np.array_equal(py.selected, vec.selected)


# ---------------------------------------------------------------------------
# staleness guard
# ---------------------------------------------------------------------------


def test_compile_memo_staleness_guard():
    clear_caches()
    inst = gen.uniform_angles(n=30, k=2, seed=9)
    inst.compile()
    # Break the immutability contract on purpose.
    inst.thetas.setflags(write=True)
    inst.thetas[0] += 0.125
    with pytest.raises(RuntimeError, match="mutated"):
        inst.compile()


def test_compile_memo_staleness_guard_catches_permutation():
    # The fingerprint is position-weighted, so a permutation (same sums)
    # must still be caught.
    inst = gen.uniform_angles(n=30, k=2, seed=10)
    inst.compile()
    inst.demands.setflags(write=True)
    inst.demands[:] = inst.demands[::-1].copy()
    with pytest.raises(RuntimeError, match="mutated"):
        inst.compile()
