"""Exact 0/1 knapsack by min-weight-per-profit DP (integral profits).

The complement of :func:`repro.knapsack.exact.solve_exact_integer`: that DP
is ``O(n * C)`` over integral *weights*; this one is ``O(n * P)`` over
integral *profits* (``P`` = total profit) and handles arbitrary float
weights.  It is the exact backbone the FPTAS scales its profits into, so
sharing the implementation keeps the two consistent; with the paper's
profit-equals-demand objective on integer demands either DP applies.
"""

from __future__ import annotations

import numpy as np

from repro.knapsack.api import KnapsackResult, _as_arrays
from repro.numerics import is_integral

#: Safety cap on DP cells (items x profit columns).
_MAX_DP_CELLS = 50_000_000


def solve_exact_by_profit(weights, profits, capacity: float) -> KnapsackResult:
    """Optimal solution for integral profits via min-weight DP.

    ``dp[q]`` is the minimum weight achieving profit exactly ``q``; the
    answer is the largest ``q`` with ``dp[q] <= capacity``.  Vectorized
    over the profit axis (one shifted ``minimum`` per item).  Raises
    ``ValueError`` on non-integral profits or an oversized table.
    """
    w, p = _as_arrays(weights, profits)
    if not is_integral(p):
        raise ValueError("solve_exact_by_profit requires integral profits")
    cap = max(0.0, float(capacity))
    n = w.size
    if n == 0:
        return KnapsackResult.empty()
    fits = (w <= cap * (1.0 + 1e-12)) & (p > 0)
    idx = np.flatnonzero(fits)
    # zero-profit items never help; unfitting items never legal
    if idx.size == 0:
        return KnapsackResult.empty()
    wf = w[idx]
    pf = np.round(p[idx]).astype(np.int64)
    m = idx.size
    P = int(pf.sum())
    if (P + 1) * (m + 1) > _MAX_DP_CELLS:
        raise ValueError(
            f"profit DP table {m} x {P} exceeds cap; use branch & bound"
        )
    dp = np.full(P + 1, np.inf)
    dp[0] = 0.0
    take = np.zeros((m, P + 1), dtype=bool)
    for j in range(m):
        q = int(pf[j])
        cand = dp[: P + 1 - q] + wf[j]
        improved = cand < dp[q:]
        take[j, q:] = improved
        np.minimum(dp[q:], cand, out=dp[q:])
    feasible = np.flatnonzero(dp <= cap * (1.0 + 1e-12))
    qstar = int(feasible.max())
    chosen = []
    q = qstar
    for j in range(m - 1, -1, -1):
        if q >= 0 and take[j, q]:
            chosen.append(int(idx[j]))
            q -= int(pf[j])
    return KnapsackResult.of(np.array(chosen[::-1], dtype=np.intp), w, p)
