"""Shared numeric tolerance policy for capacity arithmetic.

Every packing solver ultimately asks the same two questions — "does this
demand still fit the remaining capacity?" and "how many capacity units
does this total need?" — and float summation order makes the naive
comparisons flaky exactly at the boundaries the paper's instances love
(subset-sum families are *built* from exact-capacity packings).  Before
this module each call site inlined its own slack constant
(``knapsack/api.py``, ``packing/covering.py``, ``packing/exact.py``,
``packing/insertion.py``, ...), and the mixed ``1e-12``-relative /
``1e-12``-absolute forms could disagree with each other at exact-capacity
boundaries.  This module is the single source of truth:

* :func:`fits` — the **solver-side admission predicate** (tight):
  ``weight <= remaining + 1e-12 * max(1, |remaining|)``.  The hybrid
  absolute/relative slack absorbs the one-ulp error of summing a handful
  of float64 demands in either magnitude regime.
* :func:`overloads` — the **verifier-side rejection predicate** (loose,
  ``1e-9`` relative).  Three decades looser than :func:`fits`, so any
  selection a solver admits is always accepted by every verifier: the two
  bands can never disagree about a solution's feasibility.
* :func:`ceil_units` — ceil-with-slack for "how many capacity units",
  immune to ``total/unit`` landing one ulp above an exact integer;
* :func:`is_integral` — the absolute-only integrality test that admits
  weights/profits into the exact oracles' integer DPs.

The constants are part of the repo's numeric contract: tightening
``FIT_SLACK`` or loosening ``VERIFY_RTOL`` is safe; the reverse risks a
solver admitting a packing its verifier rejects.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FIT_SLACK", "VERIFY_RTOL", "fits", "overloads", "ceil_units",
    "is_integral",
]

#: Solver-side admission slack (relative, floored at absolute 1e-12).
FIT_SLACK = 1e-12

#: Verifier-side rejection band (relative).  Must stay >= FIT_SLACK by a
#: comfortable margin so admitted packings always verify.
VERIFY_RTOL = 1e-9


def fits(weight, remaining, slack: float = FIT_SLACK):
    """Solver-side test that ``weight`` fits in ``remaining`` capacity.

    ``weight <= remaining + slack * max(1, |remaining|)`` — an exact-
    capacity item is admitted even when summation order costs one ulp.
    Works elementwise when ``weight`` is an array (``remaining`` scalar).

    >>> fits(1.0, 1.0)
    True
    >>> fits(1.0 + 1e-13, 1.0)
    True
    >>> fits(1.0 + 1e-9, 1.0)
    False
    """
    return weight <= remaining + slack * max(1.0, abs(remaining))


def overloads(load, capacity, rtol: float = VERIFY_RTOL):
    """Verifier-side test that ``load`` exceeds ``capacity``.

    Deliberately looser than :func:`fits` (``1e-9`` relative vs ``1e-12``)
    so the verifier never rejects a packing a solver legitimately
    admitted.  Works elementwise when ``load`` is an array.

    >>> overloads(1.0 + 1e-13, 1.0)
    False
    >>> overloads(1.0 + 1e-6, 1.0)
    True
    """
    return load > capacity * (1.0 + rtol)


def ceil_units(total: float, unit: float, slack: float = VERIFY_RTOL) -> int:
    """``ceil(total / unit)`` robust to a one-ulp overshoot of the ratio.

    The shared "how many antennas/bins of capacity ``unit`` does
    ``total`` demand need" idiom: an exactly divisible total must not
    round up because the division landed infinitesimally above an
    integer.

    >>> ceil_units(3.0000000000000004, 1.0)
    3
    >>> ceil_units(3.1, 1.0)
    4
    """
    return int(math.ceil(total / unit - slack))


def is_integral(values) -> bool:
    """True iff every value is within ``1e-9`` of an integer.

    Purely absolute (``rtol=0``): a relative band would call ``2.00001``
    integral, and an exact DP that rounds it to ``2`` returns a wrong
    optimum.

    >>> is_integral([1.0, 2.0 + 1e-12, 3.0])
    True
    >>> is_integral([2.00001, 1.0])
    False
    """
    arr = np.asarray(values, dtype=np.float64)
    return bool(np.allclose(arr, np.round(arr), rtol=0.0, atol=1e-9))
