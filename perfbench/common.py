"""Shared pieces of the workloads: statistics, digests, counters, memory.

Every number the benchmark reports is computed here from raw samples the
workloads collect, so the three workloads define their metrics the same
way.  Nothing in this module touches the program under test except
through its public registry snapshot (:func:`registry_delta`).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentile ladder for tail latency, highest first.  A percentile is
#: reported only when at least ``TAIL_MIN_BEYOND`` samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Outcome:
    """What one workload run produced.

    ``e2e`` and ``layer`` map metric names to ``(value, unit)``;
    ``notes`` holds everything else the results file records (sample
    counts, tail percentiles, ratio bases, digests, failed checks).
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    e2e: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Record a failed output check (the run then reports incorrect)."""
        if not ok and len(self.problems) < 50:
            self.problems.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    n = len(sorted_values)
    idx = min(n - 1, max(0, int(-(-pct * n // 100)) - 1))
    return float(sorted_values[idx])


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest ladder percentile with ten samples beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return {"value": nearest_rank(ordered, pct), "percentile": pct,
                    "samples": n}
    return None


def tail_text(summary: Optional[Dict[str, float]], samples: int) -> str:
    """Human form of :func:`tail` in ms, naming the percentile and sample count."""
    if summary is None:
        return f"omitted ({samples} samples, too few for a tail)"
    return (f"{summary['value']:.6g} ms "
            f"(p{summary['percentile']:g} of {summary['samples']} samples)")


def ratio(numerator: float, base: float) -> float:
    return float(numerator) / float(base) if base else 0.0


def digest(parts: Iterable[str]) -> str:
    """SHA-256 over a sequence of strings (inputs or solved values)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def value_token(value: float) -> str:
    """Stable text form of a solved value for output digests."""
    return repr(round(float(value), 9))


# ----------------------------------------------------------------------
# Program counters
# ----------------------------------------------------------------------
def registry_snapshot() -> Dict[str, dict]:
    from repro.obs.metrics import get_registry

    return get_registry().snapshot()


def _scalar(entry: Optional[dict]) -> float:
    if not entry:
        return 0.0
    kind = entry.get("type")
    if kind == "timer":
        return float(entry.get("total_s", 0.0))
    if kind == "histogram":
        return float(entry.get("total", 0.0))
    return float(entry.get("value", 0.0))


def registry_delta(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, float]:
    """Per-metric change: counter values, timer seconds, histogram totals.

    Gauges are reported at their ``after`` value; timers and histograms
    also get a ``<name>.count`` entry.
    """
    delta: Dict[str, float] = {}
    for name, entry in after.items():
        prev = before.get(name)
        if entry.get("type") == "gauge":
            delta[name] = _scalar(entry)
            continue
        delta[name] = _scalar(entry) - _scalar(prev)
        if entry.get("type") in ("timer", "histogram"):
            delta[f"{name}.count"] = float(
                entry.get("count", 0) - (prev or {}).get("count", 0)
            )
    return delta


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def own_peak_rss_mb() -> Tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process from ``/proc``, in MiB (0 if unknown)."""
    try:
        with open(f"/proc/{int(pid)}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# Set-up timing
# ----------------------------------------------------------------------
def timed(fn) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
