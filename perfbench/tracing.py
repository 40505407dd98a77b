"""Spans around the program's public entry points, recorded from outside.

:class:`Tracer` wraps, at run time, the layer entry points a workload
reaches (engine solve, partition, pool map, rotation scan, local search,
sector greedy, knapsack oracles, compile, constraint masks, solution
verify, delta apply) and records one span per call: name, layer, start,
end, parent span and the benchmark's request id.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` restores every original.

Patching happens at each *use site* as well as the defining module,
because ``from module import name`` copies the function into the
importing module, where a patch of the defining module would not reach
it; methods are patched on their class.

Spans are kept in memory and written as JSONL by :meth:`Tracer.write`.
Only calls made while a request is active (:meth:`Tracer.request`) are
recorded, so the benchmark's own output checks never count as program
time.  Calls inside pool worker processes are not seen: their time shows
as the parent's ``parallel_map`` span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Module-level functions to wrap: (span name, defining module, attribute,
#: modules that import the function by name).
FUNCTIONS = (
    ("engine.solve", "repro.engine.core", "solve", ("repro.engine",)),
    ("engine.partition_instance", "repro.engine.partition",
     "partition_instance", ("repro.engine",)),
    ("engine.solve_partitioned", "repro.engine.partition",
     "solve_partitioned", ("repro.engine",)),
    ("parallel.parallel_map", "repro.parallel.pool", "parallel_map",
     ("repro.parallel",)),
    ("packing.best_rotation", "repro.packing.single", "best_rotation",
     ("repro.packing", "repro.packing.multi", "repro.packing.local_search",
      "repro.packing.sectors", "repro.packing.covering")),
    ("packing.improve_solution", "repro.packing.local_search",
     "improve_solution", ("repro.packing",)),
    ("packing.solve_sector_greedy", "repro.packing.sectors",
     "solve_sector_greedy", ("repro.packing",)),
    ("core.compile_instance", "repro.core.compiled", "compile_instance",
     ("repro.core",)),
    ("model.compose_station_masks", "repro.model.constraints",
     "compose_station_masks", ("repro.model",)),
)

#: Methods to wrap on their class: (span name, module, class, method).
METHODS = (
    ("knapsack.exact", "repro.knapsack.api", "ExactKnapsack", "solve"),
    ("knapsack.fptas", "repro.knapsack.api", "FptasKnapsack", "solve"),
    ("knapsack.greedy", "repro.knapsack.api", "GreedyKnapsack", "solve"),
    ("core.compile", "repro.model.instance", "AngleInstance", "compile"),
    ("core.compile", "repro.model.instance", "SectorInstance", "compile"),
    ("model.constraint_masks", "repro.core.compiled", "CompiledSectorInstance",
     "constraint_masks"),
    ("engine.verify", "repro.model.solution", "AngleSolution", "verify"),
    ("engine.verify", "repro.model.solution", "SectorSolution", "verify"),
    ("engine.verify", "repro.model.solution", "FractionalSolution", "verify"),
    ("online.apply", "repro.online.delta", "DeltaCompiledInstance", "apply"),
)

#: Span record layout (tuples keep the hot path cheap).
_ID, _PARENT, _NAME, _START, _END, _REQUEST, _EXTRA = range(7)


def _oracle_key(args: Tuple[Any, ...]) -> Optional[bytes]:
    """Content key of a knapsack oracle call ``(weights, profits, capacity)``."""
    if len(args) < 3:
        return None
    weights, profits, capacity = args[:3]
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(profits, dtype=np.float64).tobytes())
    h.update(repr(float(capacity)).encode("ascii"))
    return h.digest()


class Tracer:
    """In-memory span recorder that patches entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._request: Optional[int] = None
        self._origin = time.perf_counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._oracle_seen: Dict[int, set] = {}
        self.oracle_calls = 0
        self.oracle_repeats = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def request(self, request_id: int):
        """Mark calls made inside the block as belonging to one request."""
        self._request = int(request_id)
        try:
            yield
        finally:
            self._request = None
            self._oracle_seen.pop(int(request_id), None)

    def record(self, name: str, start: float, end: float,
               request_id: Optional[int], extra: Optional[dict] = None) -> None:
        """Add a span measured elsewhere (client-side wire spans)."""
        self._next_id += 1
        self.spans.append((self._next_id, None, name, start, end, request_id, extra))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        is_oracle = name.startswith("knapsack.")
        is_map = name == "parallel.parallel_map"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = tracer._request
            if rid is None:
                return fn(*args, **kwargs)
            if is_oracle:
                tracer._count_oracle(rid, _oracle_key(args[1:]))
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            extra = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_map:
                    extra = {"child_s": sum(
                        float(getattr(r, "seconds", 0.0) or 0.0) for r in result
                    ), "items": len(result)}
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, rid, extra))

        return wrapper

    def _count_oracle(self, rid: int, key: Optional[bytes]) -> None:
        self.oracle_calls += 1
        if key is None:
            return
        seen = self._oracle_seen.setdefault(rid, set())
        if key in seen:
            self.oracle_repeats += 1
        else:
            seen.add(key)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for name, module, attr, users in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, original)
            for mod_name in (module,) + users:
                mod = importlib.import_module(mod_name)
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for name, module, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds.

        A span's self time is its duration minus the durations of its
        direct children (children never overlap: calls are synchronous).
        """
        child_s: Dict[int, float] = {}
        for span in self.spans:
            if span[_PARENT] is not None:
                child_s[span[_PARENT]] = (child_s.get(span[_PARENT], 0.0)
                                          + span[_END] - span[_START])
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            dur = span[_END] - span[_START]
            row = table.setdefault(span[_NAME],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_s.get(span[_ID], 0.0)
        return table

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds summed per layer (the span-name prefix)."""
        layers: Dict[str, float] = {}
        for name, row in self.self_times().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return layers

    def map_child_seconds(self) -> float:
        return sum(
            (span[_EXTRA] or {}).get("child_s", 0.0)
            for span in self.spans if span[_NAME] == "parallel.parallel_map"
        )

    def layers_seen(self) -> List[str]:
        return sorted({span[_NAME] for span in self.spans})

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span[_ID],
                    "parent": span[_PARENT],
                    "name": span[_NAME],
                    "layer": span[_NAME].split(".", 1)[0],
                    "start_s": round(span[_START] - self._origin, 9),
                    "end_s": round(span[_END] - self._origin, 9),
                    "request": span[_REQUEST],
                    **({"extra": span[_EXTRA]} if span[_EXTRA] else {}),
                }, separators=(",", ":")))
                fh.write("\n")
