"""Per-layer metrics from program counters and benchmark spans.

:func:`layer_metrics` turns a registry delta (``common.registry_delta``)
and, in traced runs, a :class:`~tracing.Tracer` into the ``PER_LAYER``
table of :mod:`spec`.  Metrics a workload cannot reach read 0; the
service and online numbers come from the wire (``service_mixed``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from common import ratio
from spec import PER_LAYER


def layer_metrics(
    delta: Dict[str, float],
    tracer=None,
    wire: Optional[Dict[str, float]] = None,
) -> Dict[str, Tuple[float, str]]:
    def d(name: str) -> float:
        return float(delta.get(name, 0.0))

    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    out["knapsack.oracle_calls"] = d("oracle.calls")
    out["knapsack.fptas_dp_cells"] = d("fptas.dp_cells")
    out["packing.rotation_s"] = d("phase.rotation")
    out["packing.candidate_windows"] = d("rotation.candidate_windows")
    out["packing.windows_visited_share"] = ratio(
        d("rotation.windows_visited"), d("rotation.candidate_windows"))
    compile_lookups = d("engine.compile.hits") + d("engine.compile.misses")
    out["core.compile_lookups"] = compile_lookups
    out["core.compile_hit_ratio"] = ratio(d("engine.compile.hits"), compile_lookups)
    backend_solves = d("engine.backend.numpy") + d("engine.backend.python")
    out["core.backend_solves"] = backend_solves
    out["core.backend_numpy_share"] = ratio(d("engine.backend.numpy"), backend_solves)
    cache_lookups = d("engine.cache.hits") + d("engine.cache.misses")
    out["engine.cache_lookups"] = cache_lookups
    out["engine.cache_hit_ratio"] = ratio(d("engine.cache.hits"), cache_lookups)
    out["engine.partition_parts"] = d("engine.partition.parts")
    out["parallel.serial_retries"] = d("parallel.serial_retries")
    out["parallel.worker_failures"] = d("parallel.worker_failures")

    if tracer is not None:
        table = tracer.self_times()

        def self_s(*names: str) -> float:
            return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

        def layer_self(prefix: str) -> float:
            return sum(row["self_s"] for name, row in table.items()
                       if name.startswith(prefix + "."))

        out["knapsack.oracle_s"] = layer_self("knapsack")
        out["knapsack.repeat_share"] = ratio(tracer.oracle_repeats,
                                             tracer.oracle_calls)
        out["packing.local_search_s"] = self_s("packing.improve_solution")
        out["packing.self_s"] = layer_self("packing")
        out["core.compile_s"] = layer_self("core")
        out["model.constraints_s"] = layer_self("model")
        out["engine.verify_s"] = self_s("engine.verify")
        out["engine.partition_s"] = self_s("engine.partition_instance",
                                           "engine.solve_partitioned")
        out["engine.self_s"] = layer_self("engine")
        map_s = table.get("parallel.parallel_map", {}).get("total_s", 0.0)
        out["parallel.map_s"] = map_s
        out["parallel.overhead_s"] = (
            map_s - tracer.map_child_seconds() if map_s else 0.0)
    if wire:
        out.update(wire)
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from spec.PER_LAYER: {sorted(unknown)}")
    return {name: (float(out[name]), PER_LAYER[name][0]) for name in PER_LAYER}
