"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same requests untraced and then traced, and
reports the per-layer metrics, the self time of each layer and the
tracing overhead.  ``--size tiny`` shrinks every input so a run takes
seconds (used by ``perfbench/selftest.py``).

The program under test is imported from ``src/`` of the checkout that
holds this file.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record of the run (sample counts, tail percentiles, ratio bases, input
and output digests, counter deltas, self-time tables) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` and, for traced
runs, the spans to ``.perfbench_out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MODULES = {
    "paper-small": "paper_small",
    "metro-large": "metro_large",
    "service-mixed": "service_mixed",
}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC}/repro); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Keep temporary files (the service's forkserver socket) inside the
    # checkout when the path fits a Unix socket address (108 bytes).
    tmp = os.path.join(OUT, "tmp")
    if len(tmp) <= 64:
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
    from common import write_json
    from spec import E2E, PER_LAYER

    module = importlib.import_module(MODULES[args.workload])
    stem = f"{args.workload}-seed{args.seed}"
    outcome = module.run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        size=args.size, spans_path=os.path.join(OUT, f"{stem}.spans.jsonl"),
    )
    wanted = PER_LAYER if args.trace else E2E
    emitted = outcome.layer if args.trace else outcome.e2e
    missing = sorted(set(wanted) - set(emitted))
    outcome.check(not missing, f"metrics not emitted: {missing}")
    outcome.check(outcome.attempted > 0, "no operation was attempted")
    metrics = {
        name: {"value": float(emitted[name][0]), "unit": emitted[name][1]}
        for name in wanted if name in emitted
    }
    result = {
        "correct": outcome.correct,
        "attempted": int(max(1, outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    write_json(os.path.join(OUT, f"{stem}-trace{args.trace}.json"), {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "result": result,
        "e2e": {k: {"value": v, "unit": u} for k, (v, u) in outcome.e2e.items()},
        "layer": {k: {"value": v, "unit": u} for k, (v, u) in outcome.layer.items()},
        "problems": outcome.problems, "notes": outcome.notes,
    })
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in sorted({**outcome.e2e, **outcome.layer}.items()):
        print(f"{name} = {value:.6g} {unit}")
    for name, value in sorted(outcome.notes.get("extra_e2e", {}).items()):
        print(f"{name} = {value}")
    for layer, seconds in sorted(outcome.notes.get("self_time_by_layer", {}).items()):
        print(f"self time [{layer}] = {seconds:.6g} s")
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
