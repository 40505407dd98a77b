"""Self-test of the benchmark: tiny inputs, every workload, in about 90 seconds.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --size tiny`` untraced, traced, and
untraced again with the same seed, and checks that

* every metric ``BENCHMARK.json`` names is emitted with its unit;
* the output checks pass (``correct`` is true, nothing failed);
* the same seed gives identical input digests.

It also checks that ``BENCHMARK.json`` agrees with ``spec.py``, and that
the benchmark refuses to run, without printing a result, in a copy that
holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SEED = 7
SECONDS = "3"


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}: {proc.stdout[-2000:]}"
                             f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _input_digest(workload: str, trace: int) -> str:
    with open(os.path.join(OUT, f"{workload}-seed{SEED}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["notes"]["input_digest"]


def main() -> int:
    sys.path.insert(0, HERE)
    from spec import E2E, PER_LAYER, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)
            print(f"FAIL {message}", flush=True)

    expect({w["name"]: w["why"] for w in bench["workloads"]} == WORKLOADS,
           "BENCHMARK.json workloads differ from spec.WORKLOADS")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == E2E,
           "BENCHMARK.json end_to_end differs from spec.E2E")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]}
           == {name: row[0] for name, row in PER_LAYER.items()},
           "BENCHMARK.json per_layer differs from spec.PER_LAYER")

    for workload in WORKLOADS:
        for trace, table in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            try:
                result = _result(_run(ROOT, workload, trace))
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
                expect(False, f"{workload} trace={trace}: {exc}")
                continue
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: output checks failed")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == {m["name"]: m["unit"] for m in table},
                   f"{workload} trace={trace}: emitted metrics/units differ")
            print(f"ok   {workload} trace={trace}: {result['attempted']} attempted",
                  flush=True)
        first = _input_digest(workload, 0)
        try:
            _result(_run(ROOT, workload, 0))
            expect(_input_digest(workload, 0) == first,
                   f"{workload}: same seed gave different input digests")
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            expect(False, f"{workload} repeat: {exc}")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "paper-small", 0)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "a copy without the program's sources did not refuse to run")
    shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
