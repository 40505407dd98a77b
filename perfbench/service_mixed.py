"""service-mixed: ``serve --workers 1`` under an open-loop request mix.

The service runs as a subprocess (``python -m repro serve --port 0
--workers 1``).  When two CPUs are available, the supervised engine
worker gets one and the server parent shares the other with this
generator.  The generator is one process with one connection and one
reader thread.

* **Lone phase**: 60 sequential ``greedy`` ``eps=0.5`` solves of fresh
  ``uniform`` n = 20, k = 2 instances, each sent only after the previous
  answer plus an idle gap, so nothing else is in flight.
* **Open-loop phase**: Poisson arrivals at ``RATE`` req/s (about half the
  rate the service saturates at on two cores).  ~85% are ``solve`` ops
  on small angle instances, ~20% of which repeat recent content so the
  parent's warm cache answers them; ~15% are ``event`` ops carrying four
  add/remove/update events against one of two delta sessions (opened
  during set-up on n = 2e4 angle instances) and a ``greedy`` resolve.
  Latency is timed from each request's due time; the generator's
  lateness is recorded.

Every solve answer is revived and re-verified; every event answer is
replayed on a local delta session after the run, which must reproduce
the service's fingerprint and resolved value.  The run fails unless the
``stats`` deltas show ``service.worker.dispatches > 0`` and
``service.worker.degraded == 0``: answers served by the in-process
fallback would not measure the supervised path.
"""

from __future__ import annotations

import json
import os
import queue
import select
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from common import (
    Outcome, digest, median, nearest_rank, pid_peak_rss_mb, ratio,
    registry_delta, tail, tail_text, timed, value_token,
)
from layers import layer_metrics

RATE = 30.0
EVENT_SHARE = 0.15
REPEAT_SHARE = 0.20
REPEAT_WINDOW = 50
EVENTS_PER_OP = 4
SOLVE_FAMILIES = ("uniform", "clustered", "mixed")
SOLVE_SIZES = (20, 30)
EPS = 0.5
LONE_GAP_S = 0.015
SLO_MS = 100.0
SETUP_REPEATS = 5
SIZES = {
    "full": {"session_n": 20_000, "lone": 60},
    "tiny": {"session_n": 2_000, "lone": 10},
}
READY_TIMEOUT_S = 60.0
ANSWER_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _lone_instance(rng: np.random.Generator):
    """The lone-phase request: one fixed shape, so only the draw varies."""
    from repro.model.generators import uniform_angles

    return uniform_angles(n=20, k=2, seed=rng)


def _solve_instance(rng: np.random.Generator):
    from repro.model.generators import ANGLE_FAMILIES

    family = SOLVE_FAMILIES[int(rng.integers(len(SOLVE_FAMILIES)))]
    kwargs = {"n": int(SOLVE_SIZES[int(rng.integers(len(SOLVE_SIZES)))]),
              "seed": rng}
    if family != "mixed":
        kwargs["k"] = int(rng.integers(2, 4))
    return ANGLE_FAMILIES[family](**kwargs)


def _solve_line(rid: str, payload: dict) -> bytes:
    return (json.dumps({"op": "solve", "id": rid, "instance": payload,
                        "algorithm": "greedy", "eps": EPS, "solution": True},
                       separators=(",", ":")) + "\n").encode()


class Inputs:
    """Everything the run sends, generated from the seed before timing."""

    def __init__(self, seed: int, seconds: float, size: str):
        from repro.model.generators import uniform_angles
        from repro.model.serialization import instance_from_dict, instance_to_dict
        from repro.online.delta import (
            AddCustomer, RemoveCustomer, UpdateDemand, event_to_dict,
        )

        rng = np.random.default_rng([seed, 3])
        n0 = SIZES[size]["session_n"]
        # Round-trip through the wire format so local replays start from
        # exactly what the service parsed.
        self.sessions = [
            instance_from_dict(instance_to_dict(uniform_angles(
                n=n0, k=3, capacity_fraction=4.0, seed=rng)))
            for _ in range(2)
        ]
        self.session_lines = [
            (json.dumps({"op": "event", "id": f"open{s}", "session": f"s{s}",
                         "instance": instance_to_dict(inst)},
                        separators=(",", ":")) + "\n").encode()
            for s, inst in enumerate(self.sessions)
        ]
        self.instances: Dict[str, Any] = {}  # content id -> instance
        # (rid, content, line) per lone request; a traced run first sends
        # ``lone_untraced``, fresh content of the same shape, so neither
        # lone phase is answered from the other's cache entries.
        self.lone: List[Tuple[str, str, bytes]] = []
        self.lone_untraced: List[Tuple[str, str, bytes]] = []
        for phase, rows in (("l", self.lone), ("u", self.lone_untraced)):
            for i in range(SIZES[size]["lone"]):
                inst = _lone_instance(rng)
                cid, rid = f"{phase.upper()}{i}", f"{phase}{i}"
                self.instances[cid] = inst
                rows.append((rid, cid, _solve_line(rid, instance_to_dict(inst))))
        self.warm = [_solve_line(f"w{i}", instance_to_dict(_solve_instance(rng)))
                     for i in range(5)]

        # Open loop: (offset_s, rid, kind, content or session, line).
        self.open: List[Tuple[float, str, str, Any, bytes]] = []
        self.session_events: List[List[Tuple[str, list]]] = [[], []]
        sizes = [n0, n0]
        originals: List[str] = []
        t = 0.0
        i = 0
        while True:
            t += float(rng.exponential(1.0 / RATE))
            if t >= seconds:
                break
            rid = f"o{i}"
            i += 1
            if rng.random() < EVENT_SHARE:
                s = int(rng.integers(2))
                events = []
                for _ in range(EVENTS_PER_OP):
                    pick = int(rng.integers(3))
                    if pick == 0:
                        events.append(AddCustomer(
                            demand=float(rng.uniform(0.2, 1.8)),
                            theta=float(rng.uniform(0.0, 2 * np.pi))))
                        sizes[s] += 1
                    elif pick == 1:
                        events.append(RemoveCustomer(index=int(rng.integers(sizes[s]))))
                        sizes[s] -= 1
                    else:
                        events.append(UpdateDemand(index=int(rng.integers(sizes[s])),
                                                   demand=float(rng.uniform(0.2, 1.8))))
                wire = [event_to_dict(e) for e in events]
                self.session_events[s].append((rid, events))
                line = (json.dumps({"op": "event", "id": rid, "session": f"s{s}",
                                    "events": wire,
                                    "resolve": {"algorithm": "greedy", "eps": EPS}},
                                   separators=(",", ":")) + "\n").encode()
                self.open.append((t, rid, "event", s, line))
                continue
            if originals and rng.random() < REPEAT_SHARE:
                cid = originals[-1 - int(rng.integers(min(REPEAT_WINDOW, len(originals))))]
                kind = "repeat"
            else:
                cid = f"O{i}"
                self.instances[cid] = _solve_instance(rng)
                originals.append(cid)
                kind = "solve"
            self.open.append((t, rid, kind, cid,
                              _solve_line(rid, instance_to_dict(self.instances[cid]))))

    def digest(self) -> str:
        from repro.engine import fingerprint

        parts = [fingerprint(s) for s in self.sessions]
        parts += [f"{cid}:{fingerprint(inst)}" for cid, inst in self.instances.items()]
        parts += [f"{t!r}|{rid}|{kind}|{what}" for t, rid, kind, what, _ in self.open]
        parts += [line.decode() for _t, _rid, kind, _what, line in self.open
                  if kind == "event"]
        return digest(parts)


# ----------------------------------------------------------------------
# Service process and connection
# ----------------------------------------------------------------------
class Service:
    """One ``serve --workers 1`` subprocess plus one client connection."""

    def __init__(self, root: str, log_path: str):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        os.makedirs(os.path.dirname(log_path), exist_ok=True)
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", "1"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._await_ready()
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.answers: "queue.Queue[Tuple[float, dict]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"service did not start: {buf!r}")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"service exited before ready: {buf!r}")
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        # "serving on 127.0.0.1:PORT (...)"
        return int(line.split("serving on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def _read(self) -> None:
        reader = self.sock.makefile("rb")
        try:
            for line in reader:
                self.answers.put((time.perf_counter(), json.loads(line)))
        except (OSError, ValueError):
            pass

    def send(self, line: bytes) -> float:
        sent = time.perf_counter()
        self.sock.sendall(line)
        return sent

    def wait_for(self, rid: str, timeout_s: float = ANSWER_TIMEOUT_S) -> Tuple[float, dict]:
        """Block until the answer for ``rid`` arrives (nothing else is in flight)."""
        deadline = time.monotonic() + timeout_s
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"no answer for {rid}")
            try:
                t, answer = self.answers.get(timeout=left)
            except queue.Empty:
                raise TimeoutError(f"no answer for {rid}") from None
            if answer.get("id") == rid:
                return t, answer

    def call(self, line: bytes, rid: str) -> Tuple[float, float, dict]:
        sent = self.send(line)
        t, answer = self.wait_for(rid)
        return sent, t, answer

    def stats(self, tag: str) -> dict:
        _, _, answer = self.call(
            (json.dumps({"op": "stats", "id": tag}) + "\n").encode(), tag)
        return answer

    def pids(self, stats: dict) -> List[int]:
        workers = (stats.get("workers") or {}).get("workers", [])
        return [self.proc.pid] + [w["pid"] for w in workers if w.get("pid")]

    def close(self) -> Tuple[int, str]:
        """Drain the service; returns (exit code, its stdout after ready)."""
        try:
            self.call(b'{"op":"shutdown","id":"bye"}\n', "bye")
        except (OSError, TimeoutError):
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self._reader.join(timeout=5)
        self._log.close()
        return self.proc.returncode, (out or b"").decode(errors="replace")


def _pin(service: Service, stats: dict, cpus: List[int]) -> None:
    """Worker on one CPU; server parent and generator on another."""
    workers = service.pids(stats)[1:]
    if len(cpus) < 2 or not workers:
        return
    try:
        for pid in (0, service.proc.pid):
            os.sched_setaffinity(pid, {cpus[0]})
        for pid in workers:
            os.sched_setaffinity(pid, {cpus[1]})
    except OSError:
        pass  # not permitted here: the run measures unpinned


def _start(inputs: Inputs, root: str, log_path: str, cpus: List[int]) -> Service:
    service = Service(root, log_path)
    try:
        stats = service.stats("st0")
        _pin(service, stats, cpus)
        for s, line in enumerate(inputs.session_lines):
            _, _, answer = service.call(line, f"open{s}")
            if answer.get("status") != 0:
                raise RuntimeError(f"session open failed: {answer.get('error')}")
        for i, line in enumerate(inputs.warm):
            service.call(line, f"w{i}")
        for s in range(2):
            rid = f"warm-ev{s}"
            service.call((json.dumps({"op": "event", "id": rid, "session": f"s{s}",
                                      "resolve": {"algorithm": "greedy", "eps": EPS}})
                          + "\n").encode(), rid)
    except BaseException:
        service.close()
        raise
    return service


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _metric(stats: dict, name: str, field: str = "value") -> float:
    return float(((stats.get("metrics") or {}).get(name) or {}).get(field, 0.0))


def _set_up(seed: int, open_s: float, size: str, root: str, log_path: str,
            outcome: Outcome) -> Tuple[Inputs, Service]:
    """Generate inputs and start the service ``SETUP_REPEATS`` times.

    ``setup_s`` is the median; every repeat but the last is drained again.
    """
    times: List[float] = []
    digests = set()
    cpus = sorted(os.sched_getaffinity(0))  # before the first pinning
    for attempt in range(SETUP_REPEATS):
        def setup():
            inputs = Inputs(seed, open_s, size)
            return inputs, _start(inputs, root, log_path, cpus)

        took, (inputs, service) = timed(setup)
        times.append(took)
        digests.add(inputs.digest())
        if attempt < SETUP_REPEATS - 1:
            code, _ = service.close()
            outcome.check(code == 0, f"set-up service exited with {code}")
    outcome.check(len(digests) == 1, "set-up repeats produced different inputs")
    outcome.notes["setup_repeats_s"] = times
    outcome.notes["input_digest"] = next(iter(digests))
    outcome.e2e["setup_s"] = (median(times), "s")
    return inputs, service


@dataclass
class Drive:
    """Raw observations of the measured phases."""

    lone: List[Tuple[str, float, float, dict]] = field(default_factory=list)
    lone_untraced: List[Tuple[str, float, float, dict]] = field(default_factory=list)
    start: float = 0.0
    sent_at: Dict[str, float] = field(default_factory=dict)
    lag_ms: List[float] = field(default_factory=list)
    answers: Dict[str, Tuple[float, dict]] = field(default_factory=dict)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0


def _drive(service: Service, inputs: Inputs, tracer) -> Drive:
    """Lone phase (twice when traced: untraced first), then the open loop."""
    drive = Drive(before=service.stats("st1"))

    def lone_phase(requests, record) -> List[Tuple[str, float, float, dict]]:
        rows = []
        for n, (rid, cid, line) in enumerate(requests):
            sent, got, answer = service.call(line, rid)
            if record is not None:
                record.record("service.solve", sent, got, n)
            rows.append((cid, sent, got, answer))
            time.sleep(LONE_GAP_S)
        return rows

    if tracer is not None:
        drive.lone_untraced = lone_phase(inputs.lone_untraced, None)
    drive.lone = lone_phase(inputs.lone, tracer)

    drive.start = time.perf_counter() + 0.05
    for offset, rid, _kind, _what, line in inputs.open:
        due = drive.start + offset
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        drive.sent_at[rid] = service.send(line)
        drive.lag_ms.append(1000.0 * (drive.sent_at[rid] - due))
    pending = {rid for _, rid, *_ in inputs.open}
    deadline = time.monotonic() + ANSWER_TIMEOUT_S
    while pending and time.monotonic() < deadline:
        try:
            t, answer = service.answers.get(timeout=max(0.01, deadline - time.monotonic()))
        except queue.Empty:
            break
        rid = answer.get("id")
        if rid in pending:
            pending.discard(rid)
            drive.answers[rid] = (t, answer)
    drive.after = service.stats("st2")
    drive.peak_rss_mb = max(pid_peak_rss_mb(pid) for pid in service.pids(drive.after))
    return drive


class SolveChecker:
    """Re-verifies solve answers; repeats must match their original."""

    def __init__(self, inputs: Inputs, outcome: Outcome):
        self.inputs = inputs
        self.outcome = outcome
        self.bounds: Dict[str, float] = {}
        self.values: Dict[str, float] = {}
        self.quality: List[float] = []
        self.out_values: List[str] = []

    def __call__(self, cid: str, answer: dict, label: str) -> bool:
        from inprocess import upper_bound
        from repro.model.serialization import solution_from_dict

        check = self.outcome.check
        if not check(answer.get("status") == 0,
                     f"{label}: status {answer.get('status')} {answer.get('error')}"):
            return False
        inst = self.inputs.instances[cid]
        try:
            sol = solution_from_dict(answer["solution"])
            sol.verify(inst)
        except Exception as exc:  # noqa: BLE001 - any failure is a wrong answer
            return check(False, f"{label}: verify failed: {exc}")
        value = float(answer["value"])
        ok = check(abs(sol.value(inst) - value) <= 1e-9 * max(1.0, value),
                   f"{label}: value {value} != solution value")
        if cid in self.values:
            ok &= check(value == self.values[cid],
                        f"{label}: repeat returned {value}, original "
                        f"{self.values[cid]} (cached={answer.get('cached')})")
        self.values.setdefault(cid, value)
        if cid not in self.bounds:
            self.bounds[cid] = upper_bound(inst)
        ok &= check(value <= self.bounds[cid] * (1 + 1e-9) + 1e-9,
                    f"{label}: value above upper bound")
        if ok:
            self.quality.append(ratio(value, self.bounds[cid]))
            self.out_values.append(value_token(value))
        return ok


def _replay(inputs: Inputs, event_answers: Dict[str, dict], outcome: Outcome,
            out_values: List[str], tracer) -> Dict[str, float]:
    """Replay every session locally: same fingerprint, same resolved value.

    Returns the online-layer numbers read from the event answers.  In a
    traced run the local applies are the online layer's spans; the
    worker's own apply is measured from the wire (``online.apply_ms``).
    """
    from repro.engine import SolveRequest, solve
    from repro.online.delta import DeltaCompiledInstance

    apply_ms: List[float] = []
    resolve_ms: List[float] = []
    invalidated = retained = 0
    for s, ops in enumerate(inputs.session_events):
        local = DeltaCompiledInstance(inputs.sessions[s])
        for rid, events in ops:
            if tracer is not None:
                with tracer.request(len(inputs.lone) + int(rid[1:])):
                    local.apply(events)
            else:
                local.apply(events)
            answer = event_answers.get(rid)
            if answer is None:
                break  # later events of this session are unverifiable
            extra = answer.get("extra") or {}
            outcome.check(extra.get("fingerprint") == local.publish(),
                          f"{rid}: session fingerprint differs from local replay")
            want = solve(SolveRequest(instance=local.instance, algorithm="greedy",
                                      eps=EPS, use_cache=False)).value
            outcome.check(abs(float(answer["value"]) - want) <= 1e-9 * max(1.0, want),
                          f"{rid}: resolve value {answer['value']} != local {want}")
            out_values.append(value_token(answer["value"]))
            resolved = extra.get("resolve") or {}
            resolve_ms.append(1000.0 * float(resolved.get("seconds", 0.0)))
            apply_ms.append(1000.0 * (float(answer.get("seconds", 0.0))
                                      - float(resolved.get("seconds", 0.0))))
            invalidated += int(extra.get("invalidated", 0))
            retained += int(extra.get("retained", 0))
    return {
        "online.apply_ms": median(apply_ms),
        "online.resolve_ms": median(resolve_ms),
        "online.invalidated_share": ratio(invalidated, invalidated + retained),
        "online.touched_keys": float(invalidated + retained),
    }


def run(seed: int, seconds: float, trace: bool, size: str, spans_path: str) -> Outcome:
    outcome = Outcome()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    log_path = os.path.join(os.path.dirname(spans_path), f"service-seed{seed}.log")
    # The lone phase (~20 ms per request plus its gap, twice when traced)
    # comes out of the run's seconds; the open loop gets the rest.
    lone_budget_s = SIZES[size]["lone"] * (LONE_GAP_S + 0.02) * (2 if trace else 1)
    inputs, service = _set_up(seed, max(1.0, seconds - lone_budget_s), size,
                              root, log_path, outcome)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        drive = _drive(service, inputs, tracer)
    finally:
        code, out = service.close()
    outcome.check(code == 0 and "drained cleanly" in out,
                  f"service did not drain cleanly (exit {code}): {out.strip()[-200:]}")

    check_solve = SolveChecker(inputs, outcome)
    attempted = failed = 0
    lone_ms: List[float] = []
    overhead_ms: List[float] = []
    batch_sizes: List[int] = []
    for cid, sent, got, answer in drive.lone:
        attempted += 1
        if check_solve(cid, answer, f"lone {cid}"):
            lone_ms.append(1000.0 * (got - sent))
            overhead_ms.append(1000.0 * (got - sent - float(answer.get("seconds", 0.0))))
            batch_sizes.append(int(answer.get("batch_size", 1)))
        else:
            failed += 1

    solve_ms: List[float] = []
    event_ms: List[float] = []
    slo_ok = 0
    event_answers: Dict[str, dict] = {}
    for n, (offset, rid, kind, what, _line) in enumerate(inputs.open):
        attempted += 1
        if rid not in drive.answers:
            failed += 1
            outcome.check(False, f"{rid}: no answer")
            continue
        got, answer = drive.answers[rid]
        latency = 1000.0 * (got - (drive.start + offset))
        if tracer is not None:
            tracer.record(f"service.{'event' if kind == 'event' else 'solve'}",
                          drive.sent_at[rid], got, len(inputs.lone) + n)
        if kind == "event":
            ok = outcome.check(answer.get("status") == 0,
                               f"{rid}: event status {answer.get('status')} "
                               f"{answer.get('error')}")
            if ok:
                event_answers[rid] = answer
                event_ms.append(latency)
        else:
            ok = check_solve(what, answer, f"{rid} ({kind})")
            if ok:
                solve_ms.append(latency)
                batch_sizes.append(int(answer.get("batch_size", 1)))
                if not answer.get("cached"):
                    overhead_ms.append(1000.0 * (got - drive.sent_at[rid]
                                                 - float(answer.get("seconds", 0.0))))
        if not ok:
            failed += 1
        elif latency <= SLO_MS:
            slo_ok += 1

    if tracer is not None:
        tracer.install()
    try:
        online = _replay(inputs, event_answers, outcome, check_solve.out_values, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    delta = registry_delta(drive.before.get("metrics", {}), drive.after.get("metrics", {}))
    dispatches = delta.get("service.worker.dispatches", 0.0)
    degraded = delta.get("service.worker.degraded", 0.0)
    outcome.check(dispatches > 0, "stats show no worker dispatches")
    outcome.check(degraded == 0, f"stats show {degraded:g} degraded (in-process) answers")

    ok_open = len(solve_ms) + len(event_ms)
    open_wall = (max(t for t, _ in drive.answers.values()) - drive.start
                 if drive.answers else 0.0)
    quality = check_solve.quality
    outcome.attempted = attempted
    outcome.failed = failed
    outcome.e2e.update({
        "throughput_ops_s": (ratio(ok_open, open_wall), "ops/s"),
        "solve_p50_ms": (median(solve_ms), "ms"),
        "lone_p50_ms": (median(lone_ms), "ms"),
        "quality_ratio": (sum(quality) / len(quality) if quality else 0.0, "ratio"),
        "success_rate": (1.0 - ratio(failed, attempted), "share"),
        "peak_rss_mb": (drive.peak_rss_mb, "MiB"),
    })
    sent_total = len(inputs.open)
    outcome.notes["extra_e2e"] = {
        "solve_tail_ms": tail_text(tail(solve_ms), len(solve_ms)),
        "event_p50_ms": f"{median(event_ms):.6g} ms ({len(event_ms)} samples)",
        "event_tail_ms": tail_text(tail(event_ms), len(event_ms)),
        "slo_attainment": f"{ratio(slo_ok, sent_total):.6g} share "
                          f"(status 0 within {SLO_MS:g} ms of due, {sent_total} sent)",
        "error_rate": f"{ratio(failed, attempted):.6g} share",
    }
    lag_ms = sorted(drive.lag_ms)
    wire = dict(online)
    wire.update({
        "service.overhead_ms": median(overhead_ms),
        "service.server_p50_ms": 1000.0 * _metric(drive.after, "service.latency", "p50"),
        "service.worker_p50_ms": 1000.0 * _metric(drive.after, "service.worker.latency",
                                                  "p50"),
        "service.batch_size_mean": (sum(batch_sizes) / len(batch_sizes)
                                    if batch_sizes else 0.0),
        "service.cache_served_share": ratio(delta.get("service.cache_served", 0.0),
                                            delta.get("service.requests", 0.0)),
        "service.requests": delta.get("service.requests", 0.0),
        "service.dispatches": dispatches,
        "service.degraded": degraded,
        "service.redispatches": delta.get("service.worker.redispatches", 0.0),
        "service.shed": delta.get("service.shed", 0.0),
        "service.expired": delta.get("service.expired", 0.0),
        "service.generator_lag_ms": nearest_rank(lag_ms, 99.0) if lag_ms else 0.0,
    })
    if tracer is not None:
        untraced_ms = [1000.0 * (got - sent) for _, sent, got, _ in drive.lone_untraced]
        wire["trace.p50_delta_ms"] = median(lone_ms) - median(untraced_ms)
        wire["trace.throughput_delta_ops_s"] = (
            ratio(len(lone_ms), sum(lone_ms) / 1000.0)
            - ratio(len(untraced_ms), sum(untraced_ms) / 1000.0))
        outcome.layer = layer_metrics({}, None, wire)
        tracer.write(spans_path)
        outcome.notes["spans"] = {"path": spans_path, "count": len(tracer.spans),
                                  "names": tracer.layers_seen()}
        outcome.notes["self_time_by_span"] = tracer.self_times()
        outcome.notes["self_time_by_layer"] = tracer.layer_self_times()
    outcome.notes.update({
        "wire": wire,
        "solves": len(solve_ms), "events": len(event_ms), "lone": len(lone_ms),
        "sent_open": sent_total, "open_wall_s": open_wall,
        "generator_lag_ms": {"p50": median(lag_ms), "max": lag_ms[-1] if lag_ms else 0.0},
        "output_digest": digest(check_solve.out_values),
        "stats_delta": {k: v for k, v in delta.items() if v and k.startswith("service.")},
    })
    return outcome
