"""The ``serve-durable`` workload: a live ``repro serve`` process with
the crash-safe journal, driven open-loop by one client process.

Each step starts a fresh server (``--m 8``, EFT-Min, ``--journal`` in
a scratch directory, ``--journal-fsync commit``) whose ``--time-scale``
makes one service time equal one virtual unit, then runs
:mod:`perfbench.client` against it at one rate and offered load 0.7.
The reference step runs at :data:`~perfbench.metrics.REF_RPS`; the
ladder then climbs :data:`~perfbench.metrics.LADDER` and stops at the
first step that misses the limit (or, if the reference misses it,
steps down until one meets it).

A step meets the limit when the realised mean flow — the median over
half-second windows, so one fsync stall on a shared disk does not end
the ladder — is at most :data:`FLOW_LIMIT` times the dispatcher's
predicted mean flow, every request is acked, and the client's send lag
p99 stays within one service time (otherwise the step is *invalid*:
the generator, not the server, fell behind).

The traced run replays a prefix of the reference step's request stream
in-process through the public functions, in the order the server calls them, with
the server's journal settings — server internals cannot be timed from
outside its process.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from pathlib import Path
from typing import Any, Callable

from repro.serve.driver import DriveReport, percentile

from .common import ROOT, SETUP_SAMPLES, Outcome, child_env, cpu_seconds, peak_rss_mb
from .metrics import LADDER, REF_RPS, layer_metrics
from .spans import Tracer
from .speed import SpeedProbe

CLIENT = Path(__file__).resolve().parent / "client.py"

#: A step meets the limit when realised mean flow <= FLOW_LIMIT x predicted.
FLOW_LIMIT = 1.5
#: Shares of ``--seconds`` spent at the reference rate and on each
#: ladder step.
REF_SHARE = 0.8
STEP_SHARE = 0.075
#: Seconds a spawned server has to answer ``ping``.
START_TIMEOUT_S = 60.0
#: Requests of the reference stream the traced run replays in-process
#: (a prefix, so a slow disk's fsyncs cannot stretch the run).
REPLAY_REQUESTS = 2000


@dataclass
class Step:
    rate: int
    n: int
    #: seconds from spawn to the first ``ping`` answer
    setup_s: float
    cpu_us_per_req: float
    peak_rss_mb: float
    drive: dict[str, Any]

    @property
    def service_ms(self) -> float:
        return time_scale(self.rate) * 1e3

    # A step without acks has failed its requests; its latencies read 0.
    @property
    def ack_p50_ms(self) -> float:
        return percentile(self.drive["ack_ms"], 0.50) if self.drive["ack_ms"] else 0.0

    @property
    def ack_p99_ms(self) -> float:
        return percentile(self.drive["ack_ms"], 0.99) if self.drive["ack_ms"] else 0.0

    @property
    def flow_mean(self) -> float:
        return self.drive["wall_flow_mean"] or 0.0

    @property
    def flow_max(self) -> float:
        return self.drive["wall_flow_max"] or 0.0

    @property
    def flow_window_median(self) -> float:
        """Median over windows of the realised mean flow: one stall on
        a shared disk moves one window, a sustained overload moves all."""
        windows = self.drive["window_flow_means"]
        return median(windows) if windows else self.flow_mean

    @property
    def lag_p99_ms(self) -> float:
        return percentile(self.drive["lag_ms"], 0.99)

    @property
    def valid(self) -> bool:
        return self.lag_p99_ms <= self.service_ms

    @property
    def meets(self) -> bool:
        d = self.drive
        return (
            self.valid
            and d["n_bad"] == 0
            and 0.0 < self.flow_window_median <= FLOW_LIMIT * d["est_flow_mean"]
        )


def time_scale(rate: float) -> float:
    """Wall seconds per virtual unit that make ``rate`` requests per
    second arrive at offered load 0.7."""
    from .client import VIRTUAL_RATE

    return VIRTUAL_RATE / rate


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return buf


def request(path: str, message: dict[str, Any], timeout: float = 30.0) -> dict[str, Any]:
    """One synchronous request/response on a fresh connection."""
    from repro.serve.protocol import decode_frame, encode_frame, parse_length

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall(encode_frame(message))
        length = parse_length(_recv_exact(sock, 4))
        return decode_frame(_recv_exact(sock, length))


class Server:
    """One ``repro serve`` process with its own socket and journal."""

    def __init__(self, workdir: Path, name: str, rate: float) -> None:
        self.dir = workdir / name
        self.dir.mkdir(parents=True)
        # Relative to ROOT: unix socket paths are limited to ~100 bytes.
        self.socket = str((self.dir / "s.sock").relative_to(ROOT))
        self.journal = self.dir / "journal"
        self.rate = rate
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn the server; returns the seconds until ``ping`` answers."""
        t0 = time.perf_counter()
        self._log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.socket,
                "--m", "8",
                "--scheduler", "eft-min",
                "--journal", str(self.journal),
                "--journal-fsync", "commit",
                "--time-scale", repr(time_scale(self.rate)),
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}; see {self.dir}")
            try:
                if request(self.socket, {"op": "ping"}, timeout=5.0).get("ok"):
                    return time.perf_counter() - t0
            except (FileNotFoundError, ConnectionError, socket.timeout):
                pass
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise RuntimeError("server did not answer ping")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                request(self.socket, {"op": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self._log.close()
            self.proc = None


def run_step(workdir: Path, rate: int, n: int, seed: int) -> Step:
    """Start a server, drive ``n`` requests at ``rate`` rps, stop it."""
    server = Server(workdir, f"r{rate}", rate)
    try:
        setup = server.start()
        pid = server.proc.pid
        cpu0 = cpu_seconds(pid)
        proc = subprocess.run(
            [
                sys.executable, str(CLIENT),
                "--socket", server.socket,
                "--n", str(n),
                "--seed", str(seed),
                "--time-scale", repr(time_scale(rate)),
            ],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=n / rate * 5 + 90,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"client failed: {proc.stderr.strip()}")
        cpu = cpu_seconds(pid) - cpu0
        rss = peak_rss_mb(pid)
    finally:
        server.stop()
    return Step(
        rate=rate,
        n=n,
        setup_s=setup,
        cpu_us_per_req=cpu / n * 1e6,
        peak_rss_mb=rss,
        drive=json.loads(proc.stdout.strip().splitlines()[-1]),
    )


def analytic_pairs(n: int, seed: int) -> list[tuple[int, int]]:
    """``(tid, machine)`` of the analytic EFT-Min placements of a step's
    instance, in submission order."""
    from repro.schedulers.registry import get_scheduler

    from .client import M, drive_instance

    inst = drive_instance(n, seed)
    schedule = get_scheduler("eft-min", M).run(inst)
    return [(t.tid, schedule.machine_of(t.tid)) for t in inst]


def assignments_digest(pairs) -> str:
    return DriveReport(assignments=[tuple(p) for p in pairs]).assignments_digest


def analytic_digest(n: int, seed: int) -> str:
    return assignments_digest(analytic_pairs(n, seed))


def check_steps(out: Outcome, steps: list[Step], seed: int) -> None:
    """Count each step's requests as attempted, and its error, missing
    and misplaced acks (machine differs from the analytic EFT-Min
    placement) as failed."""
    digests_match = True
    for s in steps:
        want = analytic_pairs(s.n, seed)
        got = [tuple(p) for p in s.drive["assignments"]]
        placed = dict(want)
        out.attempted += s.n
        out.failed += s.drive["n_bad"] + sum(placed.get(t) != j for t, j in got)
        digests_match &= assignments_digest(got) == assignments_digest(want)
    out.checks["acks match the analytic EFT-Min placements"] = digests_match


def _requests(rate: int, share: float, seconds: float) -> int:
    return max(200, int(rate * share * seconds))


def ladder(workdir: Path, seed: int, seconds: float, ref: Step) -> list[Step]:
    """Walk the rate ladder from the reference step (see the module
    doc); returns the steps after the reference."""

    def step(rate: int) -> Step:
        return run_step(workdir, rate, _requests(rate, STEP_SHARE, seconds), seed)

    at = LADDER.index(REF_RPS)
    steps: list[Step] = []
    if ref.meets:
        for rate in LADDER[at + 1 :]:
            steps.append(step(rate))
            if not steps[-1].meets:
                break
    else:
        for rate in reversed(LADDER[:at]):
            steps.append(step(rate))
            if steps[-1].meets:
                break
    return steps


# -- the in-process replay -----------------------------------------------------


def _plain(name: str, fn: Callable, *args: Any) -> Any:
    return fn(*args)


def replay(tasks, journal_dir: Path, call: Callable = _plain) -> dict[str, Any]:
    """Push ``tasks`` through the server's request path in-process:
    decode, wire to task, journal append + fsync, dispatch, encode the
    ack, and the ``complete`` record.  ``call(name, fn, *args)`` is the
    hook a :class:`Tracer` uses to time each stage."""
    from repro.campaigns.trace import make_scheduler
    from repro.serve.dispatcher import Dispatcher
    from repro.serve.frontend import ServeService
    from repro.serve.journal import Journal
    from repro.serve.metrics import ServeMetrics
    from repro.serve.protocol import (
        decode_frame,
        encode_frame,
        task_from_wire,
        task_to_wire,
        versioned,
    )

    from .client import M

    bodies = [encode_frame(versioned({"op": "submit", **task_to_wire(t)}))[4:] for t in tasks]
    journal = Journal(journal_dir, fsync="commit")
    dispatcher = Dispatcher(make_scheduler("eft-min", M, seed=0), metrics=ServeMetrics())

    def one(body: bytes):
        message = call("protocol.decode", decode_frame, body)
        task = call("protocol.from_wire", task_from_wire, message)
        call("journal.append", journal.append, "submit", {"task": task_to_wire(task), "dedupe": None})
        call("journal.commit", journal.commit)
        decision = call("dispatcher.submit", dispatcher.submit, task)
        call("protocol.encode", encode_frame, ServeService._submit_response(decision))
        call("journal.complete", journal.append, "complete", {"tid": task.tid})
        return decision

    c0, t0 = time.process_time(), time.perf_counter()
    decisions = [call("serve.request", one, body) for body in bodies]
    journal.close()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {
        "wall_s": wall,
        "cpu_us_per_req": cpu / len(bodies) * 1e6,
        "bytes_per_req": (journal_dir / "wal.jsonl").stat().st_size / len(bodies),
        "machines": [d.machine for d in decisions],
    }


# -- the measurement -----------------------------------------------------------


def measure(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """One benchmark run of ``serve-durable``.

    Untraced: the reference step only.  Traced: the reference step, the
    rate ladder and the in-process replay.
    """
    out = Outcome("serve-durable")
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ref = run_step(workdir, REF_RPS, _requests(REF_RPS, REF_SHARE, seconds), seed)
        steps = [ref] + (ladder(workdir, seed, seconds, ref) if trace else [])
        setup = [s.setup_s for s in steps]
        for i in range(SETUP_SAMPLES - len(setup)):
            server = Server(workdir, f"setup{i}", REF_RPS)
            try:
                setup.append(server.start())
            finally:
                server.stop()

        # Checks, outside the timed region.
        check_steps(out, steps, seed)
        out.digests["ref_assignments"] = assignments_digest(ref.drive["assignments"])
        if trace:
            out.per_layer = traced_layers(ref, steps, seed, workdir, out)

        out.end_to_end = {
            "throughput_per_s": 1e6 / ref.cpu_us_per_req,
            "peak_rss_mb": ref.peak_rss_mb,
            "ok_ratio": out.ok_ratio,
            "setup_s": median(setup),
        }
        out.report = {
            "ack_p50_ms": (ref.ack_p50_ms, "ms"),
            "ack_p99_ms": (ref.ack_p99_ms, "ms"),
            "flow_mean_units": (ref.flow_mean, "units"),
            "flow_mean_units_window_median": (ref.flow_window_median, "units"),
            "flow_max_units": (ref.flow_max, "units"),
            "est_flow_mean_units": (ref.drive["est_flow_mean"], "units"),
            "server_cpu_us_per_req": (ref.cpu_us_per_req, "us"),
            "peak_rss_mb": (ref.peak_rss_mb, "MB"),
            "error_ratio": (out.failed / out.attempted, "ratio"),
            "reference_requests": (ref.n, "count"),
        }
        out.details["steps"] = [
            {
                "rate": s.rate,
                "n": s.n,
                "setup_s": s.setup_s,
                "window_flow_means": s.drive["window_flow_means"],
            }
            for s in steps
        ]
        for s in steps:
            verdict = "meets" if s.meets else ("invalid" if not s.valid else "misses")
            out.notes.append(
                f"step {s.rate} rps ({s.n} requests): flow mean {s.flow_mean:.3f}, "
                f"window median {s.flow_window_median:.3f}, predicted "
                f"{s.drive['est_flow_mean']:.3f} units; ack p99 {s.ack_p99_ms:.2f} ms; "
                f"send lag p99 {s.lag_p99_ms:.2f} ms: {verdict}"
            )
        if trace:
            out.report["max_rps_at_slo"] = (max_rps_at_slo(steps), "1/s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def max_rps_at_slo(steps: list[Step]) -> float:
    """Highest step rate that met the limit (the rung below the ladder
    when none did)."""
    passing = [s.rate for s in steps if s.meets]
    return float(max(passing)) if passing else LADDER[0] / 1.1


def traced_layers(ref: Step, steps: list[Step], seed: int, workdir: Path, out: Outcome) -> dict:
    """Per-layer metrics: the replay's spans plus the live figures."""
    from .client import drive_instance

    tasks = list(drive_instance(ref.n, seed))[:REPLAY_REQUESTS]
    plain = replay(tasks, workdir / "replay-plain")
    tracer = Tracer(run_id=f"serve-durable-{seed}")
    with SpeedProbe() as probe:
        traced = replay(tasks, workdir / "replay-traced", call=tracer.call)
    out.tracer = tracer
    # EFT is online, so the prefix's placements are the live run's.
    want = [machine for _, machine in analytic_pairs(ref.n, seed)[: len(tasks)]]
    wrong = sum(
        not a == b == w for a, b, w in zip(plain["machines"], traced["machines"], want)
    )
    out.attempted += len(tasks)
    out.failed += wrong
    out.checks["replay matches the analytic placements"] = wrong == 0
    pl = layer_metrics(tracer)
    pl.update(
        {
            "journal.bytes_per_req": plain["bytes_per_req"],
            "serve.replay_cpu_us_per_req": plain["cpu_us_per_req"],
            "machine.probe_us": probe.mean * 1e6,
            "frontend.server_cpu_us_per_req": ref.cpu_us_per_req,
            "frontend.residual_us": ref.cpu_us_per_req - plain["cpu_us_per_req"],
            "dispatcher.est_flow_mean_units": ref.drive["est_flow_mean"],
            "frontend.flow_mean_units": ref.flow_mean,
            "frontend.flow_max_units": ref.flow_max,
            "frontend.flow_inflation": ref.flow_mean / ref.drive["est_flow_mean"],
            "frontend.max_rps_at_slo": max_rps_at_slo(steps),
            "driver.ack_p50_ms": ref.ack_p50_ms,
            "driver.ack_p99_ms": ref.ack_p99_ms,
            "driver.send_lag_p99_ms": ref.lag_p99_ms,
            "driver.invalid_steps": sum(not s.valid for s in steps),
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"] - 1.0,
        }
    )
    for s in steps:
        pl[f"ladder.{s.rate}.flow_mean_units"] = s.flow_mean
        pl[f"ladder.{s.rate}.ack_p99_ms"] = s.ack_p99_ms
    return pl
