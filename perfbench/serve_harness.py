"""The serve leg: a daemon, one in-order client and per-request records.

The client sends one traffic day's arrivals in order with one request
on the wire at a time.  Each admitted tenant departs ``DEPART_LAG``
arrivals later, which keeps occupancy steady.  One pass over the day
sends the first half of the arrivals *paced* on a fixed wall-clock
schedule (open loop: a request is timed from when it was due, so a
stall shows up on the requests queued behind it) and the second half
in a *burst*, back to back.  Every pass runs against a freshly started
daemon over the same warm store.  Every request becomes one :class:`QueryResult`,
after brad's per-query ``QueryResult(error, run_time_s, time_of_day)``.

The daemon is ``repro serve start`` in a subprocess
(:class:`DaemonProcess`).  The traced run hosts the same
:class:`~repro.serve.ServeDaemon` on a thread of the benchmark process
instead (:class:`InProcessDaemon`), so the benchmark's wrappers see the
scheduler, session and store layers behind each request.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import DEPART_LAG, MACHINES, ROSTER, THREADS

from repro.errors import ServeError
from repro.sched import Cluster, PlacementEvaluator, Scheduler, Tenant, get_policy
from repro.serve import ServeClient, ServeDaemon

#: Paced-phase arrival rate (arrivals/s), about 40% of warm capacity.
PACED_RATE = 50.0
#: Per-request client timeout; a request past it counts as failed.
REQUEST_TIMEOUT_S = 5.0
#: Admission latency limit (from due time) for ``within_limit``.
LIMIT_S = 0.100


@dataclass
class QueryResult:
    """One request as the client saw it."""

    kind: str  # "arrival" or "departure"
    tenant: str
    phase: str  # "paced" or "burst"
    due_s: float  # when the request was due, from the start of the pass
    sent_s: float
    run_time_s: float  # send to response
    error: "str | None"
    daemon_s: "float | None"  # latency_s the daemon reported (arrivals)
    time_of_day_h: float  # simulated trace hour of the arrival
    admitted: "bool | None"
    decision: "dict | None" = None

    @property
    def late_s(self) -> float:
        return self.sent_s - self.due_s

    @property
    def latency_s(self) -> float:
        """Due time to response."""
        return self.sent_s + self.run_time_s - self.due_s


def warm_in_process(trace, session) -> list[dict]:
    """Run the serve sequence against an in-process scheduler with the
    daemon's defaults (interference policy, replan on), so the store
    holds every layout the daemon will ask for.  Returns the decision log."""
    sched = Scheduler(
        Cluster.homogeneous(MACHINES, session.spec),
        get_policy("interference"),
        PlacementEvaluator(session),
        replan=True,
    )
    arrivals = trace.arrivals
    admitted: dict[int, bool] = {}
    for a, ev in enumerate(arrivals):
        if admitted.get(a - DEPART_LAG):
            sched.departure(arrivals[a - DEPART_LAG].tenant, time_s=ev.time_s)
        decision = sched.arrival(
            Tenant(tenant=ev.tenant, workload=ev.workload, threads=ev.threads,
                   solo_s=ev.solo_s, arrival_s=ev.time_s),
            time_s=ev.time_s,
        )
        admitted[a] = decision.admitted
    return [d.payload() for d in sched.decisions]


async def _send(call, record: QueryResult, t0: float) -> QueryResult:
    sent = time.perf_counter()
    record.sent_s = sent - t0
    try:
        response = await call()
    except ServeError as exc:
        record.error = str(exc)
        response = None
    record.run_time_s = time.perf_counter() - sent
    if response is not None and record.kind == "arrival":
        record.daemon_s = response["latency_s"]
        record.decision = response["decision"]
        record.admitted = response["decision"]["admitted"]
    return record


async def drive(
    client: ServeClient, trace, *, n_paced: int, hour_s: float, deadline_s: float
) -> "tuple[list[QueryResult], float, float]":
    """Send the whole day: the first ``n_paced`` arrivals paced at
    :data:`PACED_RATE`, the rest back to back.  Returns the records and
    the ``perf_counter`` instants the pass and its back-to-back phase
    began."""
    arrivals = trace.arrivals
    out: list[QueryResult] = []
    admitted: dict[int, bool] = {}
    t0 = time.perf_counter()
    burst_lo = None

    async def send(kind: str, tenant: str, phase: str, due: float, hour: float, call):
        rec = QueryResult(kind, tenant, phase, due, due, 0.0, None, None, hour, None)
        if time.perf_counter() - t0 > deadline_s:
            rec.error = "not sent: pass deadline"
        else:
            await _send(call, rec, t0)
        out.append(rec)
        return rec

    async def wait_until(due: float, paced: bool) -> float:
        """Sleep until ``due`` (paced) or return now (back to back)."""
        if not paced:
            return time.perf_counter() - t0
        delay = t0 + due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        return due

    for a, ev in enumerate(arrivals):
        paced = a < n_paced
        phase = "paced" if paced else "burst"
        if a == n_paced:
            burst_lo = time.perf_counter()
        hour = ev.time_s / hour_s
        if admitted.get(a - DEPART_LAG):
            # Due half an interval before the next arrival, so a paced
            # arrival does not queue behind the departure sent ahead of it.
            gone = arrivals[a - DEPART_LAG].tenant
            due = await wait_until((a - 0.5) / PACED_RATE, paced)
            await send("departure", gone, phase, due, hour,
                       lambda: client.departure(gone, time_s=ev.time_s))
        due = await wait_until(a / PACED_RATE, paced)
        rec = await send(
            "arrival", ev.tenant, phase, due, hour,
            lambda: client.arrival(tenant=ev.tenant, workload=ev.workload,
                                   threads=ev.threads, solo_s=ev.solo_s,
                                   time_s=ev.time_s),
        )
        admitted[a] = bool(rec.admitted)
    return out, t0, burst_lo if burst_lo is not None else time.perf_counter()


class DaemonProcess:
    """``repro serve start`` as a subprocess over one store."""

    def __init__(self, root: Path, store: Path, log: Path) -> None:
        self.root = root
        self.store = store
        self.log = log
        self.proc: "subprocess.Popen | None" = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with self.log.open("ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "start",
                 "--store", str(self.store), "--port", "0",
                 "--workloads", ",".join(ROSTER), "--threads", str(THREADS)],
                stdout=subprocess.PIPE, stderr=err, env=env, cwd=str(self.root),
            )
        deadline = time.monotonic() + timeout_s
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            line = self.proc.stdout.readline().decode() if ready else ""
            if line.startswith("serve: listening on"):
                self.port = int(line.split()[3].rsplit(":", 1)[1])
                # Answering /healthz means the loop is serving, with its
                # signal handlers installed.
                asyncio.run(ServeClient(port=self.port).wait_ready(max(left, 1.0)))
                return
            if not line or left <= 0:
                self.stop()
                raise ServeError(f"daemon did not announce itself (see {self.log})")

    def stop(self, timeout_s: float = 30.0) -> "tuple[int, str]":
        """SIGTERM and wait; returns (exit code, remaining stdout)."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0, ""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        return proc.returncode, out.decode(errors="replace")


class InProcessDaemon:
    """A :class:`ServeDaemon` on its own thread and event loop."""

    def __init__(self, session) -> None:
        self.daemon = ServeDaemon(session, port=0)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, name="perfbench-daemon")
        self.error: "BaseException | None" = None

    def _main(self) -> None:
        try:
            asyncio.run(self.daemon.run(ready=lambda d: self._ready.set()))
        except BaseException as exc:  # reported by stop(); the thread must end
            self.error = exc
            self._ready.set()

    @property
    def port(self) -> int:
        return self.daemon.port

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(60.0) or self.error is not None:
            raise ServeError(f"in-process daemon failed to start: {self.error}")

    def stop(self) -> None:
        if self._thread.is_alive():
            asyncio.run(ServeClient(port=self.port, timeout=30.0).shutdown())
        self._thread.join(60.0)
        if self._thread.is_alive() or self.error is not None:
            raise ServeError(f"in-process daemon did not stop cleanly: {self.error}")
