"""repro.serve — the scheduler as a long-running service.

PR 6 made placement a library call (:func:`~repro.sched.scheduler.replay_trace`
drives a whole trace in-process); this package makes it a *daemon*:

* :mod:`~repro.serve.http` — the minimal stdlib HTTP/1.1 + SSE layer
  (the container ships no aiohttp, and the API needs very little);
* :mod:`~repro.serve.daemon` — :class:`ServeDaemon`: one live
  :class:`~repro.sched.scheduler.Scheduler` over a warm store behind
  ``POST /arrivals`` / ``POST /departures`` (with incremental
  re-planning) / ``GET /cluster`` / ``GET /metrics`` /
  ``GET /events`` (SSE), with admission-latency budgets observed and a
  graceful SIGTERM/SIGINT shutdown that flushes telemetry and releases
  the store lock;
* :mod:`~repro.serve.client` — :class:`ServeClient`: one async method
  per endpoint plus the event-stream iterator;
* :mod:`~repro.serve.drain` — :class:`RemotePort` / :func:`drain_trace`:
  the shared simulated-time driver pointed at a live daemon, whose
  :class:`~repro.sched.scheduler.ReplayReport` is byte-identical to the
  in-process replay of the same trace.

CLI: ``repro serve start|submit|drain|stop|metrics``.
"""

from repro._lazy import lazy_exports
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.http import Request, read_request, read_response

__all__ = [
    "DrainResult",
    "RemotePort",
    "Request",
    "ServeClient",
    "ServeDaemon",
    "drain_trace",
    "read_request",
    "read_response",
]

# ``serve drain``'s trace driver.
__getattr__ = lazy_exports(__name__, {
    "repro.serve.drain": ("DrainResult", "RemotePort", "drain_trace"),
})
