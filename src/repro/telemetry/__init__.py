"""repro.telemetry — spans, metrics, and trace export for the pipeline.

(Named ``telemetry`` — not ``trace`` — because :mod:`repro.trace` is
the reuse-distance *memory-access* trace package; this one is about
observing the pipeline itself.)

The paper's whole method is measuring interference, but until this
package the reproduction pipeline was a black box: no way to see where
a 97-cell scheduler replay spends its time, which cache tier answered
which scenario cell, or how campaign workers interleave.  Three pieces
fix that:

* :class:`~repro.telemetry.tracer.Tracer` — ``span("engine.solve",
  tags=...)`` context managers recording monotonic durations +
  wall-clock starts into a **process-safe JSONL sink**
  (``<store>/telemetry/<pid>-<token>.jsonl``, one segment per process,
  the store-index segment pattern).  Disabled (the default) it is the
  do-nothing :data:`~repro.telemetry.tracer.NULL_TRACER` — zero files,
  zero behavior change;
* :class:`~repro.telemetry.metrics.MetricsRegistry` —
  counters/gauges/histograms with one ``snapshot()``, unifying the
  session's ``CacheStats``, store disk-hit counters, campaign worker
  progress and scheduler replay aggregates;
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON (load it in
  Perfetto: one lane per worker pid) and flat per-span summaries,
  surfaced as ``repro trace show|export|summary --store DIR``.

Instrumented out of the box: ``engine.solo_run`` /
``engine.scenario_run``, ``session.run`` / ``session.run_scenario``
(tagged with the cache tier that answered: memory, disk or engine),
``store.append``, the campaign worker lifecycle (phase-tagged
PREPARING → RUNNING → MERGED) and ``sched.decide`` / ``sched.replay``.

Enable with CLI ``--telemetry`` (sink in ``<store>/telemetry``),
programmatically via :func:`enable`, or by exporting
``REPRO_TELEMETRY=<dir>`` — the env var is how campaign and pool
worker processes inherit tracing, each writing its own lane.

Determinism: tracing on vs off changes **nothing** inside the store —
records, manifests, cache entries and scheduler decision logs stay
byte-identical (timestamps live only in the out-of-band sink); the
test suite and CI ``store diff`` that invariant.
"""

from repro._lazy import lazy_exports
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.telemetry.tracer import (
    ENV_VAR,
    NULL_TRACER,
    SCHEMA_VERSION,
    NullTracer,
    Span,
    Tracer,
    disable,
    enable,
    get_tracer,
    span,
)

__all__ = [
    "ENV_VAR",
    "NULL_TRACER",
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "disable",
    "enable",
    "get_tracer",
    "merge_snapshots",
    "metrics_snapshot",
    "read_events",
    "read_spans",
    "render_summary",
    "span",
    "summarize",
    "summary_rows",
]

# The ``trace show|export|summary`` readers.
__getattr__ = lazy_exports(__name__, {
    "repro.telemetry.export": (
        "chrome_trace", "metrics_snapshot", "read_events", "read_spans", "render_summary",
        "summarize", "summary_rows",
    ),
})
