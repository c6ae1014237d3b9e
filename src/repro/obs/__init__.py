"""Observability: structured tracing and metrics for the whole stack.

The paper's argument is that real TM systems are disciplined *usages* of
seven rules; this package makes those usages *visible*.  Every layer —
the PUSH/PULL machine, the mover oracles, the scheduler, the TM drivers
and the model checker — is permanently plumbed with a :class:`Tracer`.
The default :data:`NULL_TRACER` is disabled and near-free (call sites
guard on ``tracer.enabled`` before formatting or allocating anything), so
benchmarks pay nothing; switching in a :class:`RecordingTracer` turns the
same run into a structured event stream that can be exported as

* a JSONL event log (:func:`~repro.obs.exporters.write_jsonl`),
* a Chrome ``trace_event`` file loadable in Perfetto / ``chrome://tracing``
  (:func:`~repro.obs.exporters.write_chrome_trace`),
* a human-readable summary table (:func:`~repro.obs.exporters.summary_table`).

See ``docs/OBSERVABILITY.md`` for the event taxonomy.  Names resolve on
first access (:mod:`repro.lazy`): a daemon that only counts and records
never imports the profiler or the exporters.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.obs.tracer": (
        "Tracer",
        "NullTracer",
        "RecordingTracer",
        "TraceEvent",
        "NULL_TRACER",
        "CAT_RULE",
        "CAT_CRITERION",
        "CAT_FAULT",
        "CAT_MOVER",
        "CAT_TX",
        "CAT_SCHED",
        "CAT_RUNTIME",
        "CAT_MC",
    ),
    "repro.obs.metrics": (
        "CounterMetric",
        "GaugeMetric",
        "HistogramMetric",
        "MetricsRegistry",
        "percentile_nearest_rank",
    ),
    "repro.obs.flight": (
        "FlightRecorder", "DEFAULT_CAPACITY", "maybe_dump", "tail_signature",
    ),
    "repro.obs.profiling": ("Profile", "logical_profile"),
    "repro.obs.exporters": (
        "write_jsonl",
        "read_jsonl",
        "events_from_jsonl",
        "to_chrome_trace",
        "write_chrome_trace",
        "summary_table",
    ),
})
