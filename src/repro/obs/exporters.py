"""Exporters: JSONL, Chrome ``trace_event`` JSON, and a summary table.

* **JSONL** — one :class:`~repro.obs.tracer.TraceEvent` dict per line; the
  machine-readable archival format (diff-able, streamable, greppable).
* **Chrome trace** — ``{"traceEvents": [...]}`` with the standard
  ``name``/``cat``/``ph``/``ts``/``dur``/``pid``/``tid`` fields; open it
  at https://ui.perfetto.dev or ``chrome://tracing``.  Our events are
  already phase-tagged (``X`` spans, ``i`` instants, ``C`` counters), so
  the export is mostly a serialization, plus viewer niceties: instant
  events get a scope (``"s": "t"``) and counter events' args must be flat
  numeric dicts (enforced here).
* **summary table** — per-category / per-name counts and span-time
  totals, the "where did the time go" one-pager;
* **Figure 7 table** — one line per rule applied, with the operation it
  moved, as the paper's Figure 7 prints a rule sequence.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Union

from repro.obs.tracer import (
    CAT_RULE,
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    TraceEvent,
    Tracer,
)


def _events_of(source: Union[Tracer, Sequence[TraceEvent]]) -> Sequence[TraceEvent]:
    # Duck-typed on purpose: RecordingTracer and FlightRecorder both
    # expose ``events`` (+ ``flush_counts``); a disabled tracer exposes
    # neither and exports nothing.
    events = getattr(source, "events", None)
    if events is not None:
        flush = getattr(source, "flush_counts", None)
        if flush is not None:
            flush()
        return source.events
    if isinstance(source, Tracer):
        return ()
    return source


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def write_jsonl(source: Union[Tracer, Sequence[TraceEvent]], path: str) -> int:
    """Write one JSON object per event to ``path``.  Returns the number of
    events written."""
    events = _events_of(source)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), default=repr))
            handle.write("\n")
    return len(events)


def events_from_jsonl(lines: Iterable[str]) -> List[TraceEvent]:
    events = []
    for line in lines:
        line = line.strip()
        if line:
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a JSONL event log back into :class:`TraceEvent` objects."""
    with open(path, "r", encoding="utf-8") as handle:
        return events_from_jsonl(handle)


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def _chrome_event(event: TraceEvent) -> Dict:
    data = event.to_dict()
    if event.ph == PH_INSTANT:
        data["s"] = "t"  # thread-scoped instant marker
    if event.ph == PH_COUNTER:
        # Counter tracks render args as stacked numeric series.
        data["args"] = {
            key: value
            for key, value in (event.args or {}).items()
            if isinstance(value, (int, float))
        }
    return data


def to_chrome_trace(source: Union[Tracer, Sequence[TraceEvent]]) -> Dict:
    """The ``trace_event`` JSON object for ``source``'s events."""
    events = _events_of(source)
    return {
        "traceEvents": [_chrome_event(e) for e in events],
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs (push/pull transactions)"},
    }


def write_chrome_trace(source: Union[Tracer, Sequence[TraceEvent]], path: str) -> int:
    events = _events_of(source)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(events), handle, default=repr)
    return len(events)


# ---------------------------------------------------------------------------
# Summary table
# ---------------------------------------------------------------------------


def summary_table(source: Union[Tracer, Sequence[TraceEvent]]) -> str:
    """Aggregate events into a fixed-width table: per (category, name),
    the event count and — for spans — total and mean duration in µs."""
    events = _events_of(source)
    rows: Dict[tuple, Dict[str, float]] = {}
    for event in events:
        row = rows.setdefault(
            (event.cat, event.name), {"count": 0, "span_us": 0.0, "spans": 0}
        )
        row["count"] += 1
        if event.ph == PH_COMPLETE:
            row["span_us"] += event.dur
            row["spans"] += 1
    lines = [
        f"{'category':<10} {'event':<28} {'count':>8} {'total_us':>12} {'mean_us':>10}"
    ]
    lines.append("-" * len(lines[0]))
    for (cat, name), row in sorted(rows.items()):
        if row["spans"]:
            total = f"{row['span_us']:.1f}"
            mean = f"{row['span_us'] / row['spans']:.2f}"
        else:
            total = mean = "-"
        lines.append(
            f"{cat:<10} {name:<28} {int(row['count']):>8} {total:>12} {mean:>10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 7 table
# ---------------------------------------------------------------------------


def _tupled(value):
    # JSON stores tuples as lists; a read-back dump prints as the run did.
    return tuple(_tupled(v) for v in value) if isinstance(value, list) else value


def format_figure7(source: Union[Tracer, Sequence[TraceEvent]]) -> str:
    """The rule sequence as Figure 7 prints it: one line per passing
    ``rule`` span, ``t<tid>: RULE(method(args))`` (``t<tid>: CMT`` for a
    commit).  ``source`` is a tracer or an event list, such as
    :func:`read_jsonl` of a flight dump."""
    lines = []
    for event in _events_of(source):
        if event.cat != CAT_RULE or not event.args.get("ok"):
            continue
        op = event.args.get("op")
        if op is None:
            lines.append(f"t{event.tid}: {event.name}")
            continue
        method, args = op[0], _tupled(op[1])
        arg_text = ", ".join(repr(a) for a in args)
        lines.append(f"t{event.tid}: {event.name}({method}({arg_text}))")
    return "\n".join(lines)
