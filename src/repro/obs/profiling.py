"""The deterministic profiler: where wall-clock and logical steps go.

A :class:`Profile` aggregates a traced run's span events into a calling
tree: per *path* (the nesting chain of span names on one track) it keeps
the application count, the **cumulative** wall-clock and the **self**
wall-clock (cumulative minus direct children).  Nesting is reconstructed
from span containment on each ``(pid, tid)`` track — tracers record a
span when it *ends*, so children precede their parents in emission order
and a timestamp sweep recovers the tree without any begin/end pairing.

Two attribution modes coexist deliberately:

* **wall-clock** (``total_us``/``self_us``) — the performance question.
  Varies run to run; never part of any determinism contract.
* **logical steps** (:meth:`Profile.step_counts`, :func:`logical_profile`)
  — event counts per ``(category, name)`` and the model checker's rule
  counts.  A pure function of the seeded run: identical across repeats,
  with or without tracing, and across machines, which is exactly what
  the determinism tests pin down.

Output formats: a top-N table (:meth:`Profile.top_table`, sorted by self
time — the "what should I optimise" order) and collapsed stacks
(:meth:`Profile.to_collapsed`): one ``a;b;c <µs>`` line per path, the
format speedscope and the classic FlameGraph scripts import directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.tracer import PH_COMPLETE, PH_COUNTER, TraceEvent

#: float-comparison slack when deciding span containment (µs)
_EPS = 1e-9


class Profile:
    """Accumulates span trees and logical step counts from event streams.

    Feed it any number of traced runs (:meth:`add`); aggregates merge by
    path, so one profile can summarise a whole ``compare`` sweep or a
    chaos suite.
    """

    def __init__(self) -> None:
        #: path -> [count, total_us, self_us]
        self._rows: Dict[Tuple[str, ...], List[float]] = {}
        #: (cat, name) -> occurrences (spans and instants, not counters)
        self._steps: Dict[Tuple[str, str], int] = {}

    # -- ingestion -----------------------------------------------------------

    def add(self, events: Iterable[TraceEvent]) -> None:
        """Fold one event stream into the profile."""
        tracks: Dict[Tuple[int, int], List[TraceEvent]] = {}
        for event in events:
            if event.ph == PH_COUNTER:
                continue
            key = (event.cat, event.name)
            self._steps[key] = self._steps.get(key, 0) + 1
            if event.ph == PH_COMPLETE:
                tracks.setdefault((event.pid, event.tid), []).append(event)
        for spans in tracks.values():
            self._consume_track(spans)

    def add_tracer(self, tracer) -> None:
        """Convenience: :meth:`add` over ``tracer.events``."""
        self.add(tracer.events)

    def _row(self, path: Tuple[str, ...]) -> List[float]:
        row = self._rows.get(path)
        if row is None:
            row = self._rows[path] = [0, 0.0, 0.0]
        return row

    def _consume_track(self, spans: List[TraceEvent]) -> None:
        """Interval sweep over one track's spans, sorted by start (ties:
        longer span first, i.e. the parent).  A stack of open spans gives
        each one its nesting path and its direct-children time."""
        ordered = sorted(spans, key=lambda e: (e.ts, -e.dur))
        # stack entries: [end_ts, path, dur, child_us]
        stack: List[List] = []

        def close(entry: List) -> None:
            _end, path, dur, child_us = entry
            self._row(path)[2] += max(0.0, dur - child_us)

        for event in ordered:
            start, dur = event.ts, event.dur
            while stack and start >= stack[-1][0] - _EPS:
                close(stack.pop())
            path = (
                stack[-1][1] + (event.name,) if stack else (event.name,)
            )
            row = self._row(path)
            row[0] += 1
            row[1] += dur
            if stack:
                stack[-1][3] += dur
            stack.append([start + dur, path, dur, 0.0])
        while stack:
            close(stack.pop())

    # -- queries -------------------------------------------------------------

    def rows(self) -> Dict[Tuple[str, ...], Tuple[int, float, float]]:
        """``path -> (count, total_us, self_us)`` (a copy)."""
        return {
            path: (int(row[0]), row[1], row[2])
            for path, row in self._rows.items()
        }

    def step_counts(self) -> Dict[Tuple[str, str], int]:
        """``(category, name) -> occurrences`` — the wall-clock-free
        attribution (deterministic for a seeded run)."""
        return dict(self._steps)

    @property
    def empty(self) -> bool:
        return not self._rows and not self._steps

    # -- rendering -----------------------------------------------------------

    def top_table(self, n: int = 15) -> str:
        """The top-``n`` paths by self time, as a fixed-width table."""
        header = f"{'self_us':>12} {'total_us':>12} {'count':>8}  path"
        lines = [header, "-" * len(header)]
        ranked = sorted(
            self._rows.items(), key=lambda kv: (-kv[1][2], kv[0])
        )
        for path, (count, total, self_us) in ranked[:n]:
            lines.append(
                f"{self_us:>12.1f} {total:>12.1f} {int(count):>8}  "
                + ";".join(path)
            )
        if len(ranked) > n:
            lines.append(f"... {len(ranked) - n} more paths")
        return "\n".join(lines)

    def to_collapsed(self) -> str:
        """Collapsed-stack export (``a;b;c <self_us>`` per line), the
        flamegraph interchange format.  Paths with zero self time are
        kept at weight 0 so the tree shape survives the round trip."""
        lines = []
        for path, (_count, _total, self_us) in sorted(self._rows.items()):
            lines.append(";".join(path) + f" {int(round(self_us))}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str) -> int:
        """Write :meth:`to_collapsed` to ``path``; returns the line count."""
        text = self.to_collapsed()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(self._rows)


def logical_profile(report) -> Dict[str, int]:
    """The model checker's logical-step attribution: rule applications
    plus exploration totals from an
    :class:`~repro.checking.model_checker.ExplorationReport`.  Pure
    function of the explored graph — identical across repeats and with
    or without tracing, which the determinism tests assert."""
    out = {f"rule.{rule}": count
           for rule, count in sorted(report.rule_counts.items())}
    out["mc.states"] = report.states
    out["mc.transitions"] = report.transitions
    out["mc.final_states"] = report.final_states
    out["mc.stuck_states"] = report.stuck_states
    if report.por:
        out["por.ample_hits"] = report.ample_hits
        out["por.full_expansions"] = report.full_expansions
    return out


def profile_report_table(profiles: Sequence[Tuple[str, Dict[str, int]]]) -> str:
    """Render per-scope logical profiles side by side (modelcheck
    ``--profile`` prints it above the wall-clock top table)."""
    lines = []
    for scope, attribution in profiles:
        lines.append(f"[{scope}]")
        for key, value in attribution.items():
            lines.append(f"  {key:<24} {value}")
    return "\n".join(lines)
