"""Rule traces: record, replay and pretty-print machine executions.

The paper communicates algorithms as decompositions into rule sequences
(Figure 2's annotations, Figure 7's table).  :class:`TraceRecorder` wraps
a machine and records every rule application; traces can be

* pretty-printed in the Figure 7 style (:func:`format_figure7`);
* replayed on a fresh machine (:func:`replay`) — the regression tool the
  tests use to pin down rule sequences exactly;
* summarised per rule (:meth:`TraceRecorder.histogram`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.machine import Machine
from repro.core.ops import Op


@dataclass(frozen=True)
class TraceEvent:
    """One rule application: the rule name, the acting thread and (where
    applicable) the operation's payload."""

    rule: str
    tid: int
    method: Optional[str] = None
    args: Optional[Tuple] = None
    ret: Any = None

    def pretty(self) -> str:
        if self.method is None:
            return f"{self.rule}"
        arg_text = ", ".join(repr(a) for a in self.args or ())
        return f"{self.rule}({self.method}({arg_text}))"


class TraceRecorder:
    """A machine proxy that records rule applications.

    Usage mirrors the machine::

        rec = TraceRecorder(Machine(spec))
        rec, tid = rec.spawn(program)
        rec = rec.app(tid)
        ...
        print(format_figure7(rec.trace))

    The recorder is immutable like the machine: each step returns a new
    recorder sharing the (append-only) trace list.
    """

    RULES_WITH_OP = {"push", "unpush", "pull", "unpull"}

    def __init__(self, machine: Machine, trace: Optional[List[TraceEvent]] = None):
        self.machine = machine
        self.trace: List[TraceEvent] = trace if trace is not None else []

    def spawn(self, code, stack=None, tid=None):
        new_machine, new_tid = self.machine.spawn(code, stack, tid)
        self.trace.append(TraceEvent("SPAWN", new_tid))
        return TraceRecorder(new_machine, self.trace), new_tid

    def _step(self, rule: str, tid: int, *args) -> "TraceRecorder":
        new_machine = getattr(self.machine, rule)(tid, *args)
        op: Optional[Op] = None
        if rule in self.RULES_WITH_OP and args:
            op = args[0]
        elif rule == "app":
            op = new_machine.thread(tid).local[-1].op
        elif rule == "unapp":
            op = self.machine.thread(tid).local[-1].op
        if op is not None:
            event = TraceEvent(rule.upper(), tid, op.method, op.args, op.ret)
        else:
            event = TraceEvent(rule.upper(), tid)
        self.trace.append(event)
        return TraceRecorder(new_machine, self.trace)

    def app(self, tid, choice=None):
        if choice is None:
            return self._step("app", tid)
        return self._step("app", tid, choice)

    def unapp(self, tid):
        return self._step("unapp", tid)

    def push(self, tid, op):
        return self._step("push", tid, op)

    def unpush(self, tid, op):
        return self._step("unpush", tid, op)

    def pull(self, tid, op):
        return self._step("pull", tid, op)

    def unpull(self, tid, op):
        return self._step("unpull", tid, op)

    def cmt(self, tid):
        return self._step("cmt", tid)

    def end_thread(self, tid):
        new_machine = self.machine.end_thread(tid)
        self.trace.append(TraceEvent("END", tid))
        return TraceRecorder(new_machine, self.trace)

    def __getattr__(self, name):
        return getattr(self.machine, name)

    def histogram(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.trace:
            counts[event.rule] = counts.get(event.rule, 0) + 1
        return counts


def format_figure7(trace: Sequence[TraceEvent]) -> str:
    """Render a trace in the style of Figure 7 (one rule per line,
    operation payloads inline)."""
    lines = []
    for event in trace:
        if event.rule in ("SPAWN", "END"):
            continue
        lines.append(f"t{event.tid}: {event.pretty()}")
    return "\n".join(lines)


def replay(spec, trace: Sequence[TraceEvent], programs) -> Machine:
    """Re-execute a recorded trace on a fresh machine.

    Operation identities differ across runs, so PUSH/PULL/UNPUSH/UNPULL
    events are re-resolved by payload: the replayer picks the (unique)
    matching operation in the new machine's logs.  APP events re-resolve
    their ``step`` choice by method+args.  Raises ``ValueError`` when the
    trace does not fit (e.g. the programs changed).
    """
    machine = Machine(spec)
    tid_map: Dict[int, int] = {}
    program_iter = iter(programs)
    for event in trace:
        if event.rule == "SPAWN":
            machine, new_tid = machine.spawn(next(program_iter))
            tid_map[event.tid] = new_tid
            continue
        tid = tid_map[event.tid]
        if event.rule == "APP":
            choice = _find_choice(machine, tid, event)
            machine = machine.app(tid, choice)
        elif event.rule == "UNAPP":
            machine = machine.unapp(tid)
        elif event.rule in ("PUSH", "UNPUSH"):
            op = _find_local_op(machine, tid, event)
            machine = getattr(machine, event.rule.lower())(tid, op)
        elif event.rule == "PULL":
            op = _find_global_op(machine, event)
            machine = machine.pull(tid, op)
        elif event.rule == "UNPULL":
            op = _find_local_op(machine, tid, event)
            machine = machine.unpull(tid, op)
        elif event.rule == "CMT":
            machine = machine.cmt(tid)
        elif event.rule == "END":
            machine = machine.end_thread(tid)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown trace rule {event.rule}")
    return machine


def _find_choice(machine: Machine, tid: int, event: TraceEvent):
    for choice in machine.app_choices(tid):
        if choice[0].method == event.method and choice[0].args == event.args:
            return choice
    raise ValueError(f"replay: no step choice matches {event.pretty()}")


def _find_local_op(machine: Machine, tid: int, event: TraceEvent) -> Op:
    for entry in machine.thread(tid).local:
        op = entry.op
        if (op.method, op.args, op.ret) == (event.method, event.args, event.ret):
            return op
    raise ValueError(f"replay: no local op matches {event.pretty()}")


def _find_global_op(machine: Machine, event: TraceEvent) -> Op:
    for entry in machine.global_log:
        op = entry.op
        if (op.method, op.args, op.ret) == (event.method, event.args, event.ret):
            return op
    raise ValueError(f"replay: no global op matches {event.pretty()}")
