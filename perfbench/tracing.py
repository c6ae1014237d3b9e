"""Spans recorded from outside the program, by wrapping its public functions.

A :class:`Recorder` replaces a function on its owner (class, module or
instance) with a wrapper that records one span per call:
``(name, start, end, parent, token, value, cpu)``.  ``parent`` is the
index of the enclosing recorded span (``-1`` at top level), ``token`` the
transaction token or rule where known, ``value`` a small JSON-safe
summary of the call, and ``cpu`` the process CPU seconds the call used —
taken for top-level spans only, which is what coverage needs.

Spans stay in memory and are written once, by :meth:`Recorder.dump`.
Parents come from a stack, so an ``async`` function may be wrapped only if
its body never suspends (``InlineShard.request`` runs a whole shard
request without awaiting).  :meth:`Recorder.remove` restores every
wrapped attribute exactly as it was.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, Any, Any, float]

_ABSENT = object()
_OPEN = ["<open>", 0.0, 0.0, -1, None, None, 0.0]


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: instant events ``(name, time, token)``
        self.events: List[Tuple[str, float, Any]] = []
        self._stack: List[int] = []
        #: ``(owner, attr, previous own attribute or _ABSENT)``, in install order
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- installing ---------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr``, remembering what :meth:`remove` must restore."""
        previous = vars(owner).get(attr, _ABSENT)
        self._installed.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        token: Optional[Callable[[tuple], Any]] = None,
        value: Optional[Callable[[tuple, Any, Any], Any]] = None,
        before: Optional[Callable[[tuple], Any]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.  ``token(args)``
        and ``value(args, result, before(args))`` fill the span's fields."""
        original = getattr(owner, attr)
        if asyncio.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, name, token, value, before)
        else:
            wrapper = self._sync_wrapper(original, name, token, value, before)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self.patch(owner, attr, wrapper)

    def _open(self) -> Tuple[int, int]:
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start, cpu0, args, result, pre, token, value) -> None:
        end = time.perf_counter()
        cpu = time.process_time() - cpu0 if parent < 0 else 0.0
        self._stack.pop()
        self.spans[index] = (
            name, start, end, parent,
            token(args) if token is not None else None,
            value(args, result, pre) if value is not None else None,
            cpu,
        )

    def _sync_wrapper(self, fn, name, token, value, before):
        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            index, parent = self._open()
            cpu0 = time.process_time() if parent < 0 else 0.0
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, parent, name, start, cpu0, args, result, pre, token, value)

        return wrapper

    def _async_wrapper(self, fn, name, token, value, before):
        async def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            index, parent = self._open()
            cpu0 = time.process_time() if parent < 0 else 0.0
            start = time.perf_counter()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                self._close(index, parent, name, start, cpu0, args, result, pre, token, value)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, token: Any = None) -> Iterator[None]:
        """Record a span around a block (a call the benchmark makes itself)."""
        index, parent = self._open()
        cpu0 = time.process_time() if parent < 0 else 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start, cpu0, (), None, None,
                        lambda _args: token, None)

    def event(self, name: str, token: Any = None) -> None:
        self.events.append((name, time.perf_counter(), token))

    def remove(self) -> None:
        """Undo every :meth:`patch`/:meth:`wrap`, newest first."""
        while self._installed:
            owner, attr, previous = self._installed.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- output -------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the closed spans and the events to ``path`` (atomically)."""
        document = {
            # positions are kept (parents are indices); a span still open
            # at dump time is written as an empty placeholder
            "spans": [list(span) if span is not None else _OPEN for span in self.spans],
            "events": [list(event) for event in self.events],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"), default=str)
        os.replace(tmp, path)


def load(path: str) -> Tuple[List[Span], List[Tuple[str, float, Any]]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return [tuple(span) for span in document["spans"]], [tuple(e) for e in document["events"]]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, (_name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


# -- the wrapped entry points ---------------------------------------------------


def install_serve(recorder: Recorder) -> None:
    """Wrap the serve stack's public entry points (daemon side)."""
    from repro.core.spec import MemoizedMovers
    from repro.durable import recovery, store
    from repro.serve import daemon, framing, shard
    from repro.specs.product import ProductSpec
    from repro.tm.base import Runtime

    rec = recorder
    State = shard.ShardState

    def wave_aborts(args):
        return args[0].registry.counter("serve.txn.wave_aborts").value

    def wave_value(args, outcomes, aborts_before):
        outcomes = outcomes or []
        return {
            "n": len(args[1]),
            "ok": sum(1 for o in outcomes if o.ok),
            "retry": sum(1 for o in outcomes if o.retry),
            "aborts": wave_aborts(args) - aborts_before,
        }

    rec.wrap(State, "execute_wave", "serve.shard.execute_wave", value=wave_value, before=wave_aborts)
    rec.wrap(State, "maybe_checkpoint", "serve.shard.maybe_checkpoint",
             value=lambda args, result, _pre: result is not None)
    rec.wrap(State, "run_conformance", "faults.conformance.run_conformance",
             value=lambda args, result, _pre: (result or {}).get("window_commits"))
    for method in ("prepare", "commit_prepared", "abort_prepared"):
        rec.wrap(State, method, f"serve.shard.{method}", token=lambda args: args[1])
    rec.wrap(Runtime, "apply", "tm.base.apply", token=lambda args: args[1])
    rec.wrap(MemoizedMovers, "left_mover", "core.spec.memo.left_mover")
    rec.wrap(MemoizedMovers, "left_mover_pid", "core.spec.memo.left_mover_pid")
    # the serve spec's own oracle: reached only on a memo miss
    rec.wrap(ProductSpec, "left_mover", "core.spec.left_mover")
    rec.wrap(store.SegmentStore, "append", "durable.store.append",
             value=lambda args, _lsn, before: args[0].registry.counter(
                 "durable.append.bytes").value - before,
             before=lambda args: args[0].registry.counter("durable.append.bytes").value)
    rec.wrap(store.SegmentStore, "sync", "durable.store.sync",
             value=lambda args, _result, pending: pending,
             before=lambda args: args[0].unsynced_records)
    rec.wrap(store.SegmentStore, "write_snapshot", "durable.store.write_snapshot")
    rec.wrap(store.SegmentStore, "compact", "durable.store.compact")
    rec.wrap(recovery, "open_durable_shard", "durable.recovery.open_durable_shard")
    rec.wrap(framing, "encode_frame", "serve.framing.encode_frame",
             value=lambda args, frame, _pre: len(frame) if frame is not None else 0)
    rec.wrap(daemon.InlineShard, "request", "serve.daemon.shard_request",
             token=lambda args: args[1].get("method"),
             value=lambda args, _reply, _pre: [t["id"] for t in args[1]["txns"]]
             if args[1].get("method") == "wave" else None)

    original_start = daemon.Daemon.start

    async def start(self) -> None:
        await original_start(self)
        for inbox in self.inboxes:
            wrap_put(rec, inbox)

    rec.patch(daemon.Daemon, "start", start)


def wrap_put(recorder: Recorder, inbox: asyncio.Queue) -> None:
    """Record an ``inbox.put`` event (with the item's token) per put."""
    original = inbox.put

    async def put(item):
        recorder.event("serve.daemon.inbox_put", item.get("token") if isinstance(item, dict) else None)
        return await original(item)

    recorder.patch(inbox, "put", put)


def install_explorer(recorder: Recorder) -> None:
    """Wrap the model checker's kernel and reducer entry points."""
    from repro.checking.reduction import Reducer
    from repro.core.machine import Machine

    recorder.wrap(Machine, "successor_keys", "core.machine.successor_keys")
    recorder.wrap(Reducer, "canonical", "checking.reduction.canonical")
    recorder.wrap(Reducer, "ample_tid", "checking.reduction.ample_tid")
