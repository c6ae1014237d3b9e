"""The benchmark's own client and load loops.

``Wire`` speaks the daemon's frame protocol (4-byte big-endian length,
then compact JSON) over a few TCP connections, round-robin, resolving
replies by correlation id.  Each reply is stamped with its receive time
by the reader, so latency does not include how long the loop took to get
round to it.

:func:`open_loop` drives it: it sends on a fixed schedule, never waiting
for a reply or for a free slot.  Latency runs from each request's *due*
time, so a stall counts against every request due during it, and the loop
reports how late it sent (``late_ms``) and its peak in-flight count.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

_HEADER = struct.Struct(">I")
#: seconds a request may wait for its reply
TIMEOUT_S = 60.0
#: :func:`open_loop` calls ``idle`` only when the next request is due at
#: least this far ahead, so that what ``idle`` does cannot delay a send
IDLE_MARGIN_S = 0.010


def encode(message: Dict[str, Any]) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload)) + payload


class Wire:
    """A small pool of TCP connections to one daemon."""

    def __init__(self) -> None:
        self._writers: List[asyncio.StreamWriter] = []
        self._readers: List[asyncio.Task] = []
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._next = itertools.count()

    async def open(self, host: str, port: int, connections: int) -> "Wire":
        for _ in range(connections):
            reader, writer = await asyncio.open_connection(host, port)
            self._writers.append(writer)
            self._readers.append(asyncio.ensure_future(self._read_loop(reader)))
        return self

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                header = await reader.readexactly(_HEADER.size)
                payload = await reader.readexactly(_HEADER.unpack(header)[0])
                received = time.perf_counter()
                reply = json.loads(payload)
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((reply, received))
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            self._fail(ConnectionError(f"daemon closed the connection: {exc}"))

    def _fail(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def send(self, message: Dict[str, Any]) -> asyncio.Future:
        """Write one request; the future resolves to ``(reply, received_at)``."""
        rid = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        writer = self._writers[next(self._next) % len(self._writers)]
        writer.write(encode({"id": rid, **message}))
        await writer.drain()
        return future

    async def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        reply, _received = await asyncio.wait_for(await self.send(message), TIMEOUT_S)
        return reply

    async def close(self) -> None:
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for writer in self._writers:
            writer.close()
        for future in self._pending.values():
            future.cancel()
        self._pending.clear()


@dataclass
class LoopResult:
    """What one measured loop observed (only requests due in the window).

    ``start_mark`` and ``end_mark`` hold what the caller's ``mark``
    returned at the window's start and after its final reply."""

    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    committed: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    inflight_max: int = 0
    window_start: float = 0.0
    window_end: float = 0.0
    start_mark: Any = None
    end_mark: Any = None
    #: commits seen since the loop began, warm-up included
    total_committed: int = 0

    @property
    def elapsed_s(self) -> float:
        return self.window_end - self.window_start

    def record(self, reply: Dict[str, Any], committed: bool, latency_s: float) -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_s * 1e3)
        if committed:
            self.committed += 1
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{reply.get('kind')}: {reply.get('error')}")


Check = Callable[[List[List[Any]], Dict[str, Any]], bool]
Source = Callable[[], List[List[Any]]]


async def open_loop(
    wire: Wire,
    source: Source,
    check: Check,
    rate: float,
    warmup_s: float,
    seconds: float,
    mark: Callable[[], Any] = lambda: None,
    idle: Callable[[], None] = lambda: None,
) -> LoopResult:
    """Send at ``rate`` per second on a fixed schedule for
    ``warmup_s + seconds``; requests due in the warm-up are not measured.
    Latency runs from the due time.  ``mark`` runs when the window opens
    and after its last reply (the caller samples the daemon there).
    ``idle`` runs inside the window whenever a reply leaves nothing in
    flight and the next request is due at least ``IDLE_MARGIN_S`` later,
    so no reply and no send waits for it."""
    result = LoopResult()
    interval = 1.0 / rate
    began = time.perf_counter() + 0.01
    warm = int(round(warmup_s * rate))
    total = warm + int(round(seconds * rate))
    outstanding: List[asyncio.Future] = []
    inflight = 0

    def on_reply(ops, due: float, measured: bool, future: asyncio.Future) -> None:
        nonlocal inflight
        inflight -= 1
        if future.cancelled() or future.exception() is not None:
            return
        reply, received = future.result()
        committed = check(ops, reply)
        if committed:
            result.total_committed += 1
        if measured:
            result.record(reply, committed, received - due)
            result.window_end = max(result.window_end, received)
            # the next unsent request is due no sooner than due + interval
            if inflight == 0 and due + interval - time.perf_counter() > IDLE_MARGIN_S:
                idle()

    for n in range(total):
        due = began + n * interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        measured = n >= warm
        if n == warm:
            result.window_start = due
            result.start_mark = mark()
        ops = source()
        sent = time.perf_counter()
        # counted before the send, so no reply handled meanwhile sees it idle
        inflight += 1
        result.inflight_max = max(result.inflight_max, inflight)
        future = await wire.send({"method": "txn", "ops": ops})
        if measured:
            result.late_ms.append((sent - due) * 1e3)
        future.add_done_callback(
            lambda f, ops=ops, due=due, measured=measured: on_reply(ops, due, measured, f)
        )
        outstanding.append(future)
    if outstanding:
        done, pending = await asyncio.wait(outstanding, timeout=TIMEOUT_S)
        if pending:
            raise TimeoutError(f"{len(pending)} requests unanswered after {TIMEOUT_S:g} s")
        for future in done:
            future.result()
    # let the done-callbacks of the last replies run
    await asyncio.sleep(0)
    result.end_mark = mark()
    return result


async def call_all(wire: Wire, txns: List[List[List[Any]]]) -> List[Dict[str, Any]]:
    """Send ``txns`` all at once; the replies in request order."""
    return list(await asyncio.gather(*[wire.call({"method": "txn", "ops": ops}) for ops in txns]))


async def admin(wire: Wire, method: str, **params: Any) -> Dict[str, Any]:
    return await wire.call({"method": method, **params})

