"""Due-time accounting of the open loop, against a fake daemon."""

import asyncio
import json
import struct

from perfbench import load

HEADER = struct.Struct(">I")


async def fake_daemon(stall_request: int, stall_s: float):
    """A daemon that answers every request in arrival order, committing it,
    and holds back the ``stall_request``-th one (and everything behind it)."""
    lock = asyncio.Lock()
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        try:
            while True:
                header = await reader.readexactly(HEADER.size)
                message = json.loads(await reader.readexactly(HEADER.unpack(header)[0]))
                async with lock:
                    seen += 1
                    if seen == stall_request:
                        await asyncio.sleep(stall_s)
                    payload = json.dumps({"id": message["id"], "ok": True, "results": [None]}).encode()
                    writer.write(HEADER.pack(len(payload)) + payload)
                    await writer.drain()
        except asyncio.IncompleteReadError:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def run_open_loop(stall_request: int, stall_s: float, rate: float = 100.0, seconds: float = 0.6):
    async def go():
        server = await fake_daemon(stall_request, stall_s)
        port = server.sockets[0].getsockname()[1]
        wire = await load.Wire().open("127.0.0.1", port, 1)
        try:
            return await load.open_loop(
                wire, lambda: [["kvmap", "get", "k"]], lambda ops, reply: bool(reply["ok"]),
                rate, 0.0, seconds,
            )
        finally:
            await wire.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(go())


def test_a_stalled_reply_raises_the_latency_of_later_requests():
    rate, stall = 100.0, 0.3
    calm = run_open_loop(stall_request=0, stall_s=0.0, rate=rate)
    stalled = run_open_loop(stall_request=5, stall_s=stall, rate=rate)
    assert calm.attempted == stalled.attempted == 60
    assert max(calm.latencies_ms) < 100
    # request k (k >= 5, 0-based 4) was due (k - 5) intervals after the
    # stalled one and could only be answered when the stall ended
    for k in range(5, 20):
        owed_ms = (stall - (k - 4) / rate) * 1e3
        assert stalled.latencies_ms[k] >= owed_ms - 15, (k, stalled.latencies_ms[k], owed_ms)
    # the generator kept its schedule: it never waited for the stalled reply
    assert stalled.inflight_max >= 20
    assert max(stalled.late_ms) < 50
    assert sorted(stalled.latencies_ms)[-10] > 3 * sorted(calm.latencies_ms)[-10]


def test_the_window_excludes_the_warm_up_and_marks_its_ends():
    async def go():
        server = await fake_daemon(stall_request=0, stall_s=0.0)
        port = server.sockets[0].getsockname()[1]
        wire = await load.Wire().open("127.0.0.1", port, 2)
        marks = iter(range(10))
        try:
            return await load.open_loop(
                wire, lambda: [["kvmap", "get", "k"]], lambda ops, reply: True,
                100.0, 0.2, 0.3, mark=lambda: next(marks),
            )
        finally:
            await wire.close()
            server.close()
            await server.wait_closed()

    result = asyncio.run(go())
    assert (result.start_mark, result.end_mark) == (0, 1)
    assert result.committed == result.attempted == 30
    assert result.total_committed == 50
    assert 0.25 < result.elapsed_s < 0.6


def test_idle_runs_in_the_window_only_with_nothing_in_flight():
    async def go():
        server = await fake_daemon(stall_request=0, stall_s=0.0)
        port = server.sockets[0].getsockname()[1]
        wire = await load.Wire().open("127.0.0.1", port, 2)
        # requests the wire was still waiting on at each idle call
        pending = []
        try:
            result = await load.open_loop(
                wire, lambda: [["kvmap", "get", "k"]], lambda ops, reply: True,
                50.0, 0.2, 0.4, idle=lambda: pending.append(len(wire._pending)),
            )
        finally:
            await wire.close()
            server.close()
            await server.wait_closed()
        return result, pending

    result, pending = asyncio.run(go())
    assert result.attempted == 20
    # the 10 warm-up requests get no idle call; most window replies do
    assert 5 <= len(pending) <= 20
    assert set(pending) == {0}
