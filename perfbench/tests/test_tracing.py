import asyncio

import pytest

from perfbench import tracing


def test_self_time_subtracts_the_covered_part_of_children():
    spans = [
        ("outer", 0.0, 10.0, -1, None, None, 0.0),
        ("a", 1.0, 3.0, 0, None, None, 0.0),
        ("b", 2.0, 4.0, 0, None, None, 0.0),  # overlaps a: [1, 4] counted once
        ("c", 9.0, 12.0, 0, None, None, 0.0),  # only [9, 10] lies inside outer
        ("a.1", 1.5, 2.0, 1, None, None, 0.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 2.0, 3.0, 0.5])


class Base:
    def inherited(self, x):
        return x + 1


class Thing(Base):
    def outer(self, x):
        return self.inner(x) * 2

    def inner(self, x):
        return x + 10


def free_function(x):
    return -x


def test_recorded_spans_nest_and_carry_token_and_value():
    recorder = tracing.Recorder()
    recorder.wrap(Thing, "outer", "outer", token=lambda args: args[1])
    recorder.wrap(Thing, "inner", "inner", value=lambda args, result, pre: (result, pre),
                  before=lambda args: "pre")
    try:
        assert Thing().outer(1) == 22
    finally:
        recorder.remove()
    outer, inner = recorder.spans
    assert outer[0] == "outer" and outer[3] == -1 and outer[4] == 1
    assert inner[0] == "inner" and inner[3] == 0 and inner[5] == (11, "pre")
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert outer[6] >= 0.0 and inner[6] == 0.0  # CPU only on top-level spans


def test_removing_the_wrappers_restores_every_attribute(tmp_path):
    import sys

    module = sys.modules[__name__]
    queue_holder = {}

    async def make_queue():
        queue_holder["q"] = asyncio.Queue()

    asyncio.run(make_queue())
    queue = queue_holder["q"]
    before = {
        "outer": vars(Thing)["outer"],
        "inner": vars(Thing)["inner"],
        "free": module.free_function,
        "put": type(queue).put,
    }
    recorder = tracing.Recorder()
    recorder.wrap(Thing, "outer", "outer")
    recorder.wrap(Thing, "inherited", "inherited")  # lives on Base, not Thing
    recorder.wrap(module, "free_function", "free")
    tracing.wrap_put(recorder, queue)
    assert vars(Thing)["outer"] is not before["outer"]
    assert "inherited" in vars(Thing) and "put" in vars(queue)
    assert Thing().inherited(1) == 2 and module.free_function(3) == -3
    recorder.remove()
    assert vars(Thing)["outer"] is before["outer"]
    assert vars(Thing)["inner"] is before["inner"]
    assert "inherited" not in vars(Thing)
    assert module.free_function is before["free"]
    assert "put" not in vars(queue) and type(queue).put is before["put"]
    recorder.dump(str(tmp_path / "spans.json"))
    spans, events = tracing.load(str(tmp_path / "spans.json"))
    assert [s[0] for s in spans] == ["inherited", "free"] and events == []


def test_serve_and_explorer_wrappers_leave_the_program_as_it_was():
    from repro.checking.reduction import Reducer
    from repro.core.machine import Machine
    from repro.core.spec import MemoizedMovers
    from repro.durable import recovery, store
    from repro.serve import daemon, framing, shard
    from repro.specs.product import ProductSpec
    from repro.tm.base import Runtime

    owners = [shard.ShardState, Runtime, MemoizedMovers, ProductSpec, store.SegmentStore,
              recovery, framing, daemon.InlineShard, daemon.Daemon, Machine, Reducer]
    before = [dict(vars(owner)) for owner in owners]
    recorder = tracing.Recorder()
    tracing.install_serve(recorder)
    tracing.install_explorer(recorder)
    assert framing.encode_frame is not before[owners.index(framing)]["encode_frame"]
    assert framing.encode_frame({"a": 1}) == before[owners.index(framing)]["encode_frame"]({"a": 1})
    recorder.remove()
    for owner, saved in zip(owners, before):
        assert dict(vars(owner)) == saved, owner
