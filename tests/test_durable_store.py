"""The durable segment store below the shard: frame and state codecs,
scanning and the torn-tail/refusal discriminator, rotation, snapshots,
compaction, the single-writer lock, and the refuse-or-prefix property
under random segment mutation (``src/repro/durable/records.py``,
``src/repro/durable/store.py``, ``src/repro/fuzz/mutators.py``).
"""

import gc
import json
import os
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.durable.records import (
    HEADER_SIZE,
    RECORD_MAGIC,
    DurableFormatError,
    SegmentCorruption,
    decode_state,
    encode_record,
    encode_state,
    scan_frames,
)
from repro.durable.store import DirLock, SegmentStore, StoreLockedError, load_snapshot
from repro.fuzz.mutators import SEGMENT_MUTATIONS, mutate_segment_bytes


def commit(i, **extra):
    return {"t": "commit", "txn": f"t{i}",
            "ops": [["kvmap", "put", f"k{i}", i]], "results": [None], **extra}


# -- frame codec ---------------------------------------------------------------


class TestFrameCodec:
    def test_round_trip(self):
        frames = b"".join(encode_record(commit(i)) for i in range(5))
        result = scan_frames(frames)
        assert result.clean and result.good_bytes == len(frames)
        assert [r["txn"] for _off, r in result.records] == [
            f"t{i}" for i in range(5)
        ]

    def test_record_too_large_refused_on_encode(self):
        with pytest.raises(DurableFormatError):
            encode_record({"t": "commit", "blob": "x" * (1 << 22)})

    def test_non_json_record_refused(self):
        with pytest.raises(DurableFormatError):
            encode_record({"t": "commit", "bad": {1, 2}})

    def test_empty_input_is_clean(self):
        assert scan_frames(b"").clean

    json_scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-(2 ** 31), 2 ** 31),
        st.text(max_size=12),
    )

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=6), json_scalars,
                           max_size=5))
    def test_any_json_object_round_trips(self, doc):
        result = scan_frames(encode_record(doc))
        assert result.clean and len(result.records) == 1
        assert result.records[0][1] == doc


class TestTornTailDiscrimination:
    def test_torn_at_every_byte_offset_of_the_final_record(self):
        """Cutting the log anywhere inside the last frame must read as a
        torn tail — full prefix recovered, damage flagged, no resync."""
        frames = [encode_record(commit(i)) for i in range(3)]
        data = b"".join(frames)
        body = len(data) - len(frames[-1])
        for cut in range(body + 1, len(data)):
            result = scan_frames(data[:cut])
            assert result.torn_tail, f"cut at {cut} not seen as torn tail"
            assert result.good_bytes == body
            assert len(result.records) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, HEADER_SIZE + 20))
    def test_garbage_tail_is_torn(self, seed, extra):
        data = b"".join(encode_record(commit(i)) for i in range(2))
        junk = random.Random(seed).randbytes(extra)
        result = scan_frames(data + junk)
        if result.clean:
            # the junk happened to start with a whole valid frame
            assert len(result.records) >= 2
        else:
            assert result.good_bytes >= len(data)
            assert result.resync_offset is None or (
                result.resync_offset > result.good_bytes
            )

    def test_mid_segment_damage_resyncs_not_torn(self):
        frames = [encode_record(commit(i)) for i in range(3)]
        # flip a payload byte of the middle frame: its crc fails but the
        # final frame still parses, so this is refusal-grade damage
        data = bytearray(b"".join(frames))
        at = len(frames[0]) + HEADER_SIZE + 2
        data[at] ^= 0xFF
        result = scan_frames(bytes(data))
        assert not result.clean and not result.torn_tail
        assert result.resync_offset == len(frames[0]) + len(frames[1])
        assert len(result.records) == 1


# -- state codec ---------------------------------------------------------------


state_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-100, 100),
              st.text(max_size=8)),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.frozensets(st.one_of(st.integers(-20, 20), st.text(max_size=4)),
                      max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=12,
)


class TestStateCodec:
    @settings(max_examples=120, deadline=None)
    @given(state_values)
    def test_round_trip(self, value):
        assert decode_state(encode_state(value)) == value

    @settings(max_examples=60, deadline=None)
    @given(state_values)
    def test_encoding_is_json_safe(self, value):
        json.dumps(encode_state(value))

    def test_tuple_list_distinction_survives(self):
        encoded = encode_state((("a", 1), ["a", 1]))
        decoded = decode_state(encoded)
        assert decoded == (("a", 1), ["a", 1])
        assert isinstance(decoded[0], tuple) and isinstance(decoded[1], list)

    def test_unencodable_value_refused(self):
        with pytest.raises(DurableFormatError):
            encode_state(object())


# -- the store -----------------------------------------------------------------


class TestSegmentStore:
    def test_ack_boundary_after_crash(self, tmp_path):
        """Synced records survive a crash; buffered-unsynced ones do not
        — exactly the ack-after-fsync contract."""
        d = str(tmp_path / "log")
        store = SegmentStore(d)
        for i in range(4):
            store.append(commit(i))
        store.sync()
        for i in range(4, 7):
            store.append(commit(i))  # never synced: unacknowledged
        assert store.unsynced_records == 3
        store.crash()
        reopened = SegmentStore(d)
        assert [r["txn"] for r in reopened.recovered_records] == [
            f"t{i}" for i in range(4)
        ]
        assert reopened.last_lsn == 4
        reopened.close()

    def test_rotation_spreads_segments_and_lsns_stay_dense(self, tmp_path):
        d = str(tmp_path / "log")
        store = SegmentStore(d, segment_bytes=256)
        for i in range(30):
            store.append(commit(i))
            store.sync()
        assert len(store.segment_paths()) > 1
        store.close()
        reopened = SegmentStore(d, segment_bytes=256)
        lsns = [r["lsn"] for r in reopened.recovered_records]
        assert lsns == list(range(1, 31))
        reopened.close()

    def test_second_writer_refused_then_allowed_after_close(self, tmp_path):
        d = str(tmp_path / "log")
        store = SegmentStore(d)
        with pytest.raises(StoreLockedError) as err:
            SegmentStore(d)
        assert str(os.getpid()) in str(err.value)
        store.close()
        SegmentStore(d).close()  # lock released with the first owner

    def test_dirlock_released_on_crash(self, tmp_path):
        d = str(tmp_path / "log")
        store = SegmentStore(d)
        store.crash()  # SIGKILL semantics: fd closed -> flock released
        lock = DirLock(d).acquire()
        lock.release()

    def test_snapshot_compaction_and_watermark(self, tmp_path):
        d = str(tmp_path / "log")
        store = SegmentStore(d, segment_bytes=256)
        for i in range(20):
            store.append(commit(i))
        store.sync()
        before = len(store.segment_paths())
        store.write_snapshot(encode_state({"n": 20}), meta={"why": "test"})
        store.append(commit(99))
        store.sync()
        store.close()

        snap = load_snapshot(d)
        assert snap["watermark"] == 20
        assert decode_state(snap["state"]) == {"n": 20}
        assert snap["meta"] == {"why": "test"}

        reopened = SegmentStore(d, segment_bytes=256)
        # compaction dropped everything the snapshot covers
        assert len(reopened.segment_paths()) < before
        survivors = [r for r in reopened.recovered_records
                     if r["lsn"] > snap["watermark"]]
        assert [r["txn"] for r in survivors] == ["t99"]
        assert reopened.last_lsn == 21
        reopened.close()

    def test_corrupt_snapshot_file_skipped_not_fatal(self, tmp_path):
        d = str(tmp_path / "log")
        store = SegmentStore(d)
        store.append(commit(0))
        store.sync()
        store.write_snapshot(encode_state("s"), meta={})
        store.close()
        snaps = [n for n in os.listdir(d) if n.startswith("snapshot-")]
        (tmp_path / "log" / snaps[0]).write_text("{torn", encoding="utf-8")
        assert load_snapshot(d) is None
        SegmentStore(d).close()  # still opens; segments carry the data

    def test_load_snapshot_closes_the_file_it_reads(self, tmp_path):
        d = str(tmp_path / "log")
        store = SegmentStore(d)
        store.append(commit(0))
        store.sync()
        store.write_snapshot(encode_state("s"), meta={})
        store.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert load_snapshot(d) is not None
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_inspect_closes_the_lock_file_it_reads(self, tmp_path):
        from repro.durable.inspect import inspect_directory

        d = str(tmp_path / "log")
        store = SegmentStore(d)
        store.append(commit(0))
        store.sync()
        store.crash()
        # a SIGKILLed owner leaves its lock file behind
        with open(os.path.join(d, "LOCK"), "w", encoding="utf-8") as handle:
            handle.write("4242\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = inspect_directory(d)
            gc.collect()
        assert report["lock"] == {"present": True, "pid": "4242"}
        assert not [w for w in caught if w.category is ResourceWarning]

    def test_torn_tail_truncated_once_on_open(self, tmp_path):
        d = str(tmp_path / "log")
        store = SegmentStore(d)
        for i in range(3):
            store.append(commit(i))
        store.sync()
        store.crash()
        seg = sorted(p for p in os.listdir(d) if p.endswith(".seg"))[-1]
        path = os.path.join(d, seg)
        clean_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(RECORD_MAGIC + b"\x01\x02")  # partial header
        reopened = SegmentStore(d)
        assert reopened.torn_tail_dropped == len(RECORD_MAGIC) + 2
        assert os.path.getsize(path) == clean_size
        assert len(reopened.recovered_records) == 3
        reopened.close()

    def test_non_final_segment_damage_refused(self, tmp_path):
        d = str(tmp_path / "log")
        store = SegmentStore(d, segment_bytes=256)
        for i in range(30):
            store.append(commit(i))
            store.sync()
        paths = store.segment_paths()
        assert len(paths) >= 2
        store.close()
        with open(paths[0], "r+b") as handle:
            handle.seek(HEADER_SIZE + 1)
            byte = handle.read(1)
            handle.seek(HEADER_SIZE + 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(SegmentCorruption):
            SegmentStore(d, segment_bytes=256)
        # refusal must not leave the directory locked
        DirLock(d).acquire().release()


# -- refuse-or-prefix under random mutation ------------------------------------


class TestMutationProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(SEGMENT_MUTATIONS))
    def test_refuse_or_prefix(self, tmp_path_factory, seed, kind):
        """Any byte-level mutation of the final segment either refuses
        recovery or recovers an exact prefix of the original records —
        never reordered, never invented, never silently resumed past a
        hole."""
        d = str(tmp_path_factory.mktemp("mut") / "log")
        store = SegmentStore(d)
        originals = []
        for i in range(6):
            originals.append(store.append(commit(i)))
        store.sync()
        store.close()
        seg = sorted(p for p in os.listdir(d) if p.endswith(".seg"))[-1]
        path = os.path.join(d, seg)
        rng = random.Random(seed)
        with open(path, "rb") as handle:
            data = handle.read()
        mutated, applied = mutate_segment_bytes(data, rng, kind)
        with open(path, "wb") as handle:
            handle.write(mutated)
        assert applied == kind
        try:
            reopened = SegmentStore(d)
        except SegmentCorruption:
            return  # refusal is always a sound answer
        txns = [r["txn"] for r in reopened.recovered_records]
        reopened.close()
        expected = [f"t{i}" for i in range(6)]
        assert txns == expected[: len(txns)]
