"""The append-only segment store: fsync'd frames, rotation, snapshots.

One :class:`SegmentStore` owns one directory::

    DIR/
      LOCK                   single-writer guard (flock + pid, held open)
      segment-000001.seg     framed records (records.py layout)
      segment-000002.seg     ...
      snapshot-000000000042.json   RebasedStateSpec checkpoint @ watermark

Invariants (the retrovue ``INV-ASRUN-IMMUTABLE-001`` discipline applied
to storage — segments transition by *appending new frames or new files*,
never by rewriting old bytes):

* **append-only** — the only in-place mutation ever performed is the
  one-time truncation of a torn tail at open, and that only removes
  bytes the crash already made unreadable;
* **ack after fsync** — :meth:`append` buffers in user space;
  :meth:`sync` writes, flushes and ``os.fsync``\\ s in one batch (group
  commit).  Callers ack only after ``sync`` returns, so a kill between
  append and sync loses only unacknowledged records;
* **LSNs are dense and monotone** — every record carries ``lsn``;
  a snapshot's ``watermark`` is the last LSN its checkpoint state
  covers, and recovery replays strictly above it;
* **single writer** — the ``LOCK`` file is flock'd exclusively for the
  store's lifetime; a second opener gets :class:`StoreLockedError`
  (the ``repro serve`` double-daemon guard).

Torn-tail policy at open: the *last* segment may end in a damaged
region; if no valid frame exists beyond it (:attr:`~repro.durable.
records.ScanResult.torn_tail`) the file is truncated at the last good
byte and the store carries on — that is the crash-mid-append signature.
Damage anywhere else (an earlier segment, or followed by valid frames)
raises :class:`~repro.durable.records.SegmentCorruption`: acknowledged
records lie beyond the hole and silently dropping them would be data
loss, so recovery must refuse.
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.durable.records import (
    FORMAT_VERSION,
    DurableError,
    ScanResult,
    SegmentCorruption,
    encode_record,
    scan_frames,
)
from repro.obs.metrics import MetricsRegistry

try:  # linux/macos; the fallback covers platforms without fcntl
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

SEGMENT_RE = re.compile(r"^segment-(\d{6})\.seg$")
SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")

#: default rotation threshold; tests shrink it to force multi-segment dirs
DEFAULT_SEGMENT_BYTES = 1 << 20


class StoreLockedError(DurableError):
    """Another live process holds the directory's write lock."""


class DirLock:
    """An exclusive, advisory, process-lifetime lock on a directory.

    flock (not a bare pidfile) so a SIGKILL'd owner releases the lock
    with its file descriptors — no stale-pid heuristics.  The pid is
    still written into the file purely for the human in the error
    message.
    """

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, "LOCK")
        self._handle = None

    def acquire(self) -> "DirLock":
        handle = open(self.path, "a+", encoding="utf-8")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            else:  # pragma: no cover - non-POSIX best effort
                raise OSError("no fcntl")
        except OSError:
            handle.seek(0)
            owner = handle.read().strip() or "unknown pid"
            handle.close()
            raise StoreLockedError(
                f"durability directory {os.path.dirname(self.path)!r} is "
                f"locked by another process ({owner}); refusing to start a "
                "second writer"
            )
        handle.seek(0)
        handle.truncate()
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        self._handle = handle
        return self

    def release(self) -> None:
        if self._handle is not None:
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None


@dataclass
class _Segment:
    path: str
    index: int
    first_lsn: int
    last_lsn: int  # 0 = no records beyond the header yet


def _segment_name(index: int) -> str:
    return f"segment-{index:06d}.seg"


def _snapshot_name(watermark: int) -> str:
    return f"snapshot-{watermark:012d}.json"


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_snapshot(directory: str) -> Optional[Dict[str, Any]]:
    """Latest parseable snapshot document in ``directory`` (highest
    watermark first), or ``None``.  A torn/unreadable snapshot file is
    skipped, never fatal — the segments behind it still replay."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return None
    candidates = sorted(
        (m.group(0) for m in map(SNAPSHOT_RE.match, names) if m), reverse=True
    )
    for name in candidates:
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.loads(handle.read())
        except (OSError, ValueError):
            continue
        state_json = json.dumps(
            document.get("state"), separators=(",", ":"), sort_keys=True
        )
        if document.get("state_crc") != zlib.crc32(state_json.encode("utf-8")):
            continue
        return document
    return None


class SegmentStore:
    """See module docstring.  ``registry`` (optional) receives the
    ``durable.*`` counters and the ``serve.fsync.us`` group-commit
    latency histogram."""

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.registry = registry if registry is not None else MetricsRegistry()
        os.makedirs(directory, exist_ok=True)
        self._lock = DirLock(directory).acquire()
        self._pending = bytearray()
        self._pending_records = 0
        self._handle = None
        self._segments: List[_Segment] = []
        self.last_lsn = 0
        self.torn_tail_dropped = 0  # bytes truncated at open
        #: every record found on disk at open, in (segment, offset) order
        self.recovered_records: List[Dict[str, Any]] = []
        self.snapshot_doc = load_snapshot(directory)
        if self.snapshot_doc is not None:
            self.last_lsn = int(self.snapshot_doc.get("watermark", 0))
        try:
            self._open_existing()
        except DurableError:
            self._lock.release()
            raise

    # -- open-time scan ---------------------------------------------------------

    def _open_existing(self) -> None:
        names = sorted(
            name for name in os.listdir(self.directory) if SEGMENT_RE.match(name)
        )
        for position, name in enumerate(names):
            path = os.path.join(self.directory, name)
            index = int(SEGMENT_RE.match(name).group(1))
            with open(path, "rb") as handle:
                data = handle.read()
            result = scan_frames(data)
            is_last = position == len(names) - 1
            self._judge_scan(name, result, is_last)
            if result.corruption is not None:  # tolerated torn tail
                self.torn_tail_dropped = len(data) - result.good_bytes
                self._count("durable.recover.torn_tail_bytes",
                            self.torn_tail_dropped)
                with open(path, "r+b") as handle:
                    handle.truncate(result.good_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            first_lsn = self.last_lsn + 1
            last_lsn = 0
            for _offset, record in result.records:
                if record.get("t") == "seghdr":
                    first_lsn = int(record.get("first_lsn", first_lsn))
                    continue
                self.recovered_records.append(record)
                last_lsn = max(last_lsn, int(record.get("lsn", 0)))
            self._segments.append(_Segment(path, index, first_lsn, last_lsn))
            if last_lsn:
                self.last_lsn = max(self.last_lsn, last_lsn)
        if self._segments:
            self._handle = open(self._segments[-1].path, "ab")
        else:
            self._start_segment()
        self._count("durable.recover.records", len(self.recovered_records))

    @staticmethod
    def _judge_scan(name: str, result: ScanResult, is_last: bool) -> None:
        if result.clean:
            return
        if not is_last:
            raise SegmentCorruption(
                f"{name}: {result.corruption} at byte {result.good_bytes} in a "
                "non-final segment — acknowledged records follow the damage"
            )
        if result.resync_offset is not None:
            raise SegmentCorruption(
                f"{name}: {result.corruption} at byte {result.good_bytes} with "
                f"a valid record at byte {result.resync_offset} beyond it — "
                "mid-segment damage, not a torn tail"
            )
        # torn tail on the final segment: tolerated, caller truncates

    # -- appending ---------------------------------------------------------------

    def _start_segment(self) -> None:
        index = (self._segments[-1].index + 1) if self._segments else 1
        path = os.path.join(self.directory, _segment_name(index))
        handle = open(path, "xb")
        header = encode_record(
            {
                "t": "seghdr",
                "format": FORMAT_VERSION,
                "segment": index,
                "first_lsn": self.last_lsn + 1,
            }
        )
        handle.write(header)
        handle.flush()
        os.fsync(handle.fileno())
        if self._handle is not None:
            self._handle.close()
        self._handle = handle
        self._segments.append(_Segment(path, index, self.last_lsn + 1, 0))
        self._count("durable.segment.rotations")

    def append(self, record: Dict[str, Any]) -> int:
        """Frame ``record`` (assigning the next LSN) into the group-commit
        buffer.  Durable only after the next :meth:`sync`."""
        if self._handle is None:
            raise DurableError("store is closed")
        if (
            self._handle.tell() + len(self._pending) >= self.segment_bytes
            and self._segments[-1].last_lsn
        ):
            self.sync()
            self._start_segment()
        self.last_lsn += 1
        stamped = {**record, "lsn": self.last_lsn}
        frame = encode_record(stamped)
        self._pending.extend(frame)
        self._pending_records += 1
        self._segments[-1].last_lsn = self.last_lsn
        self._count("durable.append.records")
        self._count("durable.append.bytes", len(frame))
        return self.last_lsn

    def sync(self) -> None:
        """Group commit: write the buffered frames, flush, fsync, once."""
        if self._handle is None:
            raise DurableError("store is closed")
        if not self._pending:
            return
        batch = self._pending_records
        started = time.perf_counter()
        self._handle.write(self._pending)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        elapsed_us = (time.perf_counter() - started) * 1e6
        self._pending = bytearray()
        self._pending_records = 0
        self._count("durable.fsync.calls")
        self._count("durable.fsync.records", batch)
        self.registry.histogram("serve.fsync.us").observe(elapsed_us)
        self.registry.histogram("durable.fsync.batch").observe(batch)

    @property
    def unsynced_records(self) -> int:
        return self._pending_records

    # -- snapshots / compaction --------------------------------------------------

    def write_snapshot(self, state: Any, meta: Optional[Dict[str, Any]] = None) -> str:
        """Checkpoint ``state`` (already :func:`~repro.durable.records.
        encode_state`-encoded) at the current ``last_lsn`` watermark, then
        rotate and drop the segments the snapshot covers."""
        self.sync()
        watermark = self.last_lsn
        state_json = json.dumps(state, separators=(",", ":"), sort_keys=True)
        document = {
            "format": FORMAT_VERSION,
            "watermark": watermark,
            "state": state,
            "state_crc": zlib.crc32(state_json.encode("utf-8")),
            "meta": meta or {},
        }
        path = os.path.join(self.directory, _snapshot_name(watermark))
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"), sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_dir(self.directory)
        self.snapshot_doc = document
        self._count("durable.snapshot.writes")
        for name in os.listdir(self.directory):
            match = SNAPSHOT_RE.match(name)
            if match and int(match.group(1)) < watermark:
                os.unlink(os.path.join(self.directory, name))
        self._start_segment()
        self.compact()
        return path

    def compact(self) -> int:
        """Delete whole segments at or below the snapshot watermark.
        The active segment always survives."""
        if self.snapshot_doc is None:
            return 0
        watermark = int(self.snapshot_doc.get("watermark", 0))
        survivors: List[_Segment] = []
        removed = 0
        for position, segment in enumerate(self._segments):
            is_active = position == len(self._segments) - 1
            covered = (
                self._segments[position + 1].first_lsn - 1 <= watermark
                if not is_active
                else False
            )
            if covered:
                os.unlink(segment.path)
                removed += 1
            else:
                survivors.append(segment)
        if removed:
            _fsync_dir(self.directory)
            self._count("durable.compact.segments_removed", removed)
        self._segments = survivors
        return removed

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None
        self._lock.release()

    def crash(self) -> None:
        """Test/chaos hook: abandon the store as a SIGKILL would — drop
        the unsynced buffer and release the lock without flushing."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._pending = bytearray()
        self._pending_records = 0
        self._lock.release()

    def segment_paths(self) -> List[str]:
        return [segment.path for segment in self._segments]

    def _count(self, name: str, delta: int = 1) -> None:
        self.registry.counter(name).inc(delta)
