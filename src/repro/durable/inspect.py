"""Read-only inspection of a durability directory (``repro log``).

Everything here opens files for reading only: no lock is taken, no torn
tail is truncated, nothing is compacted — safe to point at a directory a
live daemon is writing (the worst case is seeing a frame mid-write,
which reports as a torn tail exactly as a crash there would).

:func:`inspect_directory` produces the JSON document behind ``repro log
--json``; :func:`read_directory_records` is the strict programmatic
reader recovery and the chaos oracle share (same torn-tail/refusal
judgement as :class:`~repro.durable.store.SegmentStore`, minus the
truncation side effect).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.durable.records import ScanResult, SegmentCorruption, scan_frames
from repro.durable.store import SEGMENT_RE, SegmentStore, load_snapshot


def _scan_segments(directory: str) -> List[Tuple[str, int, ScanResult]]:
    """``(name, file size, scan)`` for every segment file, in name order
    (which is creation order — indexes are monotone)."""
    try:
        names = sorted(n for n in os.listdir(directory) if SEGMENT_RE.match(n))
    except FileNotFoundError:
        return []
    out = []
    for name in names:
        with open(os.path.join(directory, name), "rb") as handle:
            data = handle.read()
        out.append((name, len(data), scan_frames(data)))
    return out


def _refusal(name: str, result: ScanResult, is_last: bool) -> Optional[str]:
    """The store's open-time judgement, as a message instead of a raise."""
    try:
        SegmentStore._judge_scan(name, result, is_last)
    except SegmentCorruption as exc:
        return str(exc)
    return None


def read_directory_records(directory: str) -> Tuple[List[Dict[str, Any]], int]:
    """All records above the snapshot watermark, in LSN order, without
    touching the directory.  Returns ``(records, watermark)``; raises
    :class:`SegmentCorruption` on refusal-grade damage (a torn tail on
    the final segment is tolerated and simply ends the list)."""
    snapshot = load_snapshot(directory)
    watermark = int(snapshot.get("watermark", 0)) if snapshot else 0
    scans = _scan_segments(directory)
    records: List[Dict[str, Any]] = []
    for position, (name, _size, result) in enumerate(scans):
        refusal = _refusal(name, result, position == len(scans) - 1)
        if refusal is not None:
            raise SegmentCorruption(refusal)
        for _offset, record in result.records:
            if record.get("t") == "seghdr":
                continue
            if int(record.get("lsn", 0)) <= watermark:
                continue
            records.append(record)
    return records, watermark


def inspect_directory(directory: str) -> Dict[str, Any]:
    """The full ``repro log`` report for one directory, JSON-safe."""
    if not os.path.isdir(directory):
        return {
            "directory": directory,
            "ok": False,
            "refusal": f"{directory!r} is not a directory",
            "segments": [],
            "records": 0,
            "by_type": {},
        }
    scans = _scan_segments(directory)
    snapshot = load_snapshot(directory)
    watermark = int(snapshot.get("watermark", 0)) if snapshot else 0
    segments: List[Dict[str, Any]] = []
    by_type: Dict[str, int] = {}
    total = 0
    last_lsn = watermark
    refusal: Optional[str] = None
    torn_tail: Optional[Dict[str, Any]] = None
    for position, (name, size, result) in enumerate(scans):
        is_last = position == len(scans) - 1
        verdict = _refusal(name, result, is_last)
        if verdict is not None and refusal is None:
            refusal = verdict
        if verdict is None and result.corruption is not None:
            torn_tail = {
                "segment": name,
                "reason": result.corruption,
                "dropped_bytes": size - result.good_bytes,
            }
        first_lsn = None
        seg_last = None
        count = 0
        for _offset, record in result.records:
            kind = str(record.get("t", "?"))
            if kind == "seghdr":
                first_lsn = record.get("first_lsn")
                continue
            count += 1
            total += 1
            by_type[kind] = by_type.get(kind, 0) + 1
            lsn = int(record.get("lsn", 0))
            seg_last = lsn if seg_last is None else max(seg_last, lsn)
            last_lsn = max(last_lsn, lsn)
        segments.append(
            {
                "file": name,
                "bytes": size,
                "good_bytes": result.good_bytes,
                "records": count,
                "first_lsn": first_lsn,
                "last_lsn": seg_last,
                "clean": result.clean,
                "corruption": result.corruption,
                "resync_offset": result.resync_offset,
            }
        )
    lock_path = os.path.join(directory, "LOCK")
    lock: Dict[str, Any] = {"present": os.path.exists(lock_path)}
    if lock["present"]:
        try:
            with open(lock_path, encoding="utf-8") as handle:
                lock["pid"] = handle.read().strip() or None
        except OSError:
            lock["pid"] = None
    return {
        "directory": directory,
        "ok": refusal is None,
        "refusal": refusal,
        "torn_tail": torn_tail,
        "snapshot": {
            "watermark": watermark,
            "meta": snapshot.get("meta", {}),
        }
        if snapshot
        else None,
        "segments": segments,
        "records": total,
        "by_type": dict(sorted(by_type.items())),
        "last_lsn": last_lsn,
        "lock": lock,
    }


def render_inspection(report: Dict[str, Any]) -> str:
    """The human form of :func:`inspect_directory`."""
    lines = [f"durable log: {report['directory']}"]
    snapshot = report.get("snapshot")
    if snapshot:
        lines.append(
            f"  snapshot: watermark lsn {snapshot['watermark']}"
            + (f" meta={snapshot['meta']}" if snapshot.get("meta") else "")
        )
    else:
        lines.append("  snapshot: none")
    for segment in report.get("segments", ()):
        status = "clean" if segment["clean"] else (
            f"CORRUPT ({segment['corruption']})"
        )
        span = (
            f"lsn {segment['first_lsn']}..{segment['last_lsn']}"
            if segment["last_lsn"]
            else "no records"
        )
        lines.append(
            f"  {segment['file']}: {segment['records']} record(s), "
            f"{segment['bytes']} bytes, {span}, {status}"
        )
    if report.get("torn_tail"):
        tail = report["torn_tail"]
        lines.append(
            f"  torn tail: {tail['segment']} loses {tail['dropped_bytes']} "
            f"trailing byte(s) ({tail['reason']}) — recoverable"
        )
    lines.append(
        "  totals: "
        + (
            ", ".join(f"{k}={v}" for k, v in report["by_type"].items())
            or "no records"
        )
        + f"; last lsn {report.get('last_lsn', 0)}"
    )
    if report.get("lock", {}).get("present"):
        lines.append(f"  lock: held/left by pid {report['lock'].get('pid')}")
    lines.append(
        "  verdict: "
        + ("ok" if report["ok"] else f"REFUSE RECOVERY — {report['refusal']}")
    )
    return "\n".join(lines)
