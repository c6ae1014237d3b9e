"""The box's speed at the moment a timing was taken, from fixed reference
work done beside it.

The benchmark runs on a few cores of a shared host.  How fast that host
runs Python drifts by a fifth or more over seconds and minutes (each CPU
switched every few seconds between spells in which :func:`work` ran
about 1.6 times apart), so two runs
of unchanged code can read apart by more than any bound the benchmark may
set.  Every timing the benchmark reports is therefore taken beside a
reference timing of the same kind, and scaled by ``nominal / reference``:

* the program's Python work (a sweep, a request's service, CPU per
  transaction) beside :func:`work`, a fixed pure-Python chunk shaped like
  the program's hot paths (tuples, frozensets, dict lookups, small calls),
  run on the program's CPU (``procs.PROGRAM_CPU``) and timed in CPU
  seconds for CPU timings and in wall seconds for wall timings;
* a launch of the program's process (launch to ready) beside a launch of
  :data:`LAUNCH_ARGV`, an interpreter that imports a fixed set of standard
  library modules, timed in wall seconds.

The reference work is the benchmark's own code, so a change to the program
moves the measured timing and not its reference: a scaled timing still
grows and shrinks with the program's cost, while the host's drift, which
moves both, cancels.  The raw timings are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from typing import Dict, Iterable, Tuple

#: iterations of one :func:`reference_work` chunk (~0.7 ms of CPU)
ROUNDS = 600
#: seconds one :func:`reference_work` chunk takes at nominal speed
#: (about the median on a 2-core x86 KVM guest, Python 3.11)
WORK_S = 0.00075
#: wall seconds a :data:`LAUNCH_ARGV` launch takes at nominal speed
#: (same box)
LAUNCH_S = 0.150
LAUNCH_READY = "reference: ready"
LAUNCH_ARGV = [
    sys.executable,
    "-c",
    "import argparse, ast, asyncio, csv, dataclasses, decimal, difflib, email.message, "
    "fractions, http.client, inspect, json, logging, pathlib, statistics, tarfile, "
    "tempfile, typing, unittest, uuid, xml.dom.minidom, zipfile; "
    f"print({LAUNCH_READY!r}, flush=True)",
]


def _step(state: Tuple[int, int, int, int], i: int) -> Tuple[int, int, int, int]:
    a, b, c, d = state
    return (b, c, d, (a * 31 + i) % 4099)


def reference_work() -> int:
    """A fixed chunk of pure-Python work; returns the distinct keys it made."""
    seen: Dict[tuple, int] = {}
    state = (0, 1, 2, 3)
    for i in range(ROUNDS):
        state = _step(state, i)
        key = (state, frozenset(state[:2]))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def work() -> Tuple[float, float]:
    """CPU and wall seconds of one :func:`reference_work` chunk, timed now.
    The garbage collector is off meanwhile: a collection would walk the
    host process's heap, so the chunk would time the program's memory too."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu, wall = time.thread_time(), time.perf_counter()
        reference_work()
        return time.thread_time() - cpu, time.perf_counter() - wall
    finally:
        if enabled:
            gc.enable()


def scale(measured: float, references: Iterable[float], nominal: float) -> float:
    """``measured`` as it would read at nominal speed: times ``nominal``
    over the harmonic mean of the reference timings taken beside it.

    The harmonic mean averages speeds (1 / timing), so references spread
    evenly over a measured stretch give its mean speed, however the box
    switched between fast and slow spells within it; a reference the
    scheduler interrupted reads long and moves the mean little."""
    return measured * nominal / statistics.harmonic_mean(list(references))
