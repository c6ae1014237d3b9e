"""The ``mc-sweep`` worker: one exhaustive exploration of every registered
``repro modelcheck`` scope, with POR ``on`` or ``off``.

Usage: ``python perfbench/explorer.py on|off [SPANS]``

Like ``repro modelcheck``, each sweep runs in a fresh process, so it pays
for its own cold intern tables and memos.  Prints ``explorer: ready`` once
the package is imported and the scopes are built, then sweeps and prints
one JSON line: the sweep's wall and CPU time, the CPU times of the
reference chunks a :class:`Sampler` timed during the sweep, each scope's
exact counts and this process's peak RSS.  With ``SPANS`` the kernel and reducer entry
points are wrapped and the spans are written there.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
import time
from typing import List, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import speed  # noqa: E402

#: the sampler times one reference chunk every this many seconds (~4% of
#: the CPU at nominal speed)
SAMPLE_EVERY_S = 0.02


class Sampler(threading.Thread):
    """Times :func:`perfbench.speed.work` chunks while the sweep runs.

    It shares the process's CPU with the sweep (the benchmark launches the
    explorer pinned to ``procs.PROGRAM_CPU``, and threads inherit the
    pinning), so each chunk samples the speed of the CPU the sweep is
    running on, at that moment, spread evenly over the sweep's time."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        #: (CPU seconds, wall seconds) of each chunk
        self.chunks: List[Tuple[float, float]] = []
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            self.chunks.append(speed.work())
            if self.done.wait(SAMPLE_EVERY_S):
                return


def sweep(scopes, por: bool, explore, options_for, recorder) -> dict:
    counts = {}
    sampler = Sampler()
    # the sweep's own thread's CPU, without the sampler's, and the process's
    cpu0, process0, wall0 = time.thread_time(), time.process_time(), time.perf_counter()
    sampler.start()
    for name, (spec, programs) in scopes.items():
        mode = "on" if por else "off"
        span = (recorder.span("checking.model_checker.explore", f"{name}:{mode}")
                if recorder is not None else contextlib.nullcontext())
        with span:
            report = explore(spec, programs, options_for(por))
        counts[name] = {
            "states": report.states,
            "transitions": report.transitions,
            "dedup_hits": report.dedup_hits,
            "ok": report.ok,
        }
    sampler.done.set()
    sampler.join()
    return {
        "por": por,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.thread_time() - cpu0,
        "process_cpu_s": time.process_time() - process0,
        "reference_cpu_s": [cpu for cpu, _wall in sampler.chunks],
        "reference_wall_s": [wall for _cpu, wall in sampler.chunks],
        "scopes": counts,
    }


def main(argv) -> int:
    if not argv or argv[0] not in ("on", "off"):
        print("usage: explorer.py on|off [SPANS]", file=sys.stderr)
        return 2
    por = argv[0] == "on"
    spans_path = argv[1] if len(argv) > 1 else None

    from repro.checking.model_checker import ExploreOptions, explore
    from repro.cli import SCOPES
    from repro.obs.tracer import NULL_TRACER

    def options_for(por: bool) -> ExploreOptions:
        # exactly what `repro modelcheck` passes with no flags
        return ExploreOptions(
            max_states=400_000, check_cmtpres=False, por=por, tracer=NULL_TRACER,
            opacity_checker=None, opacity_bound=8, trace_rules=False,
        )

    scopes = {name: (spec_cls(), programs) for name, (spec_cls, programs) in SCOPES.items()}
    recorder = None
    if spans_path:
        from perfbench.tracing import Recorder, install_explorer

        recorder = Recorder()
        install_explorer(recorder)
    print("explorer: ready", flush=True)

    result = sweep(scopes, por, explore, options_for, recorder)
    if recorder is not None:
        recorder.dump(spans_path)
    with open("/proc/self/status", encoding="ascii") as handle:
        result["rss_peak_mib"] = next(
            int(line.split()[1]) for line in handle if line.startswith("VmHWM:")
        ) / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
