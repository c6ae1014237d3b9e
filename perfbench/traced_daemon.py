"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_daemon.py SPANS -- <repro serve args>``

The daemon runs through the CLI's own ``serve`` command (and so through
``run_daemon`` exactly as ``repro serve`` does).  Spans go to ``SPANS``
when the daemon shuts down, and also on SIGUSR1, so that a run ending in
SIGKILL can collect them first.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracing import Recorder, install_serve  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_daemon.py SPANS -- <repro serve args>", file=sys.stderr)
        return 2
    path, serve_args = argv[0], argv[2:]
    recorder = Recorder()
    install_serve(recorder)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: recorder.dump(path))
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
