"""Child processes of one benchmark run: launch, wait for ready, sample
``/proc``, kill and reap.

Every child goes through :class:`Children`, whose ``close()`` kills and
reaps whatever is still alive — on success, on a failed check, on an
exception and on the per-workload deadline alike.  Each child's stderr
goes to a file so a failure message can carry its tail.

Every child runs on one CPU, :data:`PROGRAM_CPU`, and the benchmark's own
process (the load generator) on the others: the program and the
reference work that scales its timings (``speed.py``) then share one
CPU's speed, and the load generator does not take that CPU from them.
"""

from __future__ import annotations

import contextlib
import os
import re
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: seconds a child may take to get ready, to finish, or to exit when asked
TIMEOUT_S = 60.0
#: stderr lines a failure message carries
TAIL_LINES = 20
#: the CPU every child runs on
PROGRAM_CPU = max(os.sched_getaffinity(0))
#: the CPUs the benchmark's own process runs on (all of them on a 1-CPU box)
BENCH_CPUS = (os.sched_getaffinity(0) - {PROGRAM_CPU}) or {PROGRAM_CPU}


@contextlib.contextmanager
def on_program_cpu():
    """Run the calling thread on :data:`PROGRAM_CPU` for the block."""
    os.sched_setaffinity(0, {PROGRAM_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, BENCH_CPUS)


class RunFailed(RuntimeError):
    """A check failed or a child misbehaved; the message says why.  The
    counts say how many operations had been attempted and had failed."""

    def __init__(self, message: str, attempted: int = 0, failed: int = 0) -> None:
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


@dataclass
class Child:
    name: str
    proc: subprocess.Popen
    stderr_path: str
    launched: float
    ready_line: str = ""
    ready_at: float = 0.0
    pending: bytes = b""

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def startup_s(self) -> float:
        return self.ready_at - self.launched

    def stderr_tail(self) -> str:
        try:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
                text = handle.read().splitlines()[-TAIL_LINES:]
        except OSError:
            return ""
        return "\n".join(text)

    def port(self) -> int:
        match = re.search(r"listening on [^\s:]+:(\d+)", self.ready_line)
        if match is None:
            raise RunFailed(f"{self.name}: no port in ready line {self.ready_line!r}")
        return int(match.group(1))


class Children:
    """The children of one run (a context manager)."""

    def __init__(self, workdir: str, env: Dict[str, str]) -> None:
        self.workdir = workdir
        self.env = env
        self.children: List[Child] = []

    def launch(self, name: str, argv: Sequence[str], ready: str) -> Child:
        """Start ``argv`` and block until a stdout line starting with
        ``ready`` appears; the launch-to-ready time is ``child.startup_s``."""
        stderr_path = os.path.join(self.workdir, f"{name}-{len(self.children)}.stderr")
        with open(stderr_path, "wb") as stderr:
            launched = time.perf_counter()
            proc = subprocess.Popen(
                list(argv), stdout=subprocess.PIPE, stderr=stderr, env=self.env,
                preexec_fn=lambda: os.sched_setaffinity(0, {PROGRAM_CPU}),
            )
        child = Child(name, proc, stderr_path, launched)
        self.children.append(child)
        deadline = launched + TIMEOUT_S
        while True:
            line = self._readline(child, deadline)
            if line.startswith(ready):
                child.ready_at = time.perf_counter()
                child.ready_line = line
                return child

    def _readline(self, child: Child, deadline: float) -> str:
        fd = child.proc.stdout.fileno()
        while b"\n" not in child.pending:
            remaining = deadline - time.perf_counter()
            readable, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not readable:
                raise RunFailed(f"{child.name} gave no line in time\n{child.stderr_tail()}")
            chunk = os.read(fd, 65536)
            if not chunk:
                child.proc.wait(timeout=TIMEOUT_S)
                raise RunFailed(
                    f"{child.name} exited with code {child.proc.returncode}\n"
                    f"{child.stderr_tail()}"
                )
            child.pending += chunk
        line, _, child.pending = child.pending.partition(b"\n")
        return line.decode("utf-8", errors="replace").strip()

    def read_rest(self, child: Child) -> List[str]:
        """The child's remaining stdout lines; it must exit by itself, with 0."""
        try:
            rest, _ = child.proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{child.name} did not finish in time\n{child.stderr_tail()}")
        if child.proc.returncode != 0:
            raise RunFailed(
                f"{child.name} exited with code {child.proc.returncode}\n{child.stderr_tail()}"
            )
        text = (child.pending + rest).decode("utf-8", errors="replace")
        return [line.strip() for line in text.splitlines() if line.strip()]

    def kill(self, child: Child) -> float:
        """SIGKILL ``child`` and reap it; returns the moment of the kill."""
        killed = time.perf_counter()
        if child.proc.poll() is None:
            child.proc.send_signal(signal.SIGKILL)
        child.proc.wait(timeout=TIMEOUT_S)
        if child.proc.stdout is not None:
            child.proc.stdout.close()
        return killed

    def stop(self, child: Child) -> None:
        """Wait for a child that was asked to shut down; kill it if it will not."""
        try:
            child.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill(child)
            raise RunFailed(f"{child.name} did not shut down\n{child.stderr_tail()}")
        if child.proc.stdout is not None:
            child.proc.stdout.close()

    def close(self) -> None:
        for child in self.children:
            if child.proc.poll() is None:
                child.proc.kill()
            try:
                child.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:  # pragma: no cover - unkillable child
                pass
            if child.proc.stdout is not None and not child.proc.stdout.closed:
                child.proc.stdout.close()

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RunFailed(f"no VmHWM for pid {pid}")


