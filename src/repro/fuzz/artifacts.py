"""Replayable failure artifacts.

Every oracle failure is written as one JSON file embedding everything a
reproduction needs: the full corpus entry (programs, fault plan, choice
prefix, seed), the strategy name, the failure list, the *recorded*
scheduler choices and the verdict fingerprint.  Because a run is a pure
function of ``(entry, strategy)``, replay is just "run it again and
compare fingerprints" — no environment capture, no flaky timestamps.

``repro fuzz --replay <artifact.json>`` drives :func:`replay_artifact`;
the determinism regression test uses the same function.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.oracle import MAX_RETRIES, StrategyRun, run_entry

ARTIFACT_VERSION = 1


def write_artifact(
    directory: str,
    run: StrategyRun,
    shrunk: Optional[CorpusEntry] = None,
) -> str:
    """Persist a failing run (and its shrunk witness, if any) to
    ``directory``; returns the path.

    The shrunk entry gets its own fingerprint by one extra oracle run at
    write time, so replay can verify *both* reproductions independently.
    """
    if run.ok:
        raise ValueError("refusing to write an artifact for a green run")
    data = {
        "version": ARTIFACT_VERSION,
        "strategy": run.strategy,
        "failures": [{"check": f.check, "detail": f.detail} for f in run.failures],
        "fingerprint": run.fingerprint(),
        "choices": list(run.choices),
        "entry": run.entry.to_dict(),
        "shrunk_entry": None,
        "shrunk_fingerprint": None,
    }
    if shrunk is not None:
        shrunk_run = run_entry(shrunk, run.strategy)
        data["shrunk_entry"] = shrunk.to_dict()
        data["shrunk_fingerprint"] = shrunk_run.fingerprint()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{run.strategy}-{data['fingerprint'][:12]}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@dataclass
class ReplayResult:
    """Outcome of re-executing an artifact."""

    path: str
    strategy: str
    reproduced: bool
    expected_fingerprint: str
    actual_fingerprint: str
    expected_checks: List[str] = field(default_factory=list)
    actual_checks: List[str] = field(default_factory=list)
    shrunk_reproduced: Optional[bool] = None

    def describe(self) -> Dict:
        return {
            "path": self.path,
            "strategy": self.strategy,
            "reproduced": self.reproduced,
            "expected_fingerprint": self.expected_fingerprint,
            "actual_fingerprint": self.actual_fingerprint,
            "expected_checks": self.expected_checks,
            "actual_checks": self.actual_checks,
            "shrunk_reproduced": self.shrunk_reproduced,
        }


def replay_artifact(path: str, max_retries: int = MAX_RETRIES) -> ReplayResult:
    """Re-run the artifact's entry (and shrunk entry, if present) and
    compare verdict fingerprints.  ``reproduced`` is ``True`` only when
    the full entry's fingerprint matches *and* the shrunk witness (when
    recorded) still fails identically."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    strategy = data["strategy"]
    entry = CorpusEntry.from_dict(data["entry"])
    run = run_entry(entry, strategy, max_retries=max_retries)
    expected = data["fingerprint"]
    actual = run.fingerprint()
    reproduced = actual == expected and not run.ok

    shrunk_reproduced: Optional[bool] = None
    if data.get("shrunk_entry") is not None:
        shrunk = CorpusEntry.from_dict(data["shrunk_entry"])
        shrunk_run = run_entry(shrunk, strategy, max_retries=max_retries)
        shrunk_reproduced = (
            shrunk_run.fingerprint() == data.get("shrunk_fingerprint")
            and not shrunk_run.ok
        )
        reproduced = reproduced and shrunk_reproduced

    return ReplayResult(
        path=path,
        strategy=strategy,
        reproduced=reproduced,
        expected_fingerprint=expected,
        actual_fingerprint=actual,
        expected_checks=sorted({f["check"] for f in data.get("failures", ())}),
        actual_checks=run.failure_checks,
        shrunk_reproduced=shrunk_reproduced,
    )
