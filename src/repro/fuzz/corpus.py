"""Corpus entries: the fuzzer's unit of input.

One :class:`CorpusEntry` is everything a differential run is a pure
function of — the spec name, the straight-line transaction programs, a
deterministic :class:`~repro.faults.plan.FaultPlan`, a scheduler choice
*prefix* (guidance for the first quanta; the seeded nemesis takes over
when it runs out) and the seed that drives scheduler ties, recovery
jitter and mutation.  Entries serialize to JSON so the seed corpus lives
in ``tests/corpus/`` under version control and failure artifacts embed
the exact entry that reproduces them.

JSON round-trip fidelity matters: workload keys are tuples like
``("k", 3)``, which JSON flattens to lists — decoding converts every list
in an argument position back to a tuple, recursively, so a decoded entry
is *equal* to the encoded one (the replay-determinism regression test
relies on it).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.language import Tx, call, tx
from repro.faults.plan import FaultPlan


def _encode_arg(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_encode_arg(v) for v in value]
    return value


def _decode_arg(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_decode_arg(v) for v in value)
    return value


def encode_program(program: Tx) -> List[Dict[str, Any]]:
    """A straight-line ``tx`` block as a list of call dicts."""
    from repro.tm.base import TMAlgorithm

    return [
        {"method": c.method, "args": [_encode_arg(a) for a in c.args]}
        for c in TMAlgorithm.resolve_steps(program)
    ]


def decode_program(calls: Sequence[Dict[str, Any]]) -> Tx:
    return tx(
        *(call(c["method"], *(_decode_arg(a) for a in c.get("args", ()))) for c in calls)
    )


@dataclass(frozen=True)
class CorpusEntry:
    """One fuzz input.  Frozen: mutation builds new entries."""

    name: str
    spec: str
    programs: Tuple[Tx, ...]
    plan: FaultPlan
    choice_prefix: Tuple[Optional[int], ...] = ()
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "spec": self.spec,
            "seed": self.seed,
            "programs": [encode_program(p) for p in self.programs],
            "plan": self.plan.to_dict(),
            "choice_prefix": list(self.choice_prefix),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CorpusEntry":
        return CorpusEntry(
            name=str(data.get("name", "unnamed")),
            spec=str(data["spec"]),
            programs=tuple(decode_program(p) for p in data.get("programs", ())),
            plan=FaultPlan.from_dict(data.get("plan", {"seed": 0})),
            choice_prefix=tuple(data.get("choice_prefix", ())),
            seed=int(data.get("seed", 0)),
        )

    def fingerprint(self) -> str:
        """Content hash (name excluded): two entries with the same inputs
        reproduce the same runs whatever they are called."""
        payload = self.to_dict()
        payload.pop("name")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()

    def renamed(self, name: str) -> "CorpusEntry":
        return replace(self, name=name)


# -- corpus directory ----------------------------------------------------------

#: the expectation file is coverage metadata, not an input
EXPECTED_COVERAGE_FILE = "expected_coverage.json"


def load_corpus(directory: str) -> List[CorpusEntry]:
    """Every ``*.json`` entry in ``directory``, in filename order (stable
    across machines; the engine's determinism depends on it)."""
    entries: List[CorpusEntry] = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".json") or filename == EXPECTED_COVERAGE_FILE:
            continue
        path = os.path.join(directory, filename)
        with open(path, "r", encoding="utf-8") as handle:
            entries.append(CorpusEntry.from_dict(json.load(handle)))
    return entries


def save_entry(directory: str, entry: CorpusEntry) -> str:
    """Write ``entry`` as ``<name>.json`` (creating the directory)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{entry.name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
