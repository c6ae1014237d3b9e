"""Failure minimisation: make every red run small enough to read.

Four stages, each a fixpoint, each preserving the failure (the predicate
is "``run_entry`` still fails, with the same check kind"):

1. **whole-program ddmin** — drop transactions (complement-wise, the
   classic ddmin schedule) while the failure persists;
2. **call-suffix truncation** — per surviving transaction, halve then
   trim trailing calls;
3. **fault-plan ddmin** — delegate to the chaos layer's
   :func:`~repro.faults.conformance.shrink_plan` (event-subset ddmin plus
   per-event attribute minimisation), already proven on the PR 4 zoo;
4. **choice-prefix truncation** — empty first (the nemesis alone often
   suffices), then binary, then one-at-a-time from the tail.

Shrinking re-runs the oracle at every probe, so cost is
``O(probes × run)``; sizes are already bounded by the mutators, which
keeps probes in the tens.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.core.language import tx
from repro.faults.conformance import shrink_plan
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.oracle import MAX_RETRIES, run_entry
from repro.tm.base import TMAlgorithm


def _failing(
    strategy: str, check: Optional[str], max_retries: int
) -> Callable[[CorpusEntry], bool]:
    def predicate(entry: CorpusEntry) -> bool:
        if not entry.programs:
            return False
        run = run_entry(entry, strategy, max_retries=max_retries)
        if run.ok:
            return False
        return check is None or check in run.failure_checks

    return predicate


def _ddmin_programs(
    entry: CorpusEntry, predicate: Callable[[CorpusEntry], bool]
) -> CorpusEntry:
    programs = list(entry.programs)
    granularity = 2
    while len(programs) >= 2:
        chunk = max(1, len(programs) // granularity)
        shrunk = False
        for start in range(0, len(programs), chunk):
            candidate = programs[:start] + programs[start + chunk :]
            if not candidate:
                continue
            trial = replace(entry, programs=tuple(candidate))
            if predicate(trial):
                programs = candidate
                granularity = max(2, granularity - 1)
                shrunk = True
                break
        if not shrunk:
            if chunk == 1:
                break
            granularity = min(len(programs), granularity * 2)
    return replace(entry, programs=tuple(programs))


def _truncate_calls(
    entry: CorpusEntry, predicate: Callable[[CorpusEntry], bool]
) -> CorpusEntry:
    current = entry
    for index in range(len(current.programs)):
        calls = list(TMAlgorithm.resolve_steps(current.programs[index]))
        while len(calls) > 1:
            # try the front half first, then peeling one call off the tail
            for keep in (len(calls) // 2, len(calls) - 1):
                candidate = calls[:keep]
                programs = list(current.programs)
                programs[index] = tx(*candidate)
                trial = replace(current, programs=tuple(programs))
                if predicate(trial):
                    calls = candidate
                    current = trial
                    break
            else:
                break
    return current


def _truncate_prefix(
    entry: CorpusEntry, predicate: Callable[[CorpusEntry], bool]
) -> CorpusEntry:
    current = entry
    if not current.choice_prefix:
        return current
    empty = replace(current, choice_prefix=())
    if predicate(empty):
        return empty
    prefix = list(current.choice_prefix)
    while len(prefix) > 1:
        for keep in (len(prefix) // 2, len(prefix) - 1):
            trial = replace(current, choice_prefix=tuple(prefix[:keep]))
            if predicate(trial):
                prefix = prefix[:keep]
                current = trial
                break
        else:
            break
    return current


def shrink_failure(
    entry: CorpusEntry,
    strategy: str,
    check: Optional[str] = None,
    max_retries: int = MAX_RETRIES,
) -> CorpusEntry:
    """Minimise ``entry`` while ``strategy`` keeps failing with ``check``
    (any failure if ``check`` is ``None``).

    Raises ``ValueError`` if the entry does not fail to begin with — a
    shrinker that silently "shrinks" a green run would hand the triage
    workflow a fabricated witness.
    """
    predicate = _failing(strategy, check, max_retries)
    if not predicate(entry):
        raise ValueError(
            f"entry {entry.name!r} does not fail under {strategy!r}"
            + (f" with check {check!r}" if check else "")
        )
    current = _ddmin_programs(entry, predicate)
    current = _truncate_calls(current, predicate)
    if current.plan.events:
        try:
            plan = shrink_plan(
                current.plan,
                lambda p: predicate(replace(current, plan=p)),
            )
            current = replace(current, plan=plan)
        except ValueError:  # pragma: no cover - predicate raced to green
            pass
    current = _truncate_prefix(current, predicate)
    return current.renamed(f"shrunk-{current.fingerprint()[:10]}")
