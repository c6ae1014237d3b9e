"""Dependent transactions (Ramadan et al.) and early release — §6.5.

The non-opaque showcase: *"Some transaction A may become dependent on
another transaction B if the effects of B are released to A before B
commits.  This is captured by B performing a PUSH of some effects that are
then PULLed by A even though B has not committed...  with the stipulation
that A does not commit until B has committed.  If B aborts, then A must
abort — however, A must only move backwards insofar as to detangle from
B."*

Discipline:

* at access time the transaction PULLs relevant *committed* operations
  **and** relevant *uncommitted published* operations of concurrent
  transactions (the dependency-creating PULL of gUCmt entries — forbidden
  in every opaque algorithm), registering producer→consumer edges in the
  runtime's :class:`~repro.tm.base.DependencyRegistry`;
* operations are APPlied locally and published only at commit (a consumer
  cannot publish work that depends on an uncommitted producer: PUSH
  criterion (ii) would demand the producer's operation move right of
  ours);
* at commit the consumer **waits** for its producers (CMT criterion (iii)
  — all pulled operations must be committed — is checked by the machine;
  the driver polls the registry);
* if a producer aborts, the registry dooms its transitive consumers; a
  doomed consumer detangles: here, the generic rollback (which UNPULLs the
  dangling operations) followed by a fresh attempt.

Mutators here are published *eagerly* (like encounter-time) so that the
values a transaction computes are visible for others to become dependent
on — that is what "release" means.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import AbortKind, CriterionViolation, TMAbort
from repro.core.history import TxRecord
from repro.core.language import Code
from repro.core.ops import Op
from repro.tm.base import Runtime, TMAlgorithm


class DependentTM(TMAlgorithm):
    """Optimistic TM that reads uncommitted (released) effects."""

    name = "dependent"
    opaque = False

    def __init__(self, max_commit_waits: int = 10_000):
        self.max_commit_waits = max_commit_waits
        self._uncommitted_pulls: dict = {}

    def _owner_of(self, rt: Runtime, op: Op) -> int:
        for thread in rt.machine.threads:
            entry = thread.local.entry_for(op)
            if entry is not None and entry.is_own:
                return thread.tid
        return -1

    def _pull_with_dependencies(
        self, rt: Runtime, tid: int, keys: frozenset, record: TxRecord
    ) -> None:
        """PULL relevant committed ops, then relevant *uncommitted* ops of
        other transactions (creating dependencies)."""
        rt.pull_relevant(tid, keys)
        thread = rt.machine.thread(tid)
        have = thread.local.ids()
        for entry in rt.machine.global_log:
            if entry.is_committed or entry.op.op_id in have:
                continue
            op = entry.op
            if not rt.spec.is_mutator(op.method):
                continue
            if not (rt.spec.op_footprint(op) & keys):
                continue
            owner = self._owner_of(rt, op)
            if owner == tid or owner < 0:
                continue
            if rt.dependencies.would_cycle(tid, owner):
                # A dependency cycle would deadlock both commits (CMT
                # criterion (iii) each way); skip the pull — later PUSH
                # validation surfaces any genuine conflict as an abort.
                continue
            try:
                rt.apply("pull", tid, op)
            except CriterionViolation as exc:
                raise TMAbort(f"dependent pull conflict: {exc}", AbortKind.CONFLICT)
            rt.dependencies.depend(tid, owner)
            # Record the dependency-creating pull *now*: by commit time the
            # producer will have committed (we wait for it), so the
            # commit-view snapshot alone cannot witness that this
            # transaction read uncommitted data.
            self._uncommitted_pulls.setdefault(record.tx_id, []).append(op)

    def attempt(
        self, rt: Runtime, tid: int, record: TxRecord, program: Code
    ) -> Iterator[None]:
        publishing = True
        for call_node in self.resolve_steps(program):
            if rt.dependencies.doomed(tid):
                rt.dependencies.clear(tid)
                raise TMAbort("producer aborted (cascading detangle)", AbortKind.CASCADE)
            keys = rt.spec.footprint(call_node.method, call_node.args)
            self._pull_with_dependencies(rt, tid, keys, record)
            op = self.app_call(rt, tid, 0)
            # Release effects early only while independent: a dependent
            # transaction's operations cannot satisfy PUSH criterion (ii)
            # until its producers commit.  Publication must follow local
            # order, so once one operation stays local (dependency formed,
            # or its push was refused) all later ones do too — the
            # unpushed operations always form a local-log suffix.
            if publishing and rt.dependencies.producers(tid):
                publishing = False
            if publishing:
                try:
                    self.push_op(rt, tid, op)
                except TMAbort:
                    publishing = False
            yield
        # Commit: wait for producers, then publish the rest and CMT.
        waits = 0
        while rt.dependencies.producers(tid):
            if rt.dependencies.doomed(tid):
                rt.dependencies.clear(tid)
                raise TMAbort("producer aborted (cascading detangle)", AbortKind.CASCADE)
            waits += 1
            if waits > self.max_commit_waits:  # pragma: no cover
                raise TMAbort("dependency wait starved", AbortKind.STARVATION)
            yield
        if rt.dependencies.doomed(tid):
            rt.dependencies.clear(tid)
            raise TMAbort("producer aborted (cascading detangle)", AbortKind.CASCADE)
        self.push_all_unpushed(rt, tid)
        self.commit(
            rt, tid, record, tuple(self._uncommitted_pulls.pop(record.tx_id, ()))
        )
