"""TM systems of §6/§7 as PUSH/PULL rule disciplines.

Every algorithm here is a *driver*: it decides **when** to invoke the
machine's APP/PUSH/PULL/... rules, and how to react when a rule's
criterion fails (abort-and-retry, wait, detangle, ...).  Correctness never
comes from the driver — the machine checks every Figure 5 criterion, so
the paper's theorem guarantees any driver that runs to completion produced
a serializable execution.  The drivers reproduce the *disciplines* the
paper's evaluation attributes to each system:

====================  =====================================================
:mod:`.globallock`    baseline: one transaction at a time (never aborts)
:mod:`.tl2`           §6.2 — optimistic, PUSH everything at commit (TL2)
:mod:`.encounter`     §6.2 — optimistic with encounter-time (eager) PUSH of
                      mutators (TinySTM-style early conflict detection)
:mod:`.boosting`      §6.3/Fig. 2 — abstract locks + PUSH at linearization
:mod:`.pessimistic`   §6.3 — Matveev–Shavit: writers delay PUSH to an
                      uninterleaved commit; nobody aborts (they wait)
:mod:`.irrevocable`   §6.4 — one irrevocable transaction among optimists
:mod:`.dependent`     §6.5 — PULL uncommitted effects, commit dependencies,
                      cascading detangle on producer abort
:mod:`.htm`           simulated best-effort HTM (eager conflict detection,
                      capacity limits, lazy publication)
:mod:`.hybrid`        §7 — boosted objects + HTM words in one transaction,
                      with selective UNPUSH/UNAPP on HTM conflicts
:mod:`.checkpoint`    §6.2 — checkpoints/closed nesting: placemarkers so
                      aborts UNAPP only a suffix (partial abort)
:mod:`.earlyrelease`  §6.5 — DSTM early release: UNPUSH published reads the
                      transaction no longer needs (non-abort UNPUSH)
:mod:`.elastic`       §8 future work [9] — elastic transactions: cut into
                      serializable pieces instead of aborting
====================  =====================================================

Names resolve on first access (:mod:`repro.lazy`).  :data:`ALL_ALGORITHMS`
maps every strategy name to its class, and looking a name up imports only
that strategy's module, so a daemon running one discipline never compiles
the other eleven.
"""

from repro.lazy import LazyTable, lazy_exports

#: strategy name -> (module, class)
_STRATEGIES = {
    "globallock": ("repro.tm.globallock", "GlobalLockTM"),
    "tl2": ("repro.tm.tl2", "TL2TM"),
    "encounter": ("repro.tm.encounter", "EncounterTM"),
    "boosting": ("repro.tm.boosting", "BoostingTM"),
    "pessimistic": ("repro.tm.pessimistic", "PessimisticTM"),
    "irrevocable": ("repro.tm.irrevocable", "IrrevocableTM"),
    "dependent": ("repro.tm.dependent", "DependentTM"),
    "htm": ("repro.tm.htm", "HTM"),
    "hybrid": ("repro.tm.hybrid", "HybridTM"),
    "checkpoint": ("repro.tm.checkpoint", "CheckpointTM"),
    "earlyrelease": ("repro.tm.earlyrelease", "EarlyReleaseTM"),
    "elastic": ("repro.tm.elastic", "ElasticTM"),
}

ALL_ALGORITHMS = LazyTable(_STRATEGIES)

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.tm.base": (
        "Runtime", "TMAlgorithm", "TxStepper", "StepStatus", "LockTable",
    ),
    **{module: (cls,) for module, cls in _STRATEGIES.values()},
})
__all__.append("ALL_ALGORITHMS")
