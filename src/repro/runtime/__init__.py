"""Execution runtime: schedulers, workloads, the experiment harness.

The PUSH/PULL model is an interleaving semantics; this package supplies
the interleavings.  :mod:`.scheduler` picks which in-flight transaction
advances next (deterministic seeded choices, so every experiment is
reproducible); :mod:`.workload` synthesises transaction programs
(read/write mixes over zipfian keys, bank transfers, set churn);
:mod:`.harness` wires a TM algorithm, a workload and a scheduler together,
runs the fleet to completion, verifies serializability of the committed
history and reports metrics.  Names resolve on first access
(:mod:`repro.lazy`): a serve shard needs the scheduler, not the harness.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.runtime.scheduler": (
        "Scheduler", "RoundRobinScheduler", "RandomScheduler", "make_scheduler",
    ),
    "repro.runtime.workload": (
        "WorkloadConfig",
        "make_workload",
        "readwrite_workload",
        "bank_transfer_workload",
        "set_churn_workload",
        "counter_workload",
    ),
    "repro.runtime.harness": ("ExperimentResult", "run_experiment"),
    "repro.runtime.metrics": ("Distribution", "RunMetrics", "summarize"),
})
