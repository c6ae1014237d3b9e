"""repro.faults — fault-injection nemesis, recovery, and chaos conformance.

Every public name resolves on first access through the shared
:func:`repro.lazy.lazy_exports` helper, like the other package
``__init__`` modules.  Here it also breaks a cycle: :mod:`repro.tm.base`
imports this package (its hook points take a
:class:`~repro.faults.plan.NullInjector`), while ``nemesis`` and
``conformance`` import the tm/runtime layers right back.
"""

from __future__ import annotations

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.faults.plan": (
        "FaultKind", "FaultEvent", "FaultPlan", "FaultInjector",
        "InjectedFault", "NullInjector", "NULL_INJECTOR", "INJECTABLE_RULES",
    ),
    "repro.faults.recovery": (
        "RecoveryPolicy", "make_policy", "POLICY_NAMES", "RECOVERY_TOKEN",
    ),
    "repro.faults.nemesis": ("NemesisScheduler", "ReplayScheduler"),
    "repro.faults.conformance": (
        "ChaosFailure", "ChaosResult", "SuiteReport", "conformance_failures",
        "run_chaos", "run_suite", "chaos_setup", "shrink_plan",
    ),
})
