"""Small-scope model checking of the PUSH/PULL machine.

:mod:`.model_checker` exhaustively enumerates every interleaving of every
enabled rule instance for small thread programs, checking on each reached
state whichever properties are requested: the §5.3 invariants, the
commit-preservation invariant of §5.4, and — on final states — the
simulation with the atomic machine (Theorem 5.17) and the opacity
conditions of §6.1.  This is the strongest empirical evidence a
reproduction of a proof can offer: the theorem holds on the full reachable
state space of every scope we can enumerate.

Names resolve on first access (:mod:`repro.lazy`), so a process that only
judges histories through :mod:`.tms2` never imports the explorer.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "repro.checking.model_checker": (
        "ExplorationReport",
        "ExploreOptions",
        "explore",
        "check_serializability_small_scope",
        "verdict_fingerprint",
    ),
    "repro.checking.reduction": ("Reducer",),
})
