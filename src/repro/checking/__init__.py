"""Small-scope model checking of the PUSH/PULL machine.

:mod:`.model_checker` exhaustively enumerates every interleaving of every
enabled rule instance for small thread programs, checking on each reached
state whichever properties are requested: the §5.3 invariants, the
commit-preservation invariant of §5.4, and — on final states — the
simulation with the atomic machine (Theorem 5.17) and the opacity
conditions of §6.1.  This is the strongest empirical evidence a
reproduction of a proof can offer: the theorem holds on the full reachable
state space of every scope we can enumerate.
"""

from repro.checking.model_checker import (
    ExplorationReport,
    ExploreOptions,
    explore,
    check_serializability_small_scope,
    verdict_fingerprint,
)
from repro.checking.reduction import Reducer

__all__ = [
    "ExplorationReport",
    "ExploreOptions",
    "explore",
    "check_serializability_small_scope",
    "verdict_fingerprint",
    "Reducer",
]
