"""Soundness tests for the mover-guided partial-order reduction.

The load-bearing property is *witness preservation*: the reduced
exploration must report exactly the verdicts and (payload-level)
violation witnesses of the full one, on correct scopes and on scopes
with known violations alike.  The hypothesis property pins the
mechanism that makes this true — the canonical representative of a
state is reachable from the state via both-mover adjacent swaps only,
so pruned states never differ observably from the one explored.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.checking import explore, verdict_fingerprint
from repro.checking.model_checker import ExploreOptions
from repro.checking.packedcheck import reference_canonical
from repro.checking.reduction import Reducer, _symmetry_perms
from repro.cli import SCOPES
from repro.core.language import call, tx
from repro.core.packed import pack_i32, pack_owners, unpack_owners, unpack_tid_cs
from repro.core.precongruence import trace_normal_form
from repro.obs import perf
from repro.specs import CounterSpec


# Counter payload rows (method, args, ret): inc/dec commute with each
# other; get commutes with neither.
_ROWS = [
    ("inc", (), None),
    ("dec", (), None),
    ("get", (), 0),
    ("get", (), 1),
]

rows_lists = st.lists(st.sampled_from(_ROWS), min_size=0, max_size=7)


def _reducer():
    return Reducer(CounterSpec(), programs=(), symmetry=False)


def _swap_reachable(source, target, commutes):
    """True iff ``target`` can be produced from ``source`` using only
    adjacent swaps of commuting elements (selection-sort argument: bring
    each target element to its position; every element it hops over must
    commute with it)."""
    work = list(source)
    for position, wanted in enumerate(target):
        try:
            at = work.index(wanted, position)
        except ValueError:
            return False
        for hop in range(at, position, -1):
            if not commutes(work[hop - 1], work[hop]):
                return False
            work[hop - 1], work[hop] = work[hop], work[hop - 1]
    return work == list(target)


@settings(max_examples=200, deadline=None)
@given(rows_lists)
def test_normal_form_reachable_via_both_mover_swaps(rows):
    """The representative the reduction keeps is connected to every
    pruned state by both-mover swaps alone — no observable difference
    is ever pruned away."""
    reducer = _reducer()
    normal = trace_normal_form(
        tuple(rows), reducer._rows_commute, repr
    )
    assert sorted(map(repr, normal)) == sorted(map(repr, rows))
    assert _swap_reachable(tuple(rows), normal, reducer._rows_commute)


@settings(max_examples=200, deadline=None)
@given(rows_lists, st.data())
def test_canonical_invariant_under_both_mover_swap(rows, data):
    """Swapping any adjacent both-mover pair lands in the same trace
    class: both orders canonicalize identically (this is what makes the
    seen-set quotient collapse them to one explored state)."""
    reducer = _reducer()
    swappable = [
        i for i in range(len(rows) - 1)
        if reducer._rows_commute(rows[i], rows[i + 1])
    ]
    if not swappable:
        return
    i = data.draw(st.sampled_from(swappable))
    swapped = list(rows)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    canon = lambda r: trace_normal_form(tuple(r), reducer._rows_commute, repr)
    assert canon(rows) == canon(swapped)


def test_non_movers_never_reordered():
    reducer = _reducer()
    get, inc = ("get", (), 0), ("inc", (), None)
    assert not reducer._rows_commute(get, inc)
    normal = trace_normal_form(
        (get, inc), reducer._rows_commute, repr
    )
    assert normal == (get, inc)


def test_symmetry_perms_respect_program_identity():
    p = tx(call("inc"))
    q = tx(call("dec"))
    # Three identical programs: 3! - 1 non-trivial permutations.
    assert len(_symmetry_perms([(0, p), (1, p), (2, p)])) == 5
    # Distinct programs are not interchangeable.
    assert _symmetry_perms([(0, p), (1, q)]) == []
    # Mixed: only the identical pair swaps.
    perms = _symmetry_perms([(0, p), (1, q), (2, p)])
    assert perms == [{0: 2, 2: 0}]


def test_por_and_full_exploration_agree_on_registry_scopes():
    """The CI verdict-identity gate in miniature: same verdict and same
    payload-level witnesses with the reduction on and off, and the
    reduction never *adds* states."""
    for name, (spec_cls, programs) in SCOPES.items():
        if name == "counter-sym":
            continue  # full exploration takes seconds; covered below
        on = explore(
            spec_cls(), programs, ExploreOptions(max_states=400_000, por=True)
        )
        off = explore(
            spec_cls(), programs, ExploreOptions(max_states=400_000, por=False)
        )
        assert verdict_fingerprint(on) == verdict_fingerprint(off), name
        assert on.states <= off.states, name
        # Terminal *classes*, not raw terminals: the quotient merges
        # commit-order and trace-equivalent finals, so the reduced count
        # may be smaller but never zero when the full run terminates.
        assert 0 < on.final_states <= off.final_states, name


def test_symmetry_quotient_reduces_identical_program_scope():
    spec_cls, programs = SCOPES["counter-sym"]
    on = explore(
        spec_cls(), programs, ExploreOptions(max_states=400_000, por=True)
    )
    # Forward-only full run keeps the comparison cheap; the committed
    # BENCH_por.json holds the full 61.7x figure.
    assert on.ok
    assert on.ample_hits > 0
    no_sym = explore(
        spec_cls(),
        programs,
        ExploreOptions(max_states=400_000, por=True, por_symmetry=False),
    )
    assert no_sym.states > on.states
    assert verdict_fingerprint(no_sym) == verdict_fingerprint(on)


def test_known_violation_scope_keeps_its_witnesses_with_por():
    """Regression: a scope with a *known* violation (gray-zone criteria
    disabled lets a doomed get/dec interleaving through) must report the
    identical witness set with POR on — a reduction that hides or
    rewrites witnesses is unsound."""
    programs = [tx(call("get"), call("dec")), tx(call("inc"))]
    base = dict(max_states=400_000, check_gray_criteria=False)
    on = explore(CounterSpec(), programs, ExploreOptions(**base, por=True))
    off = explore(CounterSpec(), programs, ExploreOptions(**base, por=False))
    assert not off.ok, "scope is supposed to violate without gray criteria"
    assert not on.ok
    assert verdict_fingerprint(on) == verdict_fingerprint(off)


def _canonical_calls(name):
    """Explore scope ``name`` with POR on; returns the report and every
    distinct raw key the checker canonicalized, with its reducer and
    canonical key."""
    calls = {}
    original = Reducer.canonical

    def recording(self, nkey):
        got = original(self, nkey)
        calls.setdefault(nkey, (self, got))
        return got

    spec_cls, programs = SCOPES[name]
    Reducer.canonical = recording
    try:
        report = explore(
            spec_cls(), programs, ExploreOptions(max_states=400_000, por=True)
        )
    finally:
        Reducer.canonical = original
    return report, calls


def test_canonical_matches_the_reference_on_every_explored_state():
    """The packed canonicalizer partitions keys exactly as the
    decode → normalize → encode one does, on every key the POR-on
    explorations canonicalize: each canonical key lies in its raw key's
    reference class, and canonical and reference keys are in bijection —
    so on every state the explorations visit, since the seen-set holds
    exactly the canonical keys.  The two pick different representatives
    (intern codes vs ``repr``), so the keys themselves differ."""
    states = 0
    for name in SCOPES:
        report, calls = _canonical_calls(name)
        to_reference = {}
        from_reference = {}
        for nkey, (reducer, got) in calls.items():
            reference = reference_canonical(nkey, reducer.movers, reducer.perms)
            assert reference_canonical(
                got, reducer.movers, reducer.perms
            ) == reference, (name, nkey)
            assert to_reference.setdefault(got, reference) == reference, name
            assert from_reference.setdefault(reference, got) == got, name
        assert len(to_reference) == len(from_reference) == report.states, name
        states += report.states
    assert states == 1863


@lru_cache(maxsize=None)
def _counter_sym_keys():
    return sorted(_canonical_calls("counter-sym")[1])


def _rename_tids(nkey, perm):
    """``nkey`` with every tid renamed by ``perm``: thread keys (kept in
    tid order, as the machine keeps its threads), owner row and commit
    tuple."""
    (tkeys, gpacked, opacked), committed = nkey
    renamed = sorted(
        (perm[unpack_tid_cs(tkey[:8])[0]], tkey[4:]) for tkey in tkeys
    )
    owners = pack_owners(perm.get(o, o) for o in unpack_owners(opacked))
    return (
        (tuple(pack_i32(tid) + tail for tid, tail in renamed), gpacked, owners),
        tuple(perm[tid] for tid in committed),
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.permutations([0, 1, 2]))
def test_canonical_is_invariant_under_tid_permutation(data, image):
    """On ``counter-sym`` (three identical threads) a raw key and every
    tid renaming of it canonicalize to one key, whichever of the two a
    fresh reducer sees first — the orbit memo maps a whole symmetry
    class to one winner — and that key lies in the renamed key's
    reference class."""
    spec_cls, programs = SCOPES["counter-sym"]
    nkey = data.draw(st.sampled_from(_counter_sym_keys()))
    renamed = _rename_tids(nkey, dict(zip((0, 1, 2), image)))
    keys = []
    for order in ((nkey, renamed), (renamed, nkey)):
        reducer = Reducer(spec_cls(), programs=tuple(enumerate(programs)))
        keys.extend(reducer.canonical(key) for key in order)
    assert keys == [keys[0]] * 4
    assert reference_canonical(
        keys[0], reducer.movers, reducer.perms
    ) == reference_canonical(renamed, reducer.movers, reducer.perms)


#: explores every scope with POR on in reverse ``SCOPES`` order, so each
#: scope meets intern tables filled in another order than ``repro perf``
#: and perfbench fill them; prints the counts ``BENCH_por.json`` records
_REVERSE_SWEEP = """
import json
from repro.checking import explore
from repro.checking.model_checker import ExploreOptions
from repro.cli import SCOPES
from repro.obs import RecordingTracer
from repro.obs.perf import POR_MEMO_COUNTERS

out = {}
for name in reversed(list(SCOPES)):
    spec_cls, programs = SCOPES[name]
    tracer = RecordingTracer()
    report = explore(
        spec_cls(), programs,
        ExploreOptions(max_states=400_000, por=True, tracer=tracer),
    )
    stats = next(e.args for e in tracer.events if e.name == "por.stats")
    out[name] = {
        "states": report.states,
        "transitions": report.transitions,
        "ok": report.ok,
        "ample_hits": report.ample_hits,
        "full_expansions": report.full_expansions,
        **{c: int(stats["por." + c]) for c in POR_MEMO_COUNTERS},
    }
print(json.dumps(out))
"""


def test_intern_order_does_not_move_por_counts():
    """Ranks are intern codes, so the representative of a class depends
    on intern order; the partition, and so every count, must not.  The
    one exception is ``g_cache_misses``: it also counts the symmetry
    candidates' logs, which are built from the representative, so it is
    held to the same ceiling the por tier gates it with."""
    swept = json.loads(subprocess.run(
        [sys.executable, "-c", _REVERSE_SWEEP],
        env=dict(os.environ, PYTHONPATH=str(perf.REPO_ROOT / "src")),
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout)
    committed = perf.load_baseline(perf.baseline_path("por"))["scopes"]
    assert list(swept) == list(reversed(list(SCOPES)))
    for name, counts in swept.items():
        expected = committed[name]["on"]
        assert counts.pop("g_cache_misses") <= expected["g_cache_misses"], name
        assert counts == {key: expected[key] for key in counts}, name
