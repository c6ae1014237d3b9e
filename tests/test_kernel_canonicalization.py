"""Canonical-state fingerprints: property tests for the kernel's one
successor derivation.

The model checker learns every enabled rule instance, and each
successor's canonical key, from :meth:`Machine.successor_keys` (the
memoized :meth:`Machine.successor_plan`), and constructs a successor
(via ``<rule>_state``) only when its key is new.  Everything the checker
concludes rests on the laws pinned here:

* **soundness** — along every reachable path, a derived key equals the
  from-scratch digest of the successor the ``<rule>_state`` constructor
  builds, and of the one the Figure 5 rule method builds;
* **completeness** — the plan emits exactly the instances whose rule
  method succeeds: nothing enabled is missed, nothing disabled emitted;
* **canonicality** — states that differ only in operation-id allocation
  collide on ``state_key``/``fingerprint``, while states that differ in
  push/pull *flags* or in global-log *order* do not;
* **traced ≡ untraced** — ``trace_rules`` observes the exploration
  without changing it: one ``rule`` span and one ``<RULE>.check`` instant
  per non-END transition.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.model_checker import (
    ExploreOptions,
    explore,
    verdict_fingerprint,
)
from repro.cli import SCOPES
from repro.core import Machine, call, choice, tx
from repro.core.errors import CriterionViolation, MachineError
from repro.obs import RecordingTracer
from repro.obs.tracer import CAT_CRITERION, CAT_RULE, PH_COMPLETE
from repro.specs import CounterSpec, MemorySpec


def full_key(machine):
    """Ground truth: drop every cached digest (the machine's key and its
    threads') and recompute the canonical key from the state's contents."""
    machine._skey = None
    for thread in machine.threads:
        thread.__dict__.pop("_tkey", None)
    return machine.state_key()


def enabled_moves(machine):
    """Every rule instance the checker would expand in ``machine`` (full
    model: backward rules, every PULL, no pull cap), as ``(rule, tid,
    arg, derived_key)``."""
    moves = []
    for thread in machine.threads:
        tid = thread.tid
        if thread.done:
            moves.append(("END", tid, None, machine.end_key(tid)))
            continue
        for rule, arg, skey in machine.successor_keys(tid, True, True, False, None):
            moves.append((rule, tid, arg, skey))
    return moves


#: Key-first constructors, by rule.
STATE = {
    "APP": lambda m, tid, arg, k: m.app_state(tid, arg, k),
    "PUSH": lambda m, tid, arg, k: m.push_state(tid, arg, k),
    "PULL": lambda m, tid, arg, k: m.pull_state(tid, arg, k),
    "CMT": lambda m, tid, arg, k: m.cmt_state(tid, k),
    "UNAPP": lambda m, tid, arg, k: m.unapp_state(tid, k),
    "UNPUSH": lambda m, tid, arg, k: m.unpush_state(tid, arg, k),
    "UNPULL": lambda m, tid, arg, k: m.unpull_state(tid, arg, k),
    "END": lambda m, tid, arg, k: m.end_state(tid, k),
}

#: The reference: Figure 5 rule methods (and MS_END), by rule.
RULE = {
    "APP": lambda m, tid, arg: m.app(tid, arg),
    "PUSH": lambda m, tid, arg: m.push(tid, arg),
    "PULL": lambda m, tid, arg: m.pull(tid, arg),
    "CMT": lambda m, tid, arg: m.cmt(tid),
    "UNAPP": lambda m, tid, arg: m.unapp(tid),
    "UNPUSH": lambda m, tid, arg: m.unpush(tid, arg),
    "UNPULL": lambda m, tid, arg: m.unpull(tid, arg),
    "END": lambda m, tid, arg: m.end_thread(tid),
}


def rule_candidates(machine, tid):
    """Every instance a Figure 5 rule could be tried on for ``tid``: each
    step choice, each own and pulled local entry, each global entry not in
    L, CMT and UNAPP."""
    thread = machine.thread(tid)
    local = thread.local
    yield from (("APP", c) for c in machine.app_choices(tid))
    yield from (("PUSH", op) for op in local.not_pushed_ops())
    yield from (("UNPUSH", op) for op in local.pushed_ops())
    yield from (("UNPULL", op) for op in local.pulled_ops())
    yield from (
        ("PULL", e.op) for e in machine.global_log if e.op not in local
    )
    yield ("CMT", None)
    yield ("UNAPP", None)


def rule_enabled(machine, tid, rule, arg):
    try:
        RULE[rule](machine, tid, arg)
    except (CriterionViolation, MachineError):
        return False
    return True


def _memory_call(draw_tuple):
    kind, key, value = draw_tuple
    return call("write", key, value) if kind == "w" else call("read", key)


_calls = st.tuples(
    st.sampled_from(["w", "r"]),
    st.sampled_from(["x", "y"]),
    st.integers(min_value=0, max_value=2),
).map(_memory_call)

#: a call, or a binary choice between two calls (several APP instances)
_parts = st.one_of(
    _calls,
    st.tuples(_calls, _calls).map(lambda pair: choice(*pair)),
)

_programs = st.lists(
    st.lists(_parts, min_size=1, max_size=3).map(lambda parts: tx(*parts)),
    min_size=1,
    max_size=2,
)


def _spawn_all(programs):
    machine = Machine(MemorySpec())
    for program in programs:
        machine, _ = machine.spawn(program)
    return machine


@settings(max_examples=40, deadline=None)
@given(programs=_programs, data=st.data())
def test_derived_keys_match_constructed_successors(programs, data):
    """Soundness along random walks: every emitted instance's derived key
    equals the from-scratch digest of the successor its ``<rule>_state``
    builds and of the one its rule method builds."""
    machine = _spawn_all(programs)
    for _ in range(8):
        moves = enabled_moves(machine)
        if not moves:
            break
        for rule, tid, arg, skey in moves:
            assert full_key(STATE[rule](machine, tid, arg, skey)) == skey, rule
            assert full_key(RULE[rule](machine, tid, arg)) == skey, rule
        rule, tid, arg, skey = data.draw(st.sampled_from(moves), label="next move")
        machine = STATE[rule](machine, tid, arg, skey)


@settings(max_examples=40, deadline=None)
@given(programs=_programs, data=st.data())
def test_plan_emits_exactly_the_enabled_instances(programs, data):
    """Completeness along random walks: at every state, each unfinished
    thread's emitted instances (and ``enabled_rules``) are exactly the
    candidates whose rule method succeeds."""
    machine = _spawn_all(programs)
    for _ in range(8):
        for thread in machine.threads:
            if thread.done:
                continue
            tid = thread.tid
            emitted = {
                (rule, arg)
                for rule, arg, _ in machine.successor_keys(tid, True, True, False, None)
            }
            enabled = {
                (rule, arg)
                for rule, arg in rule_candidates(machine, tid)
                if rule_enabled(machine, tid, rule, arg)
            }
            assert emitted == enabled
            assert set(machine.enabled_rules(tid)) == {rule for rule, _ in enabled}
        moves = enabled_moves(machine)
        if not moves:
            break
        rule, tid, arg, skey = data.draw(st.sampled_from(moves), label="next move")
        machine = STATE[rule](machine, tid, arg, skey)


@settings(max_examples=40, deadline=None)
@given(programs=_programs, burn=st.integers(min_value=1, max_value=4))
def test_id_allocation_is_invisible(programs, burn):
    """Two machines running the same programs collide on ``state_key`` and
    ``fingerprint`` even when one minted (and discarded) extra op ids
    first — visits must be independent of id allocation order."""
    m1 = _spawn_all(programs)
    m2 = _spawn_all(programs)
    tid = m2.threads[0].tid
    first = next(iter(m2.app_choices(tid)))
    for _ in range(burn):  # each APP/UNAPP round consumes a fresh op id
        m2 = m2.app(tid, first).unapp(tid)
    assert full_key(m1) == full_key(m2)
    assert m1.fingerprint() == m2.fingerprint()
    # The collision persists along an identical walk.  Operands carry
    # different op ids on the two machines, so the analogous move is the
    # first one with the same (rule, tid) in m2's own (deterministic)
    # enumeration — never m1's operand replayed on m2.
    for _ in range(4):
        moves1 = enabled_moves(m1)
        if not moves1:
            break
        rule, tid, arg1, skey1 = moves1[0]
        _, _, arg2, skey2 = next(
            mv for mv in enabled_moves(m2) if mv[0] == rule and mv[1] == tid
        )
        m1 = STATE[rule](m1, tid, arg1, skey1)
        m2 = STATE[rule](m2, tid, arg2, skey2)
        assert full_key(m1) == full_key(m2)
        assert m1.fingerprint() == m2.fingerprint()


def test_flag_difference_distinguishes():
    """The same operation not-pushed vs. pushed is a different state."""
    machine, tid = Machine(CounterSpec()).spawn(tx(call("inc")))
    applied = machine.app(tid)
    pushed = applied.push(tid, applied.thread(tid).local[0].op)
    assert full_key(applied) != full_key(pushed)
    assert applied.fingerprint() != pushed.fingerprint()


def test_pull_flag_distinguishes():
    """A pulled foreign entry changes the puller's canonical key."""
    base = Machine(MemorySpec())
    base, ta = base.spawn(tx(call("write", "x", 1)))
    base, tb = base.spawn(tx(call("read", "x")))
    m = base.app(ta)
    op = m.thread(ta).local[0].op
    m = m.push(ta, op).cmt(ta)
    pulled = m.pull(tb, op)
    assert full_key(m) != full_key(pulled)
    assert m.fingerprint() != pulled.fingerprint()


def test_global_order_distinguishes():
    """The same two entries pushed in opposite orders are distinct
    states — the global log is a sequence, not a set."""
    base = Machine(MemorySpec())
    base, ta = base.spawn(tx(call("write", "x", 1)))
    base, tb = base.spawn(tx(call("write", "y", 2)))
    m = base.app(ta).app(tb)
    op_a = m.thread(ta).local[0].op
    op_b = m.thread(tb).local[0].op
    ab = m.push(ta, op_a).push(tb, op_b)
    ba = m.push(tb, op_b).push(ta, op_a)
    assert full_key(ab) != full_key(ba)
    assert ab.fingerprint() != ba.fingerprint()


@pytest.mark.parametrize("por", [True, False], ids=["por", "no-por"])
@pytest.mark.parametrize("scope", ["mem-ww", "counter", "kvmap-branch"])
def test_traced_exploration_matches_untraced(scope, por):
    """``trace_rules`` records the exploration without changing it: same
    counts and verdict, and exactly one rule span plus one passing
    criterion instant per non-END transition."""
    spec_cls, programs = SCOPES[scope]
    plain = explore(spec_cls(), programs, ExploreOptions(por=por))
    tracer = RecordingTracer()
    traced = explore(
        spec_cls(), programs,
        ExploreOptions(por=por, tracer=tracer, trace_rules=True),
    )
    assert (traced.states, traced.transitions, traced.rule_counts) == (
        plain.states, plain.transitions, plain.rule_counts
    )
    assert verdict_fingerprint(traced) == verdict_fingerprint(plain)
    expanded = traced.transitions - traced.rule_counts.get("END", 0)
    spans = [e for e in tracer.events if e.cat == CAT_RULE and e.ph == PH_COMPLETE]
    checks = [e for e in tracer.events if e.cat == CAT_CRITERION]
    assert len(spans) == len(checks) == expanded
    assert all(e.name == f"{s.name}.check" and e.args["ok"] for s, e in zip(spans, checks))
    if scope == "kvmap-branch" and not por:
        assert expanded == 27_758
