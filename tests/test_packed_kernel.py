"""Packed kernel: cross-representation identity properties (ISSUE 7).

The packed hot path represents state keys as interned integer columns
(``repro.core.packed``) and derives successor keys by byte patching.
Its contract with the PR-2 object-level kernel, pinned here:

* **identity** — at every state along random rule walks, for every
  registered spec, decoding the packed key yields exactly the key the
  object model computes from the live machine
  (:func:`repro.core.packed.reference_state_key`);
* **round-trip** — ``encode_state_key(decode_state_key(k)) == k``;
* **canonicality carries over** — operation-id renaming still collides
  on the packed key, while flag and global-order differences still
  distinguish (the packed representation must not be coarser *or* finer
  than the object one).
"""

from hypothesis import given, settings, strategies as st

from repro.checking.packedcheck import initial_node, walk_identity
from repro.core import Machine, call, tx
from repro.core.packed import (
    decode_state_key,
    encode_state_key,
    reference_state_key,
)
from repro.specs import MemorySpec, get_spec, spec_names

#: Two small contending transactions per registered spec — every spec in
#: the registry gets walked, not just the checker's benchmark scopes.
SPEC_PROGRAMS = {
    "memory": (
        tx(call("write", "x", 1), call("read", "x")),
        tx(call("write", "x", 2)),
    ),
    "counter": (
        tx(call("inc"), call("get")),
        tx(call("dec")),
    ),
    "kvmap": (
        tx(call("put", "k", 1), call("get", "k")),
        tx(call("remove", "k")),
    ),
    "set": (
        tx(call("add", "e"), call("contains", "e")),
        tx(call("remove", "e")),
    ),
    "bank": (
        tx(call("deposit", "a", 2), call("balance", "a")),
        tx(call("withdraw", "a", 1)),
    ),
    "orderedset": (
        tx(call("add", 1), call("min")),
        tx(call("add", 2), call("contains", 1)),
    ),
    "queue": (
        tx(call("enq", 1), call("size")),
        tx(call("enq", 2)),
    ),
    "stack": (
        tx(call("push", 1), call("size")),
        tx(call("push", 2)),
    ),
}


def test_every_registered_spec_has_walk_programs():
    assert set(SPEC_PROGRAMS) == set(spec_names())


@settings(max_examples=24, deadline=None)
@given(
    name=st.sampled_from(sorted(SPEC_PROGRAMS)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_packed_key_decodes_to_reference_along_walks(name, seed):
    """Representation identity along a seeded random rule walk, for every
    registered spec: the packed key is the object-level key, bit for bit
    after decoding."""
    stats = walk_identity(
        get_spec(name), SPEC_PROGRAMS[name], steps=20, seed=seed
    )
    assert stats["mismatches"] == [], stats


@settings(max_examples=16, deadline=None)
@given(
    name=st.sampled_from(sorted(SPEC_PROGRAMS)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_packed_key_round_trips(name, seed):
    """``encode_state_key`` inverts ``decode_state_key`` on reachable keys."""
    import random

    from repro.checking.model_checker import ExploreOptions, _successors

    rng = random.Random(seed)
    node = initial_node(get_spec(name), SPEC_PROGRAMS[name])
    options = ExploreOptions(max_pulled_per_thread=4)
    for _ in range(12):
        key = node.machine.state_key()
        assert encode_state_key(decode_state_key(key)) == key
        moves = [
            s for _, _, s in _successors(node, options, seen=set()) if s
        ]
        if not moves:
            break
        node = moves[rng.randrange(len(moves))]


def _spawn(spec, programs):
    machine = Machine(spec)
    for program in programs:
        machine, _ = machine.spawn(program)
    return machine


@settings(max_examples=20, deadline=None)
@given(burn=st.integers(min_value=1, max_value=4))
def test_id_renaming_collides_on_packed_key(burn):
    """Minting (and discarding) op ids must not show in the packed key:
    the columns are payload-interned, never id-indexed."""
    programs = SPEC_PROGRAMS["memory"]
    m1 = _spawn(MemorySpec(), programs)
    m2 = _spawn(MemorySpec(), programs)
    tid = m2.threads[0].tid
    for _ in range(burn):  # each APP/UNAPP round consumes a fresh op id
        m2 = m2.app(tid).unapp(tid)
    assert m1.state_key() == m2.state_key()
    # ... and still after both take the same step (fresh, distinct ids).
    m1 = m1.app(tid)
    m2 = m2.app(tid)
    assert m1.state_key() == m2.state_key()


def test_flag_difference_distinguishes_packed_key():
    """npshd vs pshd is a different local row code — never conflated."""
    machine, tid = Machine(MemorySpec()).spawn(tx(call("write", "x", 1)))
    applied = machine.app(tid)
    pushed = applied.push(tid, applied.thread(tid).local[0].op)
    assert applied.state_key() != pushed.state_key()


def test_global_order_distinguishes_packed_key():
    """G is a sequence: opposite push orders give different global
    columns even when the row multiset matches."""
    base = Machine(MemorySpec())
    base, ta = base.spawn(tx(call("write", "x", 1)))
    base, tb = base.spawn(tx(call("write", "y", 2)))
    m = base.app(ta).app(tb)
    op_a = m.thread(ta).local[0].op
    op_b = m.thread(tb).local[0].op
    ab = m.push(ta, op_a).push(tb, op_b)
    ba = m.push(tb, op_b).push(ta, op_a)
    assert ab.state_key() != ba.state_key()


def test_code_state_memo_ignores_foreign_process_tags():
    """Code ASTs cross process boundaries (fuzz jobs pickle them) and
    carry their csid memo with them; a memo tagged by
    another process holds ids that mean nothing — possibly out of range —
    against this process's intern tables and must be rebuilt, not used."""
    from repro.core.ops import code_state_id, code_state_of

    code = tx(call("write", "x", 1))
    csid = code_state_id(code, ())
    owner, _ = code._cs_memo
    # Simulate arrival from another process: foreign pid, bogus csid.
    object.__setattr__(code, "_cs_memo", (owner + 1, {(): 10**9}))
    assert code_state_id(code, ()) == csid
    assert code_state_of(csid) == (code, ())


def test_reference_matches_on_committed_and_pulled_states():
    """Spot-check the decoded key on a state exercising ownership release
    (CMT zeroes the owner row) and a foreign pld row."""
    base = Machine(MemorySpec())
    base, ta = base.spawn(tx(call("write", "x", 1)))
    base, tb = base.spawn(tx(call("read", "x")))
    m = base.app(ta)
    op = m.thread(ta).local[0].op
    m = m.push(ta, op).cmt(ta).pull(tb, op)
    assert decode_state_key(m.state_key()) == reference_state_key(m)
