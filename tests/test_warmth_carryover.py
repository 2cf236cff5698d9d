"""Cross-batch warmth carryover — query planning across batches.

The ROADMAP item "engine-level query planning across batches": the
engine records, per method, how recently earlier batches touched it
(:attr:`PointsToEngine._method_warmth`, stamped in execution order) and
``plan_batch`` schedules a later batch's hottest methods first.  Under
a bounded LRU store this is the difference between re-using the
summaries the previous batch left resident and churning them: the
classic LRU-loop pathology (a cyclic workload one entry larger than the
cache misses on *every* probe) disappears because the next batch starts
from the warm end.

Like every scheduling lever, carryover is cost-only — the tests assert
identical answers with strictly fewer steps on a repeated workload than
an engine whose warmth is dropped before each batch.
"""

import pytest

from repro import CachePolicy, EnginePolicy, PointsToEngine, build_pag, parse_program
from repro.engine.scheduler import QuerySpec, plan_batch, spec_method
from repro.pag.nodes import LocalNode

K = 10


def _program():
    methods = "\n".join(
        f"  static method m{i:02d}() {{ "
        f"a{i} = new Thing; b{i} = a{i}; c{i} = b{i}; return c{i}; }}"
        for i in range(K)
    )
    calls = "\n".join(f"    r{i} = M::m{i:02d}();" for i in range(K))
    return (
        f"class Thing {{ }}\nclass M {{\n{methods}\n}}\n"
        f"class Main {{ static method main() {{\n{calls}\n  }} }}"
    )


QUERIES = [(f"M.m{i:02d}", f"c{i}") for i in range(K)]


def _engine(max_entries=3):
    return PointsToEngine(
        build_pag(parse_program(_program())),
        EnginePolicy(cache=CachePolicy(max_entries=max_entries)),
    )


def _without_warmth(engine, queries):
    """One batch planned with no history: the engine's warmth is
    dropped first."""
    engine._method_warmth.clear()
    return engine.query_batch(queries)


def _canonical(batch):
    return [
        (r.complete, frozenset((str(o.object_id), c.to_tuple()) for o, c in r.pairs))
        for r in batch.results
    ]


class TestPlanBatch:
    def specs(self, methods):
        return [QuerySpec(LocalNode(m, "x")) for m in methods]

    def test_warmth_orders_hottest_first_then_cold_by_name(self):
        specs = self.specs(["A.a", "C.c", "B.b", "D.d"])
        warmth = {"B.b": 7, "C.c": 9}  # C hotter than B; A/D unseen
        plan = plan_batch(specs, warmth=warmth)
        ordered = [spec_method(plan.unique[i]) for i in plan.order]
        assert ordered == ["C.c", "B.b", "A.a", "D.d"]

    def test_no_warmth_is_the_classic_grouping(self):
        specs = self.specs(["C.c", "A.a", "B.b"])
        plan = plan_batch(specs, warmth=None)
        ordered = [spec_method(plan.unique[i]) for i in plan.order]
        assert ordered == ["A.a", "B.b", "C.c"]

    def test_reorder_off_ignores_warmth(self):
        specs = self.specs(["C.c", "A.a"])
        plan = plan_batch(specs, reorder=False, warmth={"A.a": 5})
        assert [spec_method(plan.unique[i]) for i in plan.order] == ["C.c", "A.a"]


class TestEngineCarryover:
    def test_repeated_workload_strictly_fewer_steps_same_answers(self):
        with_carryover = _engine()
        without = _engine()
        steps_on, steps_off = [], []
        for batch_index in range(3):
            on = with_carryover.query_batch(QUERIES)
            off = _without_warmth(without, QUERIES)
            assert _canonical(on) == _canonical(off)
            steps_on.append(on.stats.steps)
            steps_off.append(off.stats.steps)
        # The first batch has no history to exploit...
        assert steps_on[0] == steps_off[0]
        # ...every later batch re-uses the previous batch's warm tail.
        for later_on, later_off in zip(steps_on[1:], steps_off[1:]):
            assert later_on < later_off
        assert sum(steps_on) < sum(steps_off)

    def test_statistics_accumulate_in_execution_order(self):
        engine = _engine()
        engine.query_batch(QUERIES)
        warmth = engine._method_warmth
        assert len(warmth) == K
        # Alphabetical execution on the first batch: m09 ran last, so it
        # carries the highest stamp.
        assert max(warmth, key=warmth.get) == "M.m09"

    def test_unbounded_store_is_unaffected(self):
        # With nothing ever evicted, ordering cannot change costs: the
        # carryover lever must be exactly free.
        on = _engine(max_entries=None)
        off = _engine(max_entries=None)
        for _ in range(2):
            batch_on = on.query_batch(QUERIES)
            batch_off = _without_warmth(off, QUERIES)
            assert _canonical(batch_on) == _canonical(batch_off)
            assert batch_on.stats.steps == batch_off.stats.steps

    def test_reorder_false_batches_still_feed_later_planning(self):
        engine = _engine()
        # The paper-protocol batch (reorder=False) must not be
        # reordered -- but its traffic still teaches the planner.
        first = engine.query_batch(QUERIES, reorder=False)
        assert not first.plan.reordered  # protocol order preserved
        assert engine._method_warmth  # statistics were recorded
        baseline = _engine()
        baseline.query_batch(QUERIES, reorder=False)
        second_smart = engine.query_batch(QUERIES)
        second_plain = _without_warmth(baseline, QUERIES)
        assert _canonical(second_smart) == _canonical(second_plain)
        assert second_smart.stats.steps < second_plain.stats.steps
