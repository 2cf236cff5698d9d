"""Cost-aware eviction (``CachePolicy(eviction="cost")``) vs. LRU.

The ROADMAP's "smarter admission/eviction" item: summaries record the
PPTA steps that built them (:attr:`~repro.analysis.ppta.PptaResult
.steps`), so a bounded store can evict by *recomputation value* — the
Greedy-Dual rule (priority = inflation clock + steps-to-recompute per
byte) — instead of recency alone.  Pinned here:

* the mechanics: cheap entries evict before expensive ones, the clock
  ages stale expensive entries out, equal scores degenerate to LRU;
* eviction never changes answers (it only forgets memos);
* the regression the satellite asks for: on bounded-budget Figure-4
  replays, cost-aware eviction completes in strictly fewer steps than
  LRU at the same budget (configurations found by sweep; step counts
  are deterministic, so these are exact regressions);
* the policy round-trips through snapshots (``eviction`` + per-entry
  ``steps``).
"""

import pytest

from repro import (
    BoundedSummaryCache,
    CostAwareSummaryCache,
    PointsToEngine,
)
from repro.analysis.ppta import PptaResult
from repro.analysis.summaries import entry_cost_score
from repro.api.snapshot import SummarySnapshot
from repro.bench.batching import split_batches
from repro.bench.runner import bench_engine_policy
from repro.bench.suite import load_benchmark
from repro.cfl.rsm import S1
from repro.cfl.stacks import EMPTY_STACK
from repro.engine import CachePolicy
from repro.pag.nodes import LocalNode, ObjectNode


def node(name, method="A.m"):
    return LocalNode(method, name)


def summary(steps, n_objects=1, method="A.m"):
    return PptaResult(
        tuple(ObjectNode(f"o{steps}-{i}", "Thing", method) for i in range(n_objects)),
        (),
        steps=steps,
    )


class TestMechanics:
    def test_cheapest_per_byte_evicts_first(self):
        store = CostAwareSummaryCache(max_entries=2)
        pricey, cheap, incoming = node("pricey"), node("cheap"), node("incoming")
        store.store(pricey, EMPTY_STACK, S1, summary(steps=1000))
        store.store(cheap, EMPTY_STACK, S1, summary(steps=1))
        store.store(incoming, EMPTY_STACK, S1, summary(steps=10))
        assert (pricey, EMPTY_STACK, S1) in store
        assert (cheap, EMPTY_STACK, S1) not in store
        assert store.evictions == 1

    def test_clock_ages_out_stale_expensive_entries(self):
        store = CostAwareSummaryCache(max_entries=2)
        stale, hot = node("stale"), node("hot")
        store.store(stale, EMPTY_STACK, S1, summary(steps=50))
        store.store(hot, EMPTY_STACK, S1, summary(steps=1))
        # Repeated traffic on cheap entries keeps inflating the clock;
        # each eviction advances it, so the stale entry's fixed priority
        # eventually becomes the minimum and it leaves.
        for i in range(60):
            store.store(node(f"churn{i}"), EMPTY_STACK, S1, summary(steps=1))
            store.store(hot, EMPTY_STACK, S1, summary(steps=1))  # active use
        assert (stale, EMPTY_STACK, S1) not in store
        assert (hot, EMPTY_STACK, S1) in store

    def test_equal_scores_degenerate_to_lru(self):
        nodes = [node(f"v{i}") for i in range(4)]
        cost = CostAwareSummaryCache(max_entries=3)
        lru = BoundedSummaryCache(max_entries=3)
        orders = {}
        for label, store in (("cost", cost), ("lru", lru)):
            for key_node in nodes[:3]:
                store.store(key_node, EMPTY_STACK, S1, summary(steps=7))
            store.lookup(nodes[0], EMPTY_STACK, S1)
            store.store(nodes[3], EMPTY_STACK, S1, summary(steps=7))
            orders[label] = [k for k, _ in store.entries()]
        assert orders["cost"] == orders["lru"]

    def test_invalidate_and_eviction_compose(self):
        store = CostAwareSummaryCache(max_entries=4)
        for i in range(4):
            store.store(node(f"v{i}"), EMPTY_STACK, S1, summary(steps=i + 1))
        assert store.invalidate_method("A.m") == 4
        assert len(store) == 0
        # The rank table must not leak invalidated keys (the heap may
        # keep stale records — they are lazily discarded on pop).
        assert store._rank == {}

    def test_unbounded_cost_configurations_are_refused(self):
        # eviction="cost" with no ceiling would never evict — every
        # layer refuses it instead of accepting a silently inert policy.
        with pytest.raises(ValueError, match="inert"):
            CostAwareSummaryCache()
        with pytest.raises(ValueError, match="inert"):
            CachePolicy(eviction="cost")
        assert CachePolicy(eviction="cost", max_facts=100).bounded


#: (benchmark, client, max_facts) cells where the sweep found cost-aware
#: eviction strictly beating LRU; step counts are deterministic, so
#: these are exact regressions, not statistical ones.
REPLAY_CELLS = [
    ("jython", "NullDeref", 400),
    ("soot-c", "SafeCast", 200),
]


@pytest.mark.parametrize("name,client_name,cap", REPLAY_CELLS)
def test_cost_beats_lru_on_bounded_figure4_replay(name, client_name, cap):
    from repro.clients import ALL_CLIENTS

    client_cls = {cls.name: cls for cls in ALL_CLIENTS}[client_name]
    instance = load_benchmark(name, scale=1.0)
    client = client_cls(instance.pag)
    batches = split_batches(client.queries(), 10)

    totals, verdicts = {}, {}
    for eviction in ("lru", "cost"):
        policy = bench_engine_policy(
            cache=CachePolicy(max_facts=cap, eviction=eviction)
        )
        engine = PointsToEngine(instance.pag, policy)
        steps = 0
        answers = []
        for batch in batches:
            batch_verdicts, result = client.run_engine(
                engine, batch, dedupe=False, reorder=False
            )
            steps += result.stats.steps
            answers.extend(batch_verdicts)
        totals[eviction] = steps
        verdicts[eviction] = answers
    # Eviction policy is cost-only: identical verdicts, fewer steps.
    assert verdicts["cost"] == verdicts["lru"]
    assert totals["cost"] < totals["lru"], totals


def test_snapshot_round_trips_cost_policy_and_steps(figure2_pag=None):
    from repro import build_pag, parse_program

    src = """
    class Thing { }
    class Main {
      static method main() {
        a = new Thing;
        b = a;
        c = b;
      }
    }
    """
    pag = build_pag(parse_program(src))
    engine = PointsToEngine(
        pag,
        bench_engine_policy(
            cache=CachePolicy(max_entries=8, eviction="cost")
        ),
    )
    engine.query_name("Main.main", "c")
    store = engine.cache
    assert isinstance(store, CostAwareSummaryCache)
    recorded = [s.steps for _k, s in store.entries()]
    assert any(steps > 0 for steps in recorded)

    snapshot = SummarySnapshot.loads(SummarySnapshot.capture(store).dumps())
    assert snapshot.eviction == "cost"
    restored = snapshot.restore(pag)
    assert isinstance(restored, CostAwareSummaryCache)
    assert [s.steps for _k, s in restored.entries()] == recorded
    assert restored.stats_snapshot() == store.stats_snapshot()


class TestHeapVictimIndex:
    """The heap-backed victim index must pick exactly the victims the
    O(n) scan picked (min priority, ties to the least-recently-used
    entry), and the store admits a summary of any size."""

    def test_heap_matches_scan_oracle_on_random_workload(self):
        import random

        rng = random.Random(20260728)
        store = CostAwareSummaryCache(max_entries=12)

        # Oracle: replay the same Greedy-Dual rule with a plain scan
        # over (priority, recency) mirrors.
        oracle_priority = {}
        oracle_recency = {}
        oracle_clock = [0.0]
        oracle_entries = []  # keys, coldest first
        oracle_evictions = []

        def oracle_store(key, summ):
            if key in oracle_priority:
                oracle_entries.remove(key)
                oracle_entries.append(key)
                oracle_priority[key] = oracle_clock[0] + entry_cost_score(summ)
                return
            oracle_priority[key] = oracle_clock[0] + entry_cost_score(summ)
            oracle_entries.append(key)
            while len(oracle_entries) > 12 and len(oracle_entries) > 1:
                victim, victim_priority = None, None
                for k in oracle_entries:
                    p = oracle_priority[k]
                    if victim_priority is None or p < victim_priority:
                        victim, victim_priority = k, p
                oracle_clock[0] = victim_priority
                oracle_entries.remove(victim)
                del oracle_priority[victim]
                oracle_evictions.append(victim)

        def oracle_touch(key):
            if key in oracle_priority:
                oracle_entries.remove(key)
                oracle_entries.append(key)
                # refreshed against the current clock; summary size is
                # recovered from the live store (identical payloads)
                oracle_priority[key] = oracle_clock[0] + scores[key]

        scores = {}
        live = {}
        for round_index in range(400):
            op = rng.random()
            name = f"v{rng.randrange(40)}"
            key = (node(name), EMPTY_STACK, S1)
            if op < 0.7:
                summ = summary(steps=rng.randrange(0, 200))
                scores[key] = entry_cost_score(summ)
                live[key] = summ
                store.store(*key, summ)
                oracle_store(key, summ)
            else:
                store.lookup(*key)
                oracle_touch(key)
            resident = {k for k, _ in store.entries()}
            assert resident == set(oracle_entries), f"round {round_index}"

    def test_admission_default_admits_everything(self):
        store = CostAwareSummaryCache(max_entries=4)
        big = PptaResult(
            (), tuple((node(f"b{i}"), EMPTY_STACK, S1) for i in range(50))
        )
        assert store.store(node("big"), EMPTY_STACK, S1, big) is True
