"""The native kernel's summary mirror stays in step with its cache.

A native engine mirrors its plain ``SummaryCache`` into the kernel's
summary table and keeps it in step through the store's journal: every
insert, replacement and removal is replayed at the next sync, and the
kernel session is rebuilt once dead records outnumber live ones.  This
battery drives a native engine and a ``reference`` engine in lockstep
through every way the store changes — queries, invalidations, a
replaced summary, ``clear``, an edit and its revert, a snapshot warm
start — and after each step requires equal answers, per-query step
counts, and cache hit/miss/entry counts.  Two more tests pin the sync's
cost through the session's work counters rather than timing, and two
that the journal stays bounded when no native sync drains it.
"""

import pytest

from repro.analysis.ppta import PptaResult
from repro.bench.generator import GeneratorConfig, generate_program
from repro.cfl.rsm import S1
from repro.cfl.stacks import EMPTY_STACK
from repro.clients import NullDerefClient, SafeCastClient
from repro.engine.core import PointsToEngine
from repro.engine.policy import EnginePolicy
from repro.ir.builder import MethodBuilder
from repro.native import availability
from repro.native import session as native_session

CONFIG = GeneratorConfig(
    seed=3, domain_classes=4, data_classes=3, layers=2, cast_density=0.6
)


@pytest.fixture(autouse=True)
def require_kernel():
    ok, reason = availability()
    if not ok:
        pytest.skip(f"native kernel unavailable: {reason}")


def make_engine(impl, warm_start=None):
    return PointsToEngine.for_program(
        generate_program(CONFIG),
        EnginePolicy(
            traversal_impl=impl,
            max_field_depth=16,
            warm_start=warm_start,
        ),
    )


def observe(engine):
    """Run both client streams; everything that must match across
    impls: per-query (complete, steps, answer), then the engine's
    steps and the cache's hits, misses and entries."""
    per_query = []
    for cls in (SafeCastClient, NullDerefClient):
        client = cls(engine.pag)
        batch = engine.query_batch(
            client.specs(client.queries()), dedupe=False, reorder=False
        )
        per_query.extend(
            (r.complete, r.steps, sorted(map(repr, r.pairs)))
            for r in batch.results
        )
    stats = engine.stats()
    cache = stats.cache
    return per_query, stats.steps, cache.hits, cache.misses, cache.entries


def mirror(engine):
    """The engine's live kernel session (asserting it exists, so a
    refused mirror cannot make a parity check pass vacuously)."""
    memo = engine.cache._native_memo
    assert memo is not None and memo[1] is not None, "native mirror refused"
    return memo[1]


def busiest_method(cache):
    return max(sorted(cache._by_method), key=lambda m: len(cache._by_method[m]))


class Lockstep:
    def __init__(self, make=make_engine):
        self.native = make("native")
        self.reference = make("reference")

    def apply(self, fn):
        fn(self.native)
        fn(self.reference)

    def check(self):
        got = observe(self.native)
        want = observe(self.reference)
        assert got == want
        mirror(self.native)
        return got


def test_parity_through_every_kind_of_store_change(tmp_path):
    pair = Lockstep()
    cold = pair.check()
    assert pair.check()[2] > cold[2]  # the warm pass hits

    # invalidate: the kernel must forget the method's keys
    method = busiest_method(pair.reference.cache)
    pair.apply(lambda engine: engine.invalidate_method(method))
    pair.check()

    # a differing summary replaces a resident one: the start summary
    # of a SafeCast query, minus one object
    def start_key(engine, query):
        return (engine.pag.find_local(query.method, query.var), EMPTY_STACK, S1)

    def resident(engine, query):
        return engine.cache._entries.get(start_key(engine, query))

    query = next(
        q
        for q in SafeCastClient(pair.reference.pag).queries()
        if resident(pair.reference, q) is not None
        and resident(pair.reference, q).objects
    )

    def replace(engine):
        old = resident(engine, query)
        fewer = PptaResult(old.objects[1:], old.boundaries, old.steps)
        assert engine.cache.store(*start_key(engine, query), fewer)

    before = pair.check()
    pair.apply(replace)
    after = pair.check()
    assert after[0] != before[0]  # the replacement is visible

    # clear: counters and entries restart from zero on both sides
    pair.apply(lambda engine: engine.cache.clear())
    pair.check()

    # an edit, then its revert (each patches the PAG, so the next query
    # lowers a new CSR image and re-imports the mirror)
    def alloc(method):
        MethodBuilder(method).alloc(query.var, "Object")

    def revert(method):
        method.statements.pop()

    pair.apply(lambda engine: engine.edit_session().edit(query.method, alloc))
    pair.check()
    pair.apply(lambda engine: engine.edit_session().edit(query.method, revert))
    pair.check()

    # a snapshot warm start
    path = str(tmp_path / "cache.json")
    pair.reference.save_cache(path)
    warm = Lockstep(lambda impl: make_engine(impl, warm_start=path))
    assert warm.native.warm_loaded > 0
    warm.check()


def test_sync_after_an_invalidate_touches_only_that_methods_keys():
    engine = make_engine("native")
    observe(engine)
    observe(engine)
    session = mirror(engine)
    imported, deleted = session.imported, session.deleted
    method = busiest_method(engine.cache)
    dropped = engine.invalidate_method(method)
    assert dropped > 1
    observe(engine)
    assert mirror(engine) is session  # synced in place, not rebuilt
    assert session.deleted - deleted == dropped
    assert session.imported == imported


def test_invalidate_requery_cycles_keep_kernel_records_bounded():
    engine = make_engine("native")
    observe(engine)
    previous = mirror(engine)
    rebuilds = 0
    methods = sorted(engine.cache._by_method)
    for cycle in range(24):
        engine.invalidate_method(methods[cycle % len(methods)])
        observe(engine)
        session = mirror(engine)
        if session is not previous:
            rebuilds += 1
            previous = session
        assert session.live() == len(engine.cache)
        assert session.records() <= 2 * session.live()
    assert rebuilds  # the bound held because the mirror was rebuilt


def test_journal_never_outgrows_the_store_while_native_is_not_reached():
    """An observer sends the engine's worklists through the reference
    loop, so no native sync drains the journal; it must still stay no
    longer than the store (the mirror is dropped once it would), and
    native resumes in parity once the observer is gone."""
    pair = Lockstep()
    pair.check()
    cache = pair.native.cache
    assert cache._native_journal is not None
    pair.native.analysis.observer = lambda event, **data: None
    methods = sorted(cache._by_method)
    for cycle in range(200):
        method = methods[cycle % len(methods)]
        pair.apply(lambda engine: engine.invalidate_method(method))
        assert observe(pair.native) == observe(pair.reference)
        journal = cache._native_journal
        if journal is None:
            break
        assert len(journal) <= len(cache)
    assert cache._native_journal is None and cache._native_memo is None
    pair.native.analysis.observer = None
    pair.check()


def test_kernel_oom_after_the_sync_retires_the_mirror(monkeypatch):
    """Kernel OOM while translating the query context (after the
    session synced) poisons the graph: later queries never reach the
    session again, so the mirror and its journal must go at once."""
    pair = Lockstep()
    pair.check()
    cache = pair.native.cache
    assert cache._native_journal is not None

    def out_of_memory(graph, stack):
        graph.broken = "kernel out of memory"
        return None

    monkeypatch.setattr(native_session._NativeGraph, "cstack_to_c", out_of_memory)
    assert observe(pair.native) == observe(pair.reference)
    assert cache._native_memo is None and cache._native_journal is None
    method = busiest_method(cache)
    pair.apply(lambda engine: engine.invalidate_method(method))
    assert cache._native_journal is None  # nothing left to journal for
    assert observe(pair.native) == observe(pair.reference)
