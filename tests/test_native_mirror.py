"""The native kernel's summary mirror stays in step with its cache.

A native engine mirrors its plain ``SummaryCache`` into the kernel's
summary table and keeps it in step through the store's journal: every
insert, replacement and removal is replayed at the next sync, and the
kernel compacts the session once dead records outnumber live ones.  An
edit patches the CSR image, and the kernel graph rebinds to it with its
sessions kept.  This battery drives a native, an ``array`` and a
``reference`` engine in lockstep through every way the store changes —
queries, invalidations, a replaced summary, ``clear``, an edit/revert
cycle, a snapshot warm start — and after each step requires equal
answers, per-query step counts, and cache hit/miss/entry counts.  More
tests pin the sync's cost through the session's work counters rather
than timing (after an invalidate and after an edit), the ``array``
loop's probe memo across a patched image, that the ``array`` loop's
inline inserts reach a live mirror through the journal, and that the
journal stays bounded when no native sync drains it.
"""

import pytest

from conftest import EXAMPLE_PROGRAMS
from repro.analysis import ppta
from repro.analysis.ppta import PptaResult
from repro.bench.generator import GeneratorConfig, generate_program
from repro.cfl.rsm import FAM_LOAD, S1
from repro.cfl.stacks import EMPTY_STACK, intern_token
from repro.clients import NullDerefClient, SafeCastClient
from repro.engine.core import PointsToEngine
from repro.engine.policy import EnginePolicy
from repro.ir.builder import MethodBuilder
from repro.ir.parser import parse_program
from repro.native import availability
from repro.native import session as native_session
from repro.pag.builder import build_pag
from repro.pag.csr import compile_csr

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
        self.array = make("array")
        self.reference = make("reference")

    def apply(self, fn):
        fn(self.native)
        fn(self.array)
        fn(self.reference)

    def check(self):
        got = observe(self.native)
        array = observe(self.array)
        want = observe(self.reference)
        assert got == want
        assert array == want
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

    # an edit/revert cycle, three times over (each edit patches the PAG
    # and its CSR image; the next native query rebinds the kernel graph
    # to the patched image and drains the journal into the kept mirror)
    def alloc(method):
        MethodBuilder(method).alloc(query.var, "Object")

    def revert(method):
        method.statements.pop()

    for step in range(6):
        edit = revert if step % 2 else alloc
        pair.apply(lambda engine: engine.edit_session().edit(query.method, edit))
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


def cast_query(engine):
    """A SafeCast query whose method holds resident summaries, but
    fewer than half of the store's (so an edit there leaves the
    mirror's dead-record and journal bounds alone)."""
    cache = engine.cache
    for query in SafeCastClient(engine.pag).queries():
        resident = len(cache._by_method.get(query.method, ()))
        if 0 < 2 * resident < len(cache):
            return query
    raise AssertionError("no SafeCast query in a lightly cached method")


def test_sync_after_an_edit_touches_only_the_edited_keys():
    engine = make_engine("native")
    observe(engine)
    observe(engine)
    session = mirror(engine)
    graph = session.graph
    imported, deleted = session.imported, session.deleted
    query = cast_query(engine)
    report = engine.edit_session().edit(
        query.method, lambda method: MethodBuilder(method).alloc(query.var, "Object")
    )
    assert not report.rebuilt and report.dropped > 0
    observe(engine)
    assert mirror(engine) is session  # kept across the image change
    assert session.graph is graph and graph.image is engine.pag.csr()
    assert session.imported == imported  # no re-import
    assert session.deleted - deleted == report.dropped


def test_a_key_skipped_at_import_is_put_once_an_edit_brings_it_in():
    """An entry whose field stack holds a token the image never interned
    is out of the kernel's reach and skipped; once an edit adds that
    field to the program, the rebound graph knows the token and the
    next sync puts the key, so the kept mirror holds every entry."""
    engine = make_engine("native")
    observe(engine)
    session = mirror(engine)
    cache = engine.cache
    assert session.live() == len(cache)
    (node, _stack, state), summary = next(iter(cache._entries.items()))
    field = "mirror_skipped_field"
    cache.store(node, EMPTY_STACK.push(intern_token(field, FAM_LOAD)), state, summary)
    observe(engine)
    assert session.live() == len(cache) - 1  # skipped
    other = next(
        m for m in sorted(engine.pag.call_graph.reachable_methods) if m != node.method
    )
    report = engine.edit_session().edit(
        other, lambda method: MethodBuilder(method).load("mirror_t", "mirror_b", field)
    )
    assert not report.rebuilt
    observe(engine)
    assert mirror(engine) is session
    assert session.live() == len(cache)


def test_rebind_refuses_an_image_that_renumbers():
    """Kernel sessions name nodes by index, so the kernel refuses to
    rebind a graph to an image numbering fewer nodes; the graph keeps
    serving its own image."""
    engine = make_engine("native")
    observe(engine)
    before = observe(engine)
    graph = mirror(engine).graph
    smaller = compile_csr(
        build_pag(parse_program("class Main { static method main() { a = new Main; } }"))
    )
    assert native_session._rebind(graph, smaller) == (
        "CSR image rejected by the kernel (array values out of range)"
    )
    assert graph.image is engine.pag.csr()
    assert observe(engine)[0] == before[0]


def test_probe_memo_follows_a_patched_image():
    """The ``array`` loop's probe memo packs keys with the image's node
    count; an edit that appends a node but removes nothing resident
    leaves the store's memo in place, so only the patched image being a
    new object retires it.  Answers must stay a cold engine's."""
    engine = make_engine("array")

    def answers(target):
        client = SafeCastClient(target.pag)
        batch = target.query_batch(
            client.specs(client.queries()), dedupe=False, reorder=False
        )
        return [sorted(map(repr, r.pairs)) for r in batch.results]

    answers(engine)
    memo = engine.cache._probe_memo
    assert memo is not None and memo[1]
    cold = sorted(
        set(engine.pag.call_graph.reachable_methods) - set(engine.cache._by_method)
    )
    method = cold[0]

    def alloc(target):
        MethodBuilder(target).alloc("probe_memo_fresh", "Object")

    image = engine.pag.csr()
    report = engine.edit_session().edit(method, alloc)
    assert not report.rebuilt and report.dropped == 0
    patched = engine.pag.csr()
    assert patched.n_nodes > image.n_nodes and engine.pag.csr_patches == 1
    assert engine.cache._probe_memo is memo  # the store had no cause to drop it
    program = generate_program(CONFIG)
    alloc(program.lookup_method(method))
    program.finalize()
    fresh = PointsToEngine.for_program(program, EnginePolicy(traversal_impl="array"))
    assert answers(engine) == answers(fresh)


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_array_inserts_reach_a_live_mirror_through_the_journal(name):
    """The ``array`` loop inserts summaries into a plain store inline;
    while a kernel mirror is live it must journal each one, or the next
    native query misses where Python would hit.  One unpinned engine
    answers half the locals natively (the mirror and its journal now
    exist), the rest under ``traversal_impl("array")``, then all of
    them natively again: every answer and per-query step count must be
    a ``reference`` engine's."""
    pag = build_pag(parse_program(EXAMPLE_PROGRAMS[name]))
    engine = PointsToEngine(pag, EnginePolicy())
    reference = PointsToEngine(pag, EnginePolicy(traversal_impl="reference"))
    nodes = list(pag.local_var_nodes())
    half = len(nodes) // 2

    def ask(batch):
        def outcome(result):
            return result.complete, result.steps, sorted(map(repr, result.pairs))

        got = [outcome(engine.query(node)) for node in batch]
        assert got == [outcome(reference.query(node)) for node in batch]

    ask(nodes[:half])
    session = mirror(engine)
    assert engine.cache._native_journal is not None
    with ppta.traversal_impl("array"):
        ask(nodes[half:])
    ask(nodes)
    assert mirror(engine) is session
    assert session.live() == len(engine.cache)


def test_invalidate_requery_cycles_keep_kernel_records_bounded():
    engine = make_engine("native")
    observe(engine)
    session = mirror(engine)
    records = session.records()
    compactions = 0
    methods = sorted(engine.cache._by_method)
    for cycle in range(24):
        engine.invalidate_method(methods[cycle % len(methods)])
        observe(engine)
        assert mirror(engine) is session  # compacted in place, never rebuilt
        if session.records() < records:
            compactions += 1
        records = session.records()
        assert session.live() == len(engine.cache)
        assert session.records() <= 2 * session.live()
    assert compactions  # the bound held because the kernel compacted


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
        want = observe(pair.reference)
        assert observe(pair.native) == want == observe(pair.array)
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
