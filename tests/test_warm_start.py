"""Engine persistence: save a summary store, restart warm.

The acceptance property of this layer: an engine warm-started from a
saved snapshot returns **element-wise identical** results to a cold
engine while executing **strictly fewer** traversal steps — on every
shipped example program and on the Figure-4 workload.  Summaries are
pure memos keyed by nominal node identity, so replaying them can only
remove PPTA work, never change an answer.
"""

import json
from dataclasses import replace

import pytest

from repro import (
    BoundedSummaryCache,
    CachePolicy,
    EnginePolicy,
    PointsToEngine,
    SnapshotError,
    build_pag,
    parse_program,
)
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.runner import bench_engine_policy
from repro.bench.suite import load_benchmark
from repro.clients import ALL_CLIENTS
from repro.util.errors import IRError

from conftest import EXAMPLE_PROGRAMS


def _query_nodes(pag):
    """A deterministic all-locals workload (covers every method)."""
    return sorted(pag.local_var_nodes(), key=repr)


def _warm_policy(base, path, **cache_kwargs):
    policy = replace(base, warm_start=str(path))
    if cache_kwargs:
        policy = replace(policy, cache=CachePolicy(**cache_kwargs))
    return policy


def _run_cold_and_warm(pag, items, tmp_path, warm_cache_kwargs=None):
    base = bench_engine_policy()
    cold = PointsToEngine(pag, base)
    cold_batch = cold.query_batch(items, dedupe=False, reorder=False)
    path = tmp_path / "summaries.json"
    snapshot = cold.save_cache(path)
    warm = PointsToEngine(
        pag, _warm_policy(base, path, **(warm_cache_kwargs or {}))
    )
    warm_batch = warm.query_batch(items, dedupe=False, reorder=False)
    return cold, cold_batch, warm, warm_batch, snapshot


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_examples_warm_start_identical_and_cheaper(name, tmp_path):
    pag = build_pag(parse_program(EXAMPLE_PROGRAMS[name]))
    items = _query_nodes(pag)
    cold, cold_batch, warm, warm_batch, snapshot = _run_cold_and_warm(
        pag, items, tmp_path
    )
    assert len(snapshot.entries) > 0
    assert warm.warm_loaded == len(snapshot.entries)
    assert warm.warm_skipped == 0
    for cold_result, warm_result in zip(cold_batch.results, warm_batch.results):
        assert warm_result.pairs == cold_result.pairs
        assert warm_result.complete == cold_result.complete
    assert warm_batch.stats.steps < cold_batch.stats.steps


@pytest.fixture(scope="module")
def figure4_instance():
    return load_benchmark("soot-c", scale=0.5)


@pytest.mark.parametrize("client_cls", ALL_CLIENTS, ids=lambda c: c.name)
def test_figure4_workload_warm_start(figure4_instance, client_cls, tmp_path):
    """The paper-protocol workload: identical verdicts and answers,
    strictly fewer steps, after a save/restart cycle."""
    pag = figure4_instance.pag
    base = bench_engine_policy()
    client = client_cls(pag)

    cold = PointsToEngine(pag, base)
    cold_verdicts, cold_batch = cold.run_client(
        client, dedupe=False, reorder=False
    )
    path = tmp_path / "summaries.json"
    snapshot = cold.save_cache(path)
    assert len(snapshot.entries) == len(cold.cache)

    warm = PointsToEngine(pag, _warm_policy(base, path))
    warm_verdicts, warm_batch = warm.run_client(
        client, dedupe=False, reorder=False
    )
    assert warm.warm_loaded == len(snapshot.entries)
    assert [v.status for v in warm_verdicts] == [v.status for v in cold_verdicts]
    for cold_result, warm_result in zip(cold_batch.results, warm_batch.results):
        assert warm_result.pairs == cold_result.pairs
    assert warm_batch.stats.steps < cold_batch.stats.steps
    # Every probe the warm run makes before its first miss is a hit on a
    # replayed summary; at minimum the hit *rate* must not regress.
    assert warm_batch.stats.hit_rate >= cold_batch.stats.hit_rate


#: Stores for the warm-start impl differential; the caps are small
#: enough that the bounded stores evict on the shipped examples.
WARM_CACHES = {
    "plain": CachePolicy(),
    "bounded": CachePolicy(max_entries=4),
    "facts-bounded": CachePolicy(max_facts=6),
}


def _answers(results):
    return [(sorted(map(repr, r.pairs)), r.complete) for r in results]


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
@pytest.mark.parametrize("cache", sorted(WARM_CACHES))
def test_warm_start_answers_match_across_impls(cache, name, tmp_path):
    """One JSON snapshot warm-starts one engine per traversal impl, each
    over a freshly built PAG (as in a new process): every local gets the
    same answer and step count under ``array``, ``native`` and
    ``reference``, and the answers equal the cold engine's."""
    source = EXAMPLE_PROGRAMS[name]
    policy = bench_engine_policy(cache=WARM_CACHES[cache])
    pag = build_pag(parse_program(source))
    cold = PointsToEngine(pag, policy)
    cold_answers = _answers([cold.query(node) for node in _query_nodes(pag)])
    path = tmp_path / "summaries.json"
    snapshot = cold.save_cache(path)
    runs = {}
    for impl in ("array", "native", "reference"):
        fresh = build_pag(parse_program(source))
        warm = PointsToEngine(
            fresh, replace(policy, warm_start=str(path), traversal_impl=impl)
        )
        assert warm.warm_loaded == len(snapshot.entries)
        results = [warm.query(node) for node in _query_nodes(fresh)]
        runs[impl] = (_answers(results), [r.steps for r in results])
    assert runs["array"] == runs["native"] == runs["reference"]
    assert runs["reference"][0] == cold_answers


def test_a_snapshot_with_float_states_warm_starts_a_native_engine(tmp_path):
    """A state written ``1.0`` equals S1, so the loader accepts it; the
    store and the kernel mirror get the int it stands for.  A snapshot
    with every key and boundary state written as a float answers every
    query with the answers and steps of the same snapshot with integer
    states, on the kernel."""
    config = GeneratorConfig(seed=3, domain_classes=2, data_classes=2, layers=1)
    cold = PointsToEngine(build_pag(generate_program(config)), EnginePolicy())
    cold.query_batch(_query_nodes(cold.pag))
    ints = tmp_path / "ints.json"
    cold.save_cache(ints)
    payload = json.loads(ints.read_text())
    for entry in payload["entries"]:
        for key in (entry, *entry["boundaries"]):
            key["state"] = float(key["state"])
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(payload))
    assert '"state": 1.0' in floats.read_text()
    runs = []
    for path in (ints, floats):
        warm = PointsToEngine(
            build_pag(generate_program(config)),
            EnginePolicy(warm_start=str(path), traversal_impl="native"),
        )
        assert warm.warm_loaded == len(payload["entries"]) > 0
        results = [warm.query(node) for node in _query_nodes(warm.pag)]
        runs.append((_answers(results), [r.steps for r in results]))
        assert warm.stats().steps < cold.stats().steps
    assert runs[0] == runs[1]


def test_warm_start_into_bounded_store(tmp_path):
    """The snapshot is store-shape-agnostic: saved from an unbounded
    cache, replayed into a bounded one — the policy of the *new* engine
    wins, answers never change."""
    pag = build_pag(parse_program(EXAMPLE_PROGRAMS[sorted(EXAMPLE_PROGRAMS)[0]]))
    items = _query_nodes(pag)
    cold, cold_batch, warm, warm_batch, snapshot = _run_cold_and_warm(
        pag, items, tmp_path, warm_cache_kwargs={"max_entries": 4096}
    )
    assert type(warm.cache) is BoundedSummaryCache
    assert warm.cache.max_entries == 4096
    assert warm.warm_loaded == len(snapshot.entries)
    for cold_result, warm_result in zip(cold_batch.results, warm_batch.results):
        assert warm_result.pairs == cold_result.pairs
    assert warm_batch.stats.steps < cold_batch.stats.steps


def test_warm_start_into_a_bounded_store_below_the_snapshot(tmp_path):
    """Replayed into an LRU store whose cap is below the snapshot's
    size, the new engine's policy still wins: the cap holds, evictions
    absorb the overflow, and no answer changes."""
    pag = build_pag(parse_program(EXAMPLE_PROGRAMS[sorted(EXAMPLE_PROGRAMS)[0]]))
    items = _query_nodes(pag)
    cold, cold_batch, warm, warm_batch, snapshot = _run_cold_and_warm(
        pag, items, tmp_path, warm_cache_kwargs={"max_entries": 4}
    )
    assert type(warm.cache) is BoundedSummaryCache
    assert len(snapshot.entries) > 4
    assert warm.warm_loaded == len(snapshot.entries)
    assert len(warm.cache) <= 4
    assert warm.cache.evictions > 0
    for cold_result, warm_result in zip(cold_batch.results, warm_batch.results):
        assert warm_result.pairs == cold_result.pairs
        assert warm_result.complete == cold_result.complete

def test_warm_start_skips_entries_of_a_different_program(tmp_path):
    """Program drift between save and restart: unresolvable entries are
    skipped (counted), never applied, and answers stay correct."""
    figure2 = build_pag(parse_program(EXAMPLE_PROGRAMS[sorted(EXAMPLE_PROGRAMS)[0]]))
    cold = PointsToEngine(figure2, bench_engine_policy())
    cold.query_batch(_query_nodes(figure2), dedupe=False, reorder=False)
    path = tmp_path / "summaries.json"
    cold.save_cache(path)

    other_pag = build_pag(
        parse_program(
            "class W { }\n"
            "class Main { static method main() { a = new W; b = a; } }"
        )
    )
    warm = PointsToEngine(
        other_pag, _warm_policy(bench_engine_policy(), path)
    )
    assert warm.warm_loaded == 0
    assert warm.warm_skipped > 0
    result = warm.query_name("Main.main", "b")
    assert [obj.class_name for obj in result.objects] == ["W"]


def test_warm_start_missing_file_is_a_typed_error():
    pag = build_pag(parse_program(EXAMPLE_PROGRAMS[sorted(EXAMPLE_PROGRAMS)[0]]))
    policy = replace(bench_engine_policy(), warm_start="/no/such/snapshot.json")
    with pytest.raises(SnapshotError):
        PointsToEngine(pag, policy)


def test_save_cache_requires_a_summary_store(tmp_path):
    pag = build_pag(parse_program(EXAMPLE_PROGRAMS[sorted(EXAMPLE_PROGRAMS)[0]]))
    engine = PointsToEngine(pag, bench_engine_policy(analysis="REFINEPTS"))
    with pytest.raises(IRError):
        engine.save_cache(tmp_path / "nope.json")


def test_program_backed_engine_survives_save_edit_warm_cycle(tmp_path):
    """Persistence composes with the IDE scenario: a program-backed
    engine saves, edits (dropping stale summaries), saves again, and a
    restart from the newer snapshot is warm for the edited program."""
    source = """
class Thing { }
class Widget { }
class Factory {
  method create() {
    t = new Thing;
    return t;
  }
}
class Main {
  static method main() {
    f = new Factory;
    x = f.create();
    y = x;
  }
}
"""
    program = parse_program(source)
    engine = PointsToEngine.for_program(program, bench_engine_policy())
    before = engine.query_name("Main.main", "y")
    assert [obj.class_name for obj in before.objects] == ["Thing"]

    session = engine.edit_session()
    session.replace_body(
        "Factory.create", lambda m: m.alloc("w", "Widget").ret("w")
    )
    after = engine.query_name("Main.main", "y")
    assert [obj.class_name for obj in after.objects] == ["Widget"]

    path = tmp_path / "edited.json"
    snapshot = engine.save_cache(path)
    assert len(snapshot.entries) > 0

    restarted = PointsToEngine.for_program(
        parse_program(source), bench_engine_policy()
    )
    # The restarted host has the *original* program: entries minted for
    # the edited Factory.create must not resolve into it blindly — the
    # object-class check keeps stale Widget memos out.
    loaded, _skipped = snapshot.load_into(
        restarted.cache, restarted.pag, strict=False
    )
    result = restarted.query_name("Main.main", "y")
    assert [obj.class_name for obj in result.objects] == ["Thing"]
