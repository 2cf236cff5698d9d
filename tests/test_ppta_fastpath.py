"""Differential battery: the optimized traversals vs the reference oracle.

The PPTA inner loop and the DYNSUM worklist run over the PAG's CSR
image — in Python (``array``) and in the C kernel (``native``) — with
interned push tokens and int-keyed visited sets; STASUM, REFINEPTS and
NOREFINE run over the PAG's precompiled adjacency records.  The
accessor-based oracle (:func:`repro.analysis.ppta.run_ppta_reference`
plus DYNSUM's ``_explore_reference``) is switched in with
:func:`repro.analysis.ppta.traversal_impl` — and this battery pins the
equivalence over ~50 generated programs:

* DYNSUM and STASUM run under **every** implementation (``array`` and
  — when the compiled kernel loads — ``native``) on fresh instances:
  query results element-wise identical, step counts bit-equal, and
  (DYNSUM) the cached summaries' object/boundary sets identical entry
  for entry;
* NOREFINE and REFINEPTS (whose record-based loops have no switch) are
  pinned by the full-precision invariant: wherever they and the
  reference DYNSUM all complete, the answers coincide;
* the records themselves are pinned field by field against the PAG
  accessors, so the baselines' view of the graph cannot drift.

A subprocess pair also checks that summary fact *ordering* — now sorted
on structural ``(kind, owner, name)`` node keys rather than ``repr`` —
is stable across ``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.analysis import ppta
from repro.analysis.base import AnalysisConfig
from repro.analysis.dynsum import DynSum
from repro.analysis.norefine import NoRefine
from repro.analysis.refinepts import RefinePts
from repro.analysis.stasum import StaSum
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.runner import bench_analysis_config
from repro.clients import SafeCastClient
from repro.cfl.rsm import FAM_LOAD, FAM_STORE
from repro.cfl.stacks import intern_token
from repro.native import availability
from repro.pag.builder import build_pag
from repro.pag.graph import EMPTY_ADJACENCY, NodeAdjacency


def _battery_impls():
    """The optimized impls this host can differentially test: ``native``
    joins when the kernel loads (no compiler → it is exercised by
    :func:`test_native_rows_covered_or_skipped`'s explicit skip
    instead, and the dispatch fallback keeps it answer-identical
    anyway)."""
    impls = ["array"]
    if availability()[0]:
        impls.append("native")
    return tuple(impls)

#: 50 program shapes: a seed sweep over a small base config plus a few
#: structural variants (deeper layering, heavier library traffic, field
#: chains) mixed in round-robin.
_BASE = GeneratorConfig(
    domain_classes=4,
    data_classes=3,
    box_variants=2,
    workers_per_class=2,
    stmts_per_worker=6,
    driver_rounds=1,
    layers=2,
)
_VARIANTS = (
    _BASE,
    replace(_BASE, layers=3, stmts_per_worker=8),
    replace(_BASE, library_call_bias=2.0),
    replace(_BASE, null_density=0.8, cast_density=0.9),
    replace(_BASE, fields_per_class=5, hierarchy_depth=3),
)
CONFIGS = [
    replace(_VARIANTS[seed % len(_VARIANTS)], seed=seed) for seed in range(50)
]


def make_pag(config):
    return build_pag(generate_program(config))


def query_nodes(pag):
    """SafeCast's query stream plus a deterministic sample of locals."""
    nodes = [query.node(pag) for query in SafeCastClient(pag).queries()]
    sampled = []
    for qname in sorted(pag.methods()):
        for node in pag.nodes_of_method(qname):
            if node.is_local_var:
                sampled.append(node)
    nodes.extend(sampled[:: max(1, len(sampled) // 8)])
    return nodes


def canonical(result):
    return (
        result.complete,
        sorted(
            (str(obj.object_id), ctx.to_tuple()) for obj, ctx in result.pairs
        ),
    )


def run_all(analysis, nodes):
    return [analysis.points_to(node) for node in nodes]


def summary_facts(cache):
    """The cached summaries as comparable object/boundary sets."""
    facts = {}
    for (node, stack, state), summary in cache.entries():
        key = (repr(node), stack.to_tuple(), state)
        facts[key] = (
            frozenset(obj.object_id for obj in summary.objects),
            frozenset(
                (repr(bnode), bstack.to_tuple(), bstate)
                for bnode, bstack, bstate in summary.boundaries
            ),
            summary.steps,
        )
    return facts


@pytest.mark.parametrize("chunk", range(10))
def test_differential_battery(chunk):
    """Five programs per chunk (pytest-parallel friendly), all four
    analyses, array vs native vs reference."""
    impls = _battery_impls()
    for config in CONFIGS[chunk * 5 : chunk * 5 + 5]:
        pag = make_pag(config)
        nodes = query_nodes(pag)
        assert nodes, f"no queries generated for seed {config.seed}"
        outcomes = {}
        for impl in impls + ("reference",):
            with ppta.traversal_impl(impl):
                dynsum = DynSum(pag, bench_analysis_config())
                dyn_results = run_all(dynsum, nodes)
                stasum = StaSum(pag, bench_analysis_config())
                sta_results = run_all(stasum, nodes)
            outcomes[impl] = {
                "dyn": [canonical(r) for r in dyn_results],
                "dyn_steps": [r.steps for r in dyn_results],
                "dyn_stats": [
                    (r.stats["cache_hits"], r.stats["cache_misses"])
                    for r in dyn_results
                ],
                "dyn_complete": [r.complete for r in dyn_results],
                "facts": summary_facts(dynsum.cache),
                "sta": [canonical(r) for r in sta_results],
                "sta_steps": [r.steps for r in sta_results],
            }
        ref = outcomes["reference"]
        for impl in impls:
            got = outcomes[impl]
            label = f"seed {config.seed} [{impl}]"
            # Element-wise identical answers, steps and probe accounting.
            assert got["dyn"] == ref["dyn"], label
            assert got["dyn_steps"] == ref["dyn_steps"], label
            assert got["dyn_stats"] == ref["dyn_stats"], label
            # Entry-for-entry identical summaries (objects, boundary
            # sets, recorded build cost).
            assert got["facts"] == ref["facts"], label
            assert got["sta"] == ref["sta"], label
            assert got["sta_steps"] == ref["sta_steps"], label
        label = f"seed {config.seed}"

        # Full-precision cross-check for the record-based NOREFINE /
        # REFINEPTS loops: wherever everything completes, the answers
        # coincide with reference DYNSUM's.
        norefine = NoRefine(pag, bench_analysis_config())
        refinepts = RefinePts(pag, bench_analysis_config())
        for index, node in enumerate(nodes):
            if not ref["dyn_complete"][index]:
                continue
            nr = norefine.points_to(node)
            rp = refinepts.points_to(node)
            if nr.complete:
                assert canonical(nr) == ref["dyn"][index], (label, index)
            if rp.complete:
                assert canonical(rp) == ref["dyn"][index], (label, index)


def assert_records_match_accessors(pag):
    """Every :class:`NodeAdjacency` field of every node equals the PAG
    accessor of the same name — with the interned push token appended
    to ``load_into``/``store_from`` items — and the three boundary
    predicates equal ``pag.has_*``.  Nodes without a record read the
    shared empty one, which must then match too."""
    records = pag.adjacency()
    nodes = pag.local_var_nodes() + pag.global_var_nodes() + pag.object_nodes()
    assert set(records) <= set(nodes)
    for node in nodes:
        rec = records.get(node, EMPTY_ADJACENCY)
        for name in NodeAdjacency.__slots__:
            want = getattr(pag, name)(node)
            if name == "load_into":
                want = tuple((b, g, intern_token(g, FAM_LOAD)) for b, g in want)
            elif name == "store_from":
                want = tuple((g, b, intern_token(g, FAM_STORE)) for g, b in want)
            elif not name.startswith("has_"):
                want = tuple(want)
            assert getattr(rec, name) == want, (node, name)
        # The canonical token object, not an equal copy: the stacks
        # hash-cons on it.
        for _base, g, token in rec.load_into:
            assert token is intern_token(g, FAM_LOAD), node
        for g, _base, token in rec.store_from:
            assert token is intern_token(g, FAM_STORE), node


@pytest.mark.parametrize("chunk", range(10))
def test_records_match_accessors(chunk):
    """STASUM, REFINEPTS and NOREFINE read the records, not the
    accessors: pin them on the battery's programs."""
    for config in CONFIGS[chunk * 5 : chunk * 5 + 5]:
        assert_records_match_accessors(make_pag(config))


def test_figure2_records_match_accessors(figure2_pag):
    assert_records_match_accessors(figure2_pag)


def test_native_rows_covered_or_skipped():
    """Make the battery's native coverage visible: on hosts where the
    kernel loads this asserts the battery really swept ``native``; on
    hosts without a working compiler it SKIPS with the binding's
    reason, so a green run never silently means "native untested"."""
    ok, reason = availability()
    if not ok:
        pytest.skip(f"native kernel unavailable: {reason}")
    assert "native" in _battery_impls()


#: Adversarial program shapes for the native soak: recursion (folded
#: sites), a megamorphic call site (wide cross-edge op lists) and deep
#: field chains (long hash-consed stacks), swept across budget/k-limit
#: cutoffs — every abort path must leave answers AND step counts
#: bit-equal to the reference loop.
_SOAK_BASE = GeneratorConfig(
    domain_classes=5,
    data_classes=4,
    workers_per_class=2,
    stmts_per_worker=8,
    layers=3,
    recursion_depth=4,
    megamorphic_degree=5,
    field_chain_depth=4,
)
_SOAK_CONFIGS = (
    AnalysisConfig(budget=3),
    AnalysisConfig(budget=25, max_field_depth=2),
    AnalysisConfig(budget=120, track_heap_contexts=False),
    AnalysisConfig(budget=None, max_field_depth=1),
    AnalysisConfig(budget=None),
)


@pytest.mark.parametrize("seed", range(6))
def test_native_adversarial_soak(seed):
    """Randomized adversarial soak: native vs reference, identical
    answers and step counts across abort-heavy configurations."""
    ok, reason = availability()
    if not ok:
        pytest.skip(f"native kernel unavailable: {reason}")
    pag = make_pag(replace(_SOAK_BASE, seed=1000 + seed))
    nodes = query_nodes(pag)
    assert nodes
    for config in _SOAK_CONFIGS:
        outcomes = {}
        for impl in ("native", "reference"):
            with ppta.traversal_impl(impl):
                dynsum = DynSum(pag, config)
                results = run_all(dynsum, nodes)
            outcomes[impl] = {
                "answers": [canonical(r) for r in results],
                "steps": [r.steps for r in results],
                "stats": [
                    (r.stats["cache_hits"], r.stats["cache_misses"])
                    for r in results
                ],
                "facts": summary_facts(dynsum.cache),
            }
        assert outcomes["native"] == outcomes["reference"], (
            f"seed {1000 + seed}, config {config}"
        )
    # The rows above must have run IN the kernel, not on the silent
    # array fallback — a refused image would make this soak vacuous.
    from repro.native.session import _NativeGraph

    assert type(pag.csr()._native) is _NativeGraph


_HASHSEED_SCRIPT = r"""
import json, sys
from repro.analysis.dynsum import DynSum
from repro.analysis.stasum import StaSum
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.runner import bench_analysis_config
from repro.pag.builder import build_pag

pag = build_pag(generate_program(GeneratorConfig(
    seed=11, domain_classes=4, data_classes=3, workers_per_class=2,
    stmts_per_worker=6, driver_rounds=1)))
dynsum = DynSum(pag, bench_analysis_config())
for qname in sorted(pag.methods()):
    for node in pag.nodes_of_method(qname):
        if node.is_local_var:
            dynsum.points_to(node)
order = []
for (node, stack, state), summary in sorted(
    dynsum.cache.entries(), key=lambda kv: (repr(kv[0][0]), kv[0][1].to_tuple(), kv[0][2])
):
    order.append([
        repr(node), list(stack.to_tuple()), state,
        [repr(b[0]) for b in summary.boundaries],
        [str(o.object_id) for o in summary.objects],
    ])
stasum = StaSum(pag, bench_analysis_config())
tables = []
for (node, state), summary in sorted(
    stasum._table.items(), key=lambda kv: (repr(kv[0][0]), kv[0][1])
):
    tables.append([repr(node), state,
                   [repr(b[2]) for b in summary.boundaries]])
json.dump({"order": order, "tables": tables}, sys.stdout, sort_keys=True)
"""


def _run_with_hashseed(seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_summary_ordering_stable_across_hashseeds():
    """The structural sort keys make summary fact ordering independent
    of ``PYTHONHASHSEED`` — the regression the repr-replacement
    satellite pins down."""
    assert _run_with_hashseed(0) == _run_with_hashseed(12345)
