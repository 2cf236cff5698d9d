"""Seeded edit fuzzer: an edited session must equal a from-scratch build.

Each case takes a small generator program, opens an
:class:`~repro.analysis.incremental.IncrementalAnalysisSession` over it,
warms its summary store, and applies a seeded sequence of edits:
inserting, appending or removing an alloc, copy, load, store, static
get or static put; redirecting a call (its receiver or an argument);
adding or removing a call statement (which shifts site ids); replacing
a body; and reverting the previous edit.  After every edit it checks,
against a deep copy of the edited program finalized and built from
scratch:

* the PAG's edge dicts (key order and per-key order included), node
  keys, recursive sites and ``pag_fingerprint``;
* the session's CSR image — patched, not recompiled — against
  ``compile_csr`` of the fresh build, up to node numbering: every live
  node's rows (node-valued entries mapped to sort keys), flags byte and
  token ids, every other row empty with flag zero and listed as dead,
  and the node count within the compaction bound;
* under ``native``, that an edit which is not ``rebuilt`` keeps the
  kernel graph and the summary mirror's kernel session;
* the kept solver's points-to sets and call graph, against
  ``AndersenAnalysis(program).solve()``;
* every local's answer and completeness under ``reference``, ``array``
  and ``native``, against a cold DYNSUM;
* the store, which must hold no entry of an edited or surface-changed
  method;
* ``rebuilt``, which must be false whenever site numbering and the call
  graph are kept.

Tier-1 runs a short fixed set of seeds (0..15).  For a longer budget
run the module directly — ``PYTHONPATH=src python tests/test_edit_fuzz.py
N [START]`` checks seeds START..START+N-1 (START defaults to 0; CI runs
``60 16`` under the sanitized kernel, disjoint from tier-1's seeds).
Every failing example found is kept below as a named regression case.
"""

import copy
import random
import sys

import pytest

from repro import BoundedSummaryCache
from repro.analysis.base import AnalysisConfig
from repro.analysis.dynsum import DynSum
from repro.analysis.incremental import IncrementalAnalysisSession
from repro.analysis.ppta import traversal_impl
from repro.bench.generator import GeneratorConfig, generate_program
from repro.callgraph.andersen import AndersenAnalysis, AndersenResult
from repro.clients import SafeCastClient
from repro.ir.ast import Alloc, Call, Copy, Load, NullAssign, StaticGet, StaticPut, Store
from repro.ir.builder import MethodBuilder
from repro.ir.parser import parse_program
from repro.native import session as native_session
from repro.pag.builder import build_pag
from repro.pag.csr import _GROUPS, compile_csr, pag_fingerprint
from repro.pag.nodes import Node

IMPLS = ("reference", "array", "native")

EDGE_DICTS = (
    "_new_in", "_new_out", "_assign_in", "_assign_out", "_load_in", "_load_out",
    "_store_in", "_store_out", "_entry_in", "_entry_out", "_exit_in", "_exit_out",
    "_global_in", "_global_out", "_loads_by_field", "_stores_by_field",
)

#: Seeds tier-1 runs (a few seconds); ``main`` runs more.
TIER1_SEEDS = range(16)
EDITS_PER_CASE = 10
#: Random edits build field cycles; the k-limit keeps every traversal
#: finite without a step budget, whose verdicts would depend on how warm
#: the store is.
CONFIG = AnalysisConfig(budget=None, max_field_depth=3)


def small_program(seed):
    return generate_program(GeneratorConfig(
        seed=seed, domain_classes=2, data_classes=2, workers_per_class=2,
        stmts_per_worker=3, driver_rounds=1,
    ))


# ----------------------------------------------------------------------
# canonical forms (node objects differ between the session and a fresh
# build; their sort keys do not)
# ----------------------------------------------------------------------
def canon(value):
    if isinstance(value, Node):
        return value.sort_key
    if isinstance(value, (list, tuple)):
        return tuple(canon(item) for item in value)
    return value


def pag_state(pag):
    state = {name: [(canon(k), canon(v)) for k, v in getattr(pag, name).items()]
             for name in EDGE_DICTS}
    state["locals"] = set(pag._locals)
    state["globals"] = set(pag._globals)
    state["objects"] = {(oid, node.class_name) for oid, node in pag._objects.items()}
    state["method_nodes"] = {
        method: {node.sort_key for node in nodes}
        for method, nodes in pag._method_nodes.items()
    }
    state["recursive_sites"] = sorted(pag.recursive_sites())
    state["edge_counts"] = pag.edge_counts()
    state["fingerprint"] = pag_fingerprint(pag)
    return state


#: CSR value arrays whose entries are node indices.
NODE_VALUED = {
    "new_val", "as_val", "li_val", "at_val", "lf_val", "si_val", "sf_val",
    "cb_tgt", "cf_tgt",
}


def csr_rows(image, index):
    """Node ``index``'s rows in every CSR group, node indices mapped to
    sort keys, and its flags byte: what a patch must get right."""
    rows = []
    for offsets, *columns in _GROUPS:
        lo, hi = getattr(image, offsets)[index], getattr(image, offsets)[index + 1]
        rows.append(tuple(
            tuple(
                image.nodes[x].sort_key if name in NODE_VALUED else x
                for x in getattr(image, name)[lo:hi]
            )
            for name in columns
        ))
    return tuple(rows), image.flags[index]


def check_image(pag, fresh):
    """``pag``'s CSR image equals a fresh compile of ``fresh`` up to
    numbering; returns the image."""
    image = pag.csr()
    want = compile_csr(fresh)
    interned = {
        node.sort_key: node
        for table in (pag._locals, pag._globals, pag._objects)
        for node in table.values()
    }
    live = set()
    for index, node in enumerate(want.nodes):
        mine = image.node_index[interned[node.sort_key]]
        live.add(mine)
        assert csr_rows(image, mine) == csr_rows(want, index), node
    empty = (tuple(((),) * (len(group) - 1) for group in _GROUPS), 0)
    others = set(range(image.n_nodes)) - live
    for index in others:
        assert csr_rows(image, index) == empty, image.nodes[index]
    assert image.dead == others
    assert image.n_nodes <= 2 * want.n_nodes  # compaction bound
    assert image.flags[image.n_nodes] == 0  # sentinel
    return image


def kernel_state(session):
    """``(graph, kernel session)`` the native impl keeps for
    ``session`` (``None`` for either it does not hold)."""
    native = session.pag.csr()._native
    graph = native if isinstance(native, native_session._NativeGraph) else None
    memo = session.analysis.cache._native_memo
    return graph, memo[1] if memo is not None else None


def solver_state(result):
    return (
        {key: result.points_to(key) for key in result.variable_keys()},
        list(result.call_graph.edges()),
        sorted(result.call_graph.reachable_methods),
    )


def answer(result):
    return (
        result.complete,
        sorted(
            (str(obj.object_id), obj.class_name, repr(ctx.to_tuple()))
            for obj, ctx in result.pairs
        ),
    )


def site_numbering(program):
    return {site: method.qualified_name for site, (method, _c) in program.call_sites().items()}


# ----------------------------------------------------------------------
# the edits
# ----------------------------------------------------------------------
def random_statement(rng, program, method):
    names = method.local_names() or ["fz"]
    v, w = rng.choice(names), rng.choice(names)
    classes = sorted(program.classes)
    fields = sorted({f for c in program.classes.values() for f in c.fields}) or ["f"]
    statics = sorted(
        (c.name, f) for c in program.classes.values() for f in c.static_fields
    ) or [("Main", "fz")]
    static = rng.choice(statics)
    return rng.choice([
        lambda: Alloc(v, rng.choice(classes)),
        lambda: NullAssign(v),
        lambda: Copy(v, w),
        lambda: Load(v, w, rng.choice(fields)),
        lambda: Store(v, rng.choice(fields), w),
        lambda: StaticGet(v, *static),
        lambda: StaticPut(static[0], static[1], w),
    ])()


def random_call(rng, program, method):
    names = method.local_names() or ["fz"]
    callees = [m for m in program.methods() if m.qualified_name != program.entry]
    callee = rng.choice(callees)
    args = [rng.choice(names) for _ in callee.params]
    target = rng.choice(names + [None])
    if callee.is_static:
        return Call(target, None, callee.class_name, callee.name, args)
    return Call(target, rng.choice(names), None, callee.name, args)


def random_edit(rng, program, reachable):
    """``(kind, method qname, mutate)`` for one seeded edit."""
    method = program.lookup_method(rng.choice(reachable))
    kind = rng.choice([
        "insert", "insert", "append", "remove", "remove", "redirect",
        "add-call", "remove-call", "replace",
    ])
    if kind in ("insert", "append"):
        stmt = random_statement(rng, program, method)
        at = len(method.statements) if kind == "append" else rng.randint(0, len(method.statements))
        return kind, method.qualified_name, lambda m: m.statements.insert(at, stmt)
    if kind == "remove":
        plain = [i for i, s in enumerate(method.statements) if s.kind not in ("call", "return")]
        if plain:
            at = rng.choice(plain)
            return kind, method.qualified_name, lambda m: m.statements.pop(at)
        kind = "add-call"
    if kind == "redirect":
        calls = [s for s in method.statements if s.kind == "call"]
        if calls:
            call = rng.choice(calls)
            pick = rng.choice(method.local_names())
            if call.is_virtual and (not call.args or rng.random() < 0.5):
                attr, slot = "receiver", None
            elif call.args:
                attr, slot = "args", rng.randrange(len(call.args))
            else:
                attr, slot = "target", None

            def redirect(_m):
                if slot is None:
                    setattr(call, attr, pick)
                else:
                    call.args[slot] = pick

            return kind, method.qualified_name, redirect
        kind = "add-call"
    if kind == "remove-call":
        calls = [i for i, s in enumerate(method.statements) if s.kind == "call"]
        if calls:
            at = rng.choice(calls)
            return kind, method.qualified_name, lambda m: m.statements.pop(at)
        kind = "add-call"
    if kind == "add-call":
        call = random_call(rng, program, method)
        at = rng.randint(0, len(method.statements))
        return kind, method.qualified_name, lambda m: m.statements.insert(at, call)
    # replace: a short fresh body keeping the method's returns
    body = [random_statement(rng, program, method) for _ in range(rng.randint(1, 4))]
    body += [s for s in method.statements if s.kind == "return"][:1]

    def replace(m):
        m.statements[:] = body

    return kind, method.qualified_name, replace


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def check(session, report, numbering_before, edges_before, kernel_before=(None, None)):
    program = session.program
    fresh_program = copy.deepcopy(program)
    fresh_program.finalize()
    fresh = build_pag(fresh_program)
    compiles = session.pag.csr_compiles
    if session.analysis.cache._native_memo is None:
        # The edit's removals outgrew the store's journal bound, which
        # drops the mirror by design: the next query imports afresh.
        kernel_before = (kernel_before[0], None)
    check_image(session.pag, fresh)

    # the store holds nothing of an edited or surface-changed method
    stale = set(report.edited) | set(report.surface_changed)
    assert not [key for key, _ in session.analysis.cache.entries() if key[0].method in stale]

    # the PAG equals a fresh build, order included
    assert pag_state(session.pag) == pag_state(fresh)

    # the kept solver equals a fresh solve
    assert solver_state(AndersenResult(session.solver)) == solver_state(
        AndersenAnalysis(fresh_program).solve()
    )

    # rebuilt only when site numbering or the call graph changed
    if site_numbering(program) == numbering_before and (
        list(session.pag.call_graph.edges()) == edges_before
    ):
        assert not report.rebuilt

    # every local answers as a cold engine does, under every impl
    for impl in IMPLS:
        cold = DynSum(fresh, session.config)
        with traversal_impl(impl):
            for node in session.pag.local_var_nodes():
                warm = session.points_to(node)
                want = cold.points_to(fresh.find_local(node.method, node.name))
                assert answer(warm) == answer(want), (impl, node)
        if impl == "native":
            check_kernel_kept(session, report, compiles, kernel_before)


def check_kernel_kept(session, report, compiles, kernel_before):
    """A patched image (no full solve, no compaction) keeps the kernel
    graph, and a mirror the edit left in place keeps its kernel
    session."""
    graph, mirror = kernel_before
    if report.rebuilt or session.pag.csr_compiles != compiles:
        return
    now_graph, now_mirror = kernel_state(session)
    if graph is not None:
        assert now_graph is graph
    if mirror is not None:
        assert now_mirror is mirror


def warm_up(session):
    for node in session.pag.local_var_nodes()[::3]:
        session.points_to(node)


def run_case(seed, edits=EDITS_PER_CASE, cache=None):
    rng = random.Random(seed)
    session = IncrementalAnalysisSession(small_program(seed), CONFIG, cache=cache)
    warm_up(session)
    undo = None
    for _ in range(edits):
        program = session.program
        reachable = sorted(session.pag.call_graph.reachable_methods)
        if undo is not None and rng.random() < 0.25:
            qname, body = undo
            kind, mutate = "revert", (lambda m, body=body: m.statements.__setitem__(slice(None), body))
        else:
            kind, qname, mutate = random_edit(rng, program, reachable)
        numbering = site_numbering(program)
        edges = list(session.pag.call_graph.edges())
        method = program.lookup_method(qname)
        undo = (qname, copy.deepcopy(method.statements))
        kernel = kernel_state(session)
        report = session.edit(qname, mutate)
        check(session, report, numbering, edges, kernel)
        warm_up(session)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_seeded_edits_match_a_fresh_build(seed):
    run_case(seed)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_edits_with_an_evicting_store(seed):
    """Invalidation and eviction compose: a small LRU store evicts on
    nearly every query while edits invalidate through it."""
    run_case(seed, cache=BoundedSummaryCache(max_entries=16))


# ----------------------------------------------------------------------
# named regression cases (failing examples the fuzzer found)
# ----------------------------------------------------------------------
RETURN_ORDER_SOURCE = """
class A { }
class B { }
class Helper {
  method pick(x) {
    y = new A;
    return x;
    return y;
  }
}
class Main {
  static method main() {
    h = new Helper;
    b = new B;
    r = h.pick(b);
  }
}
"""


def test_reordered_returns_reorder_the_callers_exit_edges():
    """Swapping two returns changes no constraint, but every caller emits
    its exit edges in return order — the callers' PAG segments must be
    regenerated (found by the fuzzer's shuffle of a callee body)."""
    session = IncrementalAnalysisSession(parse_program(RETURN_ORDER_SOURCE), CONFIG)
    numbering = site_numbering(session.program)
    edges = list(session.pag.call_graph.edges())

    def swap(method):
        method.statements[1], method.statements[2] = method.statements[2], method.statements[1]

    report = session.edit("Helper.pick", swap)
    check(session, report, numbering, edges)
    assert not report.rebuilt


def test_relabelled_allocation_gets_a_fresh_object_node():
    """An allocation inserted mid-body renumbers the method's later
    objects; an object node never changes class."""
    session = IncrementalAnalysisSession(parse_program(RETURN_ORDER_SOURCE), CONFIG)
    numbering = site_numbering(session.program)
    edges = list(session.pag.call_graph.edges())
    before = session.pag.object_node("o1@Helper.pick")
    report = session.edit("Helper.pick", lambda m: m.statements.insert(0, Alloc("z", "B")))
    check(session, report, numbering, edges)
    after = session.pag.object_node("o1@Helper.pick")
    assert after.class_name == "B" and after is not before
    assert before.class_name == "A"


def test_edit_storm_cycle_keeps_the_kernel_and_bounds_dead_rows():
    """Edit-storm's cycle: append ``v = new Object`` to a SafeCast
    query's cast source, revert, six times over.  Each edit appends one
    object node and each revert drops it, so the patched image gains one
    dead row per revert and stays within the compaction bound; answers
    stay a cold engine's, and the kernel graph and mirror are kept."""
    session = IncrementalAnalysisSession(small_program(1), CONFIG)
    warm_up(session)
    queries = SafeCastClient(session.pag).queries()
    target = queries[len(queries) // 2]

    def append(method):
        MethodBuilder(method).alloc(target.var, "Object")

    def revert(method):
        method.statements.pop()

    session.pag.csr()
    compiles = session.pag.csr_compiles
    for index in range(12):
        numbering = site_numbering(session.program)
        edges = list(session.pag.call_graph.edges())
        kernel = kernel_state(session)
        report = session.edit(target.method, revert if index % 2 else append)
        assert not report.rebuilt
        check(session, report, numbering, edges, kernel)
        image = session.pag.csr()
        assert len(image.dead) == (index + 1) // 2
        assert image.n_nodes <= 2 * (image.n_nodes - len(image.dead))
    assert session.pag.csr_compiles == compiles  # every edit patched
    assert session.pag.csr_patches == 12


def main(argv):
    seeds = int(argv[1]) if len(argv) > 1 else 50
    start = int(argv[2]) if len(argv) > 2 else 0
    for seed in range(start, start + seeds):
        run_case(seed)
        print(f"seed {seed}: ok", flush=True)
    print(
        f"edit fuzzer: seeds {start}..{start + seeds - 1} "
        f"x {EDITS_PER_CASE} edits passed"
    )


if __name__ == "__main__":
    main(sys.argv)
