"""Tests for the CallGraph structure, SCCs and the RTA baseline."""

import pytest

from repro.callgraph.andersen import AndersenAnalysis
from repro.callgraph.cha import rta_call_graph
from repro.callgraph.graph import CallGraph
from repro.ir.parser import parse_program

from tests.conftest import (
    EXAMPLE_PROGRAMS,
    FIGURE2_SOURCE,
    RECURSION_SOURCE,
    TWO_CALLS_SOURCE,
)


class TestCallGraphStructure:
    def test_add_edge_marks_reachable(self):
        cg = CallGraph("Main.main")
        assert cg.add_edge(1, "Main.main", "A.m")
        assert cg.is_reachable("Main.main")
        assert cg.is_reachable("A.m")

    def test_duplicate_edge_returns_false(self):
        cg = CallGraph("Main.main")
        cg.add_edge(1, "Main.main", "A.m")
        assert not cg.add_edge(1, "Main.main", "A.m")

    def test_targets_and_callers(self):
        cg = CallGraph("Main.main")
        cg.add_edge(1, "Main.main", "A.m")
        cg.add_edge(1, "Main.main", "B.m")
        assert cg.targets(1) == {"A.m", "B.m"}
        assert cg.call_sites_into("A.m") == {1}
        assert cg.caller_of_site(1) == "Main.main"

    def test_edges_deterministic_order(self):
        cg = CallGraph("Main.main")
        cg.add_edge(2, "Main.main", "B.m")
        cg.add_edge(1, "Main.main", "A.m")
        assert [e[0] for e in cg.edges()] == [1, 2]

    def test_method_successors(self):
        cg = CallGraph("Main.main")
        cg.add_edge(1, "Main.main", "A.m")
        cg.add_edge(2, "A.m", "B.m")
        assert cg.method_successors("Main.main") == {"A.m"}
        assert cg.method_successors("A.m") == {"B.m"}


class TestSccCollapse:
    def test_self_call_is_recursive(self):
        cg = CallGraph("Main.main")
        cg.add_edge(1, "Main.main", "Rec.spin")
        cg.add_edge(2, "Rec.spin", "Rec.spin")
        assert 2 in cg.recursive_sites
        assert 1 not in cg.recursive_sites

    def test_mutual_recursion_detected(self):
        cg = CallGraph("Main.main")
        cg.add_edge(1, "Main.main", "A.f")
        cg.add_edge(2, "A.f", "B.g")
        cg.add_edge(3, "B.g", "A.f")
        assert cg.recursive_sites == {2, 3}
        assert cg.scc_of("A.f") == cg.scc_of("B.g")
        assert cg.scc_of("Main.main") != cg.scc_of("A.f")

    def test_acyclic_graph_has_no_recursive_sites(self):
        cg = CallGraph("Main.main")
        cg.add_edge(1, "Main.main", "A.f")
        cg.add_edge(2, "A.f", "B.g")
        assert cg.recursive_sites == set()

    def test_long_cycle(self):
        cg = CallGraph("M.m")
        names = ["A.a", "B.b", "C.c", "D.d"]
        cg.add_edge(0, "M.m", names[0])
        for index, name in enumerate(names):
            nxt = names[(index + 1) % len(names)]
            cg.add_edge(index + 1, name, nxt)
        assert len({cg.scc_of(n) for n in names}) == 1
        assert cg.recursive_sites == {1, 2, 3, 4}

    def test_deep_chain_no_recursion_blowup(self):
        # Iterative Tarjan must handle deep chains without recursion errors.
        cg = CallGraph("M.m0")
        for index in range(3000):
            cg.add_edge(index, f"M.m{index}", f"M.m{index + 1}")
        assert cg.recursive_sites == set()

    def test_from_real_program(self):
        program = parse_program(RECURSION_SOURCE)
        cg = AndersenAnalysis(program).solve().call_graph
        (recursive_site,) = cg.recursive_sites
        caller = cg.caller_of_site(recursive_site)
        assert caller == "Rec.spin"


class TestRta:
    def test_rta_covers_andersen(self):
        """RTA's call graph over-approximates the Andersen one."""
        for source in (FIGURE2_SOURCE, TWO_CALLS_SOURCE, RECURSION_SOURCE):
            program = parse_program(source)
            precise = AndersenAnalysis(program).solve().call_graph
            coarse = rta_call_graph(program)
            precise_edges = set(precise.edges())
            coarse_edges = set(coarse.edges())
            assert precise_edges <= coarse_edges
            assert precise.reachable_methods <= coarse.reachable_methods

    def test_rta_merges_same_selector(self):
        """RTA links every instantiated class understanding the name;
        Andersen only the receiver's classes."""
        program = parse_program(
            """
            class A { method m() { return this; } }
            class B { method m() { return this; } }
            class Main {
              static method main() {
                a = new A;
                b = new B;
                x = a.m();
              }
            }
            """
        )
        coarse = rta_call_graph(program)
        precise = AndersenAnalysis(program).solve().call_graph
        site = next(iter(coarse.edges()))[0]
        assert coarse.targets(site) == {"A.m", "B.m"}
        assert precise.targets(site) == {"A.m"}

    def test_rta_requires_instantiation(self):
        """A class never instantiated does not receive call edges."""
        program = parse_program(
            """
            class A { method m() { return this; } }
            class Ghost { method m() { return this; } }
            class Main {
              static method main() {
                a = new A;
                x = a.m();
              }
            }
            """
        )
        coarse = rta_call_graph(program)
        assert not coarse.is_reachable("Ghost.m")

    def test_rta_late_instantiation_links_earlier_call(self):
        """A class instantiated in a method discovered after the call
        site still gets linked (the RTA fixpoint)."""
        program = parse_program(
            """
            class A { method m() { return this; } }
            class Maker { static method mk() { a = new A; return a; } }
            class Main {
              static method main() {
                x = ghost.m();
                y = Maker::mk();
              }
            }
            """,
            validate=True,
        )
        coarse = rta_call_graph(program)
        assert coarse.is_reachable("A.m")

    def test_rta_pag_usable_by_analyses(self):
        """PAGs built over the RTA call graph stay sound (supersets)."""
        from repro import NoRefine, build_pag

        program = parse_program(FIGURE2_SOURCE)
        precise_pag = build_pag(program)
        coarse_pag = build_pag(program, call_graph=rta_call_graph(program))
        nr_precise = NoRefine(precise_pag).points_to_name("Main.main", "s1")
        nr_coarse = NoRefine(coarse_pag).points_to_name("Main.main", "s1")
        precise_ids = {o.object_id for o in nr_precise.objects}
        coarse_ids = {o.object_id for o in nr_coarse.objects}
        assert precise_ids <= coarse_ids


# ----------------------------------------------------------------------
# SCCs against a brute-force reachability oracle
# ----------------------------------------------------------------------
def _oracle(cg):
    """``(recursive sites, same-SCC relation)`` by brute force: a site
    is recursive when its caller is reachable from one of its callees
    (a self-call included); two methods share an SCC when each reaches
    the other."""
    succ = {m: set() for m in cg.reachable_methods}
    for _site, caller, callee in cg.edges():
        succ[caller].add(callee)

    def reach(start):
        seen, stack = set(), list(succ.get(start, ()))
        while stack:
            m = stack.pop()
            if m not in seen:
                seen.add(m)
                stack.extend(succ.get(m, ()))
        return seen

    closure = {m: reach(m) for m in succ}
    recursive = {
        site for site, caller, callee in cg.edges()
        if callee == caller or caller in closure[callee]
    }
    same = {
        (a, b) for a in succ for b in succ
        if a == b or (b in closure[a] and a in closure[b])
    }
    return recursive, same


def _assert_sccs_match_oracle(cg):
    recursive, same = _oracle(cg)
    assert cg.recursive_sites == recursive
    methods = sorted(cg.reachable_methods)
    for a in methods:
        for b in methods:
            assert (cg.scc_of(a) == cg.scc_of(b)) == ((a, b) in same), (a, b)


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_sccs_match_oracle_on_examples(name):
    program = parse_program(EXAMPLE_PROGRAMS[name])
    _assert_sccs_match_oracle(AndersenAnalysis(program).solve().call_graph)


def test_sccs_match_oracle_on_deep_recursion():
    from repro.bench.generator import generate_program
    from repro.perf.harness import STRESS_WORKLOADS

    config = dict(STRESS_WORKLOADS)["gen-recursion"]
    call_graph = AndersenAnalysis(generate_program(config)).solve().call_graph
    assert call_graph.recursive_sites
    _assert_sccs_match_oracle(call_graph)


@pytest.mark.parametrize("seed", range(8))
def test_sccs_match_oracle_on_random_graphs(seed):
    import random

    rng = random.Random(seed)
    methods = [f"M.m{i}" for i in range(rng.randint(3, 14))]
    cg = CallGraph(methods[0])
    cg.add_method(methods[0])
    for site in range(1, rng.randint(2, 40)):
        caller = rng.choice(methods)
        for callee in rng.sample(methods, rng.randint(1, 3)):
            cg.add_edge(site, caller, callee)
    _assert_sccs_match_oracle(cg)
    # Retracting edges keeps the index and the SCCs exact.
    for site, _caller, callee in list(cg.edges())[::3]:
        cg.remove_edge(site, callee)
    _assert_sccs_match_oracle(cg)
