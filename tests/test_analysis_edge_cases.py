"""Edge-case behaviours shared across the demand analyses.

Covers the corners the main behavioural suites do not: partially
balanced contexts, explicit initial contexts, static/virtual dispatch
mixtures, inheritance dispatch in the PAG, multi-target call sites, and
the interaction of globals with context clearing, and the cumulative
counters under threads a host starts itself.
"""

import threading

import pytest

from repro import ContextInsensitivePta, DynSum, NoRefine, RefinePts, StaSum
from repro.cfl.stacks import EMPTY_STACK

from tests.conftest import make_pag

ALL_ANALYSES = (NoRefine, RefinePts, DynSum, StaSum)


def classes(result):
    return sorted(obj.class_name for obj in result.objects)


class TestPartiallyBalancedContexts:
    SOURCE = """
    class A { }
    class B { }
    class Wrapper {
      method wrap(x) {
        y = x;
        return y;
      }
    }
    class Main {
      static method main() {
        w = new Wrapper;
        a = new A;
        b = new B;
        ra = w.wrap(a);
        rb = w.wrap(b);
      }
    }
    """

    @pytest.mark.parametrize("analysis_cls", ALL_ANALYSES)
    def test_query_at_formal_sees_all_callers(self, analysis_cls):
        """A query starting inside the callee (empty context) must
        consider every caller — realizable paths may start mid-call."""
        pag = make_pag(self.SOURCE)
        result = analysis_cls(pag).points_to_name("Wrapper.wrap", "y")
        assert classes(result) == ["A", "B"]

    @pytest.mark.parametrize("analysis_cls", (NoRefine, DynSum))
    def test_initial_context_pins_the_caller(self, analysis_cls):
        pag = make_pag(self.SOURCE)
        site_of_ra = next(
            sid
            for sid, (_m, stmt) in pag.program.call_sites().items()
            if stmt.target == "ra"
        )
        node = pag.find_local("Wrapper.wrap", "y")
        result = analysis_cls(pag).points_to(node, context=EMPTY_STACK.push(site_of_ra))
        assert classes(result) == ["A"]


class TestDispatch:
    SOURCE = """
    class Base {
      method make() {
        b = new Base;
        return b;
      }
    }
    class Derived extends Base {
      method make() {
        d = new Derived;
        return d;
      }
    }
    class Leaf extends Derived { }
    class Main {
      static method main() {
        l = new Leaf;
        out = l.make();
      }
    }
    """

    @pytest.mark.parametrize("analysis_cls", ALL_ANALYSES)
    def test_inherited_override_dispatch(self, analysis_cls):
        """Leaf inherits Derived.make, not Base.make."""
        pag = make_pag(self.SOURCE)
        result = analysis_cls(pag).points_to_name("Main.main", "out")
        assert classes(result) == ["Derived"]

    def test_multi_target_site_unions(self):
        source = """
        class A { method pick() { a = new A; return a; } }
        class B { method pick() { b = new B; return b; } }
        class Holder { field item; }
        class Main {
          static method main() {
            h = new Holder;
            a = new A;
            b = new B;
            h.item = a;
            h.item = b;
            recv = h.item;
            out = recv.pick();
          }
        }
        """
        pag = make_pag(source)
        for analysis_cls in (NoRefine, DynSum):
            result = analysis_cls(pag).points_to_name("Main.main", "out")
            assert classes(result) == ["A", "B"]


class TestGlobals:
    SOURCE = """
    class A { }
    class B { }
    class Shared {
      static field bus;
      static method publish(x) { Shared::bus = x; }
      static method consume() {
        r = Shared::bus;
        return r;
      }
    }
    class Main {
      static method main() {
        a = new A;
        Shared::publish(a);
        got = Shared::consume();
      }
    }
    """

    @pytest.mark.parametrize("analysis_cls", ALL_ANALYSES)
    def test_flow_through_static_field(self, analysis_cls):
        pag = make_pag(self.SOURCE)
        result = analysis_cls(pag).points_to_name("Main.main", "got")
        assert classes(result) == ["A"]

    @pytest.mark.parametrize("analysis_cls", (NoRefine, DynSum))
    def test_query_on_global_node(self, analysis_cls):
        pag = make_pag(self.SOURCE)
        node = pag.global_var("Shared", "bus")
        result = analysis_cls(pag).points_to(node)
        assert classes(result) == ["A"]


class TestChainsThroughEverything:
    SOURCE = """
    class Payload { }
    class Inner { field deep; }
    class Outer { field inner; }
    class Builder {
      static method assemble() {
        p = new Payload;
        i = new Inner;
        i.deep = p;
        o = new Outer;
        o.inner = i;
        return o;
      }
    }
    class Main {
      static method main() {
        o = Builder::assemble();
        i = o.inner;
        p = i.deep;
      }
    }
    """

    @pytest.mark.parametrize("analysis_cls", ALL_ANALYSES)
    def test_two_level_field_path_across_call(self, analysis_cls):
        pag = make_pag(self.SOURCE)
        result = analysis_cls(pag).points_to_name("Main.main", "p")
        assert classes(result) == ["Payload"]

    @pytest.mark.parametrize("analysis_cls", (NoRefine, RefinePts, DynSum))
    def test_intermediate_level(self, analysis_cls):
        pag = make_pag(self.SOURCE)
        result = analysis_cls(pag).points_to_name("Main.main", "i")
        assert classes(result) == ["Inner"]


class TestDegenerateQueries:
    def test_query_variable_with_no_edges_at_all(self):
        pag = make_pag(
            "class Main { static method main() { a = new Main; b = ghost; } }"
        )
        for analysis_cls in ALL_ANALYSES:
            result = analysis_cls(pag).points_to_name("Main.main", "b")
            assert result.objects == frozenset()
            assert result.complete

    def test_self_copy_terminates(self):
        pag = make_pag(
            "class Main { static method main() { a = new Main; a = a; } }"
        )
        for analysis_cls in ALL_ANALYSES:
            result = analysis_cls(pag).points_to_name("Main.main", "a")
            assert classes(result) == ["Main"]

    def test_store_without_matching_load(self):
        pag = make_pag(
            """
            class Cell { field val; }
            class Main {
              static method main() {
                c = new Cell;
                x = new Main;
                c.val = x;
              }
            }
            """
        )
        for analysis_cls in ALL_ANALYSES:
            result = analysis_cls(pag).points_to_name("Main.main", "x")
            assert classes(result) == ["Main"]

    def test_cipta_matches_on_context_free_program(self):
        """With a single call site per method, context sensitivity buys
        nothing: CI and CS answers coincide."""
        source = """
        class A { }
        class Id { method idn(x) { return x; } }
        class Main {
          static method main() {
            i = new Id;
            a = new A;
            out = i.idn(a);
          }
        }
        """
        pag = make_pag(source)
        ci = ContextInsensitivePta(pag).points_to_name("Main.main", "out")
        cs = NoRefine(pag).points_to_name("Main.main", "out")
        assert ci.objects == cs.objects


class TestHostThreads:
    """An analysis is a public object: a host may call ``points_to``
    from threads of its own, and the cumulative counters stay exact."""

    N_THREADS = 4
    ROUNDS = 25

    def test_counters_stay_exact_under_host_threads(self):
        pag = make_pag(TestChainsThroughEverything.SOURCE)
        nodes = sorted(pag.local_var_nodes(), key=repr)
        reference = NoRefine(pag)  # also compiles the PAG's adjacency
        expected = {node: reference.points_to(node).pairs for node in nodes}
        analysis = NoRefine(pag)
        barrier = threading.Barrier(self.N_THREADS)
        answered = [[] for _ in range(self.N_THREADS)]

        def host_thread(slot):
            barrier.wait()
            for _ in range(self.ROUNDS):
                for node in nodes:
                    answered[slot].append(analysis.points_to(node))

        threads = [
            threading.Thread(target=host_thread, args=(slot,))
            for slot in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = [result for slot in answered for result in slot]
        assert len(results) == self.N_THREADS * self.ROUNDS * len(nodes)
        assert analysis.total_queries == len(results)
        assert analysis.total_steps == sum(result.steps for result in results)
        assert analysis.incomplete_queries == sum(
            not result.complete for result in results
        )
        for result in results:
            assert result.pairs == expected[result.query]
