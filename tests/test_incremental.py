"""Tests for the incremental re-analysis session (IDE/JIT scenario)."""

import pytest

from repro import (
    BoundedSummaryCache,
    IncrementalAnalysisSession,
    NoRefine,
    build_pag,
    parse_program,
)
from repro.ir.ast import Statement
from repro.ir.builder import MethodBuilder
from repro.pag.csr import pag_fingerprint
from repro.util.errors import IRError

SOURCE = """
class Thing { }
class Other { }
class Gadget { }
class Factory {
  static method create() {
    t = new Thing;
    return t;
  }
}
class Store {
  field item;
  method put(x) { this.item = x; }
  method get() {
    r = this.item;
    return r;
  }
}
class Main {
  static method main() {
    a = Factory::create();
    s = new Store;
    s.put(a);
    out = s.get();
    unrelated = new Other;
    copy = unrelated;
  }
}
"""


def classes(result):
    return sorted(obj.class_name for obj in result.objects)


@pytest.fixture()
def session():
    return IncrementalAnalysisSession(parse_program(SOURCE))


class TestBasics:
    def test_initial_queries(self, session):
        assert classes(session.points_to_name("Main.main", "out")) == ["Thing"]
        assert classes(session.points_to_name("Main.main", "copy")) == ["Other"]

    def test_summary_count_exposed(self, session):
        session.points_to_name("Main.main", "out")
        assert session.summary_count > 0


class TestEdits:
    def test_edit_changes_answers(self, session):
        assert classes(session.points_to_name("Main.main", "out")) == ["Thing"]

        def new_body(m):
            m.alloc("g", "Gadget").ret("g")

        report = session.replace_body("Factory.create", new_body)
        assert "Factory.create" in report.edited
        assert classes(session.points_to_name("Main.main", "out")) == ["Gadget"]

    def test_edit_matches_cold_start(self, session):
        session.points_to_name("Main.main", "out")

        def new_body(m):
            m.alloc("g", "Gadget").ret("g")

        session.replace_body("Factory.create", new_body)
        # Cold-start reference on the edited program.
        cold = NoRefine(build_pag(session.program))
        for var in ("out", "a", "copy", "unrelated"):
            warm = session.points_to_name("Main.main", var)
            reference = cold.points_to_name("Main.main", var)
            # ObjectNodes from different PAG builds compare by identity;
            # the stable labels are the comparison currency.
            assert {o.object_id for o in warm.objects} == {
                o.object_id for o in reference.objects
            }, var

    def test_unrelated_summaries_migrate(self, session):
        # Warm the cache with queries through Store and the unrelated copy.
        session.points_to_name("Main.main", "out")
        session.points_to_name("Main.main", "copy")

        def new_body(m):
            m.alloc("g", "Gadget").ret("g")

        report = session.replace_body("Factory.create", new_body)
        assert report.migrated > 0  # Store/Main summaries survive

    def test_noop_edit_drops_only_edited_method(self, session):
        session.points_to_name("Main.main", "out")

        report = session.edit("Store.get", lambda method: None)
        assert report.edited == ("Store.get",)
        assert report.surface_changed == ()
        assert classes(session.points_to_name("Main.main", "out")) == ["Thing"]

    def test_surface_change_invalidates_dependents(self, session):
        """An edit in Main that starts *capturing* Helper.idn's return
        value gives idn's return variable its first outgoing global
        (exit) edge — a boundary-surface change in un-edited Helper, so
        Helper's summaries must be dropped, not migrated."""
        source = """
        class Thing { }
        class Helper {
          method idn(x) {
            y = x;
            return y;
          }
        }
        class Main {
          static method main() {
            h = new Helper;
            t = new Thing;
            h.idn(t);
          }
        }
        """
        session = IncrementalAnalysisSession(parse_program(source))
        # Warm Helper.idn's summaries: before the edit, `y` has no
        # outgoing global edge (the call result is discarded).
        session.points_to_name("Helper.idn", "y")

        def new_main(m):
            m.alloc("h", "Helper")
            m.alloc("t", "Thing")
            m.vcall("h", "idn", args=["t"], target="out")

        report = session.replace_body("Main.main", new_main)
        assert "Helper.idn" in report.surface_changed
        # And the post-edit answers see the captured flow:
        assert classes(session.points_to_name("Main.main", "out")) == ["Thing"]
        assert classes(session.points_to_name("Helper.idn", "y")) == ["Thing"]

    def test_repeated_edits(self, session):
        def body_gadget(m):
            m.alloc("g", "Gadget").ret("g")

        def body_other(m):
            m.alloc("o", "Other").ret("o")

        session.replace_body("Factory.create", body_gadget)
        assert classes(session.points_to_name("Main.main", "out")) == ["Gadget"]
        session.replace_body("Factory.create", body_other)
        assert classes(session.points_to_name("Main.main", "out")) == ["Other"]
        assert session.edit_count == 2

    def test_edit_report_repr(self, session):
        report = session.edit("Store.get", lambda m: None)
        assert "Store.get" in repr(report)


class TestObjectIdStability:
    def test_ids_are_method_scoped(self, session):
        ids = [stmt.object_id for _m, stmt in session.program.allocations()]
        assert all("@" in object_id for object_id in ids)

    def test_edit_does_not_renumber_other_methods(self, session):
        before = {
            stmt.object_id
            for method, stmt in session.program.allocations()
            if method.qualified_name != "Factory.create"
        }
        session.replace_body("Factory.create", lambda m: m.alloc("g", "Gadget").ret("g"))
        after = {
            stmt.object_id
            for method, stmt in session.program.allocations()
            if method.qualified_name != "Factory.create"
        }
        assert before == after


class TestInPlaceEdits:
    def test_edit_keeps_the_pag_and_its_nodes(self, session):
        pag = session.pag
        out = pag.find_local("Main.main", "out")
        report = session.replace_body(
            "Factory.create", lambda m: m.alloc("g", "Gadget").ret("g")
        )
        assert not report.rebuilt
        assert session.pag is pag
        assert pag.find_local("Main.main", "out") is out
        fresh = build_pag(session.program)
        assert pag_fingerprint(pag) == pag_fingerprint(fresh)

    def test_adding_a_call_falls_back_to_a_full_solve(self, session):
        session.points_to_name("Main.main", "out")
        pag = session.pag
        report = session.edit(
            "Main.main", lambda m: MethodBuilder(m).scall("Factory", "create", target="extra")
        )
        assert report.rebuilt
        assert session.pag is pag
        assert classes(session.points_to_name("Main.main", "extra")) == ["Thing"]
        assert pag_fingerprint(pag) == pag_fingerprint(build_pag(session.program))


class TestFailedEdits:
    """A failed edit restores the body and leaves the PAG, the solver,
    the store and ``edit_count`` as they were."""

    def _state(self, session):
        return (
            session.edit_count,
            pag_fingerprint(session.pag),
            [key for key, _ in session.analysis.cache.entries()],
        )

    def test_raising_callback_leaves_the_session_unchanged(self, session):
        assert classes(session.points_to_name("Main.main", "out")) == ["Thing"]
        body = [repr(stmt) for stmt in session.program.lookup_method("Factory.create").statements]
        before = self._state(session)

        def broken(m):
            m.alloc("g", "Gadget")
            raise RuntimeError("editor crashed")

        with pytest.raises(RuntimeError):
            session.replace_body("Factory.create", broken)
        method = session.program.lookup_method("Factory.create")
        assert [repr(stmt) for stmt in method.statements] == body
        assert self._state(session) == before
        session.edit("Main.main", lambda m: None)
        assert classes(session.points_to_name("Main.main", "out")) == ["Thing"]

    def test_rejected_statement_leaves_the_session_unchanged(self, session):
        session.points_to_name("Main.main", "out")
        before = self._state(session)

        class Bogus(Statement):
            kind = "bogus"

        with pytest.raises(IRError, match="bogus"):
            session.edit("Store.get", lambda m: m.statements.append(Bogus()))
        assert all(s.kind != "bogus" for s in session.program.lookup_method("Store.get").statements)
        assert self._state(session) == before
        report = session.replace_body(
            "Factory.create", lambda m: m.alloc("g", "Gadget").ret("g")
        )
        assert session.edit_count == 1 and not report.rebuilt
        assert classes(session.points_to_name("Main.main", "out")) == ["Gadget"]


STORES = {
    "unbounded": lambda: None,
    "bounded": lambda: BoundedSummaryCache(max_entries=64),
    "facts-bounded": lambda: BoundedSummaryCache(max_facts=256),
}


class TestStoreAcrossEdits:
    """The live store outlives an edit: only the edited and
    surface-changed methods lose entries."""

    def _warm(self, cache):
        session = IncrementalAnalysisSession(parse_program(SOURCE), cache=cache)
        for var in ("out", "copy", "a"):
            session.points_to_name("Main.main", var)
        session.points_to_name("Store.get", "r")
        session.points_to_name("Factory.create", "t")
        return session

    @staticmethod
    def _edit(session):
        return session.replace_body(
            "Factory.create", lambda m: m.alloc("t", "Thing").ret("t")
        )

    @pytest.mark.parametrize("store", sorted(STORES))
    def test_migrated_plus_dropped_is_the_pre_edit_count(self, store):
        session = self._warm(STORES[store]())
        before = len(session.analysis.cache)
        report = self._edit(session)
        assert report.dropped > 0 and report.migrated > 0
        assert report.migrated + report.dropped == before
        assert report.migrated == len(session.analysis.cache)

    def test_bounded_store_keeps_survivors_and_their_recency(self):
        session = self._warm(BoundedSummaryCache(max_entries=64))
        cache = session.analysis.cache
        survivors = [
            (key, summary)
            for key, summary in cache.entries_by_recency(hottest_first=True)
            if key[0].method != "Factory.create"
        ]
        self._edit(session)
        assert session.analysis.cache is cache
        after = list(cache.entries_by_recency(hottest_first=True))
        assert [key for key, _ in after] == [key for key, _ in survivors]
        assert all(a is b for (_, a), (_, b) in zip(after, survivors))
        assert cache.method_epoch("Factory.create") == 1
