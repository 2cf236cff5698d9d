"""Incremental re-analysis under program edits — the IDE/JIT scenario.

The paper motivates DYNSUM for "environments such as JIT compilers and
IDEs ... especially when the program undergoes constantly a lot of
changes" (Sections 1, 5.3, 7).  This module supplies the host-side glue
that scenario needs: an :class:`IncrementalAnalysisSession` owns a
program, its Andersen fixpoint, its PAG and a DYNSUM instance, and
accepts method-body edits.  An edit costs O(edited method), not
O(program): the fixpoint, the PAG (node objects and edge dicts) and the
summary store all survive it.  Only these are touched:

* the edited method's constraints, edges and summaries;
* the edges the solver's delta changes (call sites that gained targets,
  methods that became reachable, callers of a method whose returns
  changed);
* the summaries of methods whose boundary surface changed.

Correctness rests on three observations:

1. PPTA summaries are *method-local*: every node and object a summary
   mentions belongs to the method of its key (a tested invariant), so a
   summary survives any edit that leaves its method's body unchanged;
2. node objects survive the edit — the PAG is patched in place
   (:meth:`~repro.pag.graph.PAG.replace_method_edges`), so a surviving
   summary needs no re-anchoring at all;
3. a summary's *boundary surface* — which of its method's nodes carry
   global edges, and in which direction — depends on the rest of the
   program (an edit elsewhere can add the first call into a method).
   Summaries of methods whose surface changed are invalidated too, since
   their recorded boundary tuples could otherwise miss new crossings.
   Only methods owning an endpoint of an added or removed global edge
   can change surface, so only those are re-examined.

Two kinds of edit fall back to a full solve, still on the same PAG and
store (:attr:`EditReport.rebuilt`): one that adds or removes a call
statement (``Program.finalize`` numbers call sites program-wide, so
later sites shift), and one that costs the call graph an edge.  Either
way the patched PAG equals a fresh :func:`~repro.pag.builder.build_pag`
— the same edge dicts in the same order, hence the same
``pag_fingerprint`` — and answers equal a cold start's (a fuzzed
property), only cheaper.  The CSR image the traversals read is patched
rather than re-lowered (:func:`~repro.pag.csr.patch_csr`): it equals a
fresh compile's up to node numbering, and its surviving node indices
let the native kernel keep its graph and summary mirror across the
edit; a full solve compiles it afresh.  A failed edit (the callback or
the update raises) restores the method body and leaves everything else
as it was.
"""

from repro.analysis.base import AnalysisConfig
from repro.analysis.dynsum import DynSum
from repro.callgraph.andersen import AndersenAnalysis, method_constraints
from repro.ir.builder import MethodBuilder
from repro.pag.builder import build_pag, rebuild_edges, regenerate_edges
from repro.pag.edges import GLOBAL_EDGE_KINDS
from repro.util.errors import IRError


class EditReport:
    """What one edit cost: which methods lost summaries and why.

    ``dropped`` counts the summaries the edit invalidated and
    ``migrated`` those still resident after it, so ``migrated +
    dropped`` equals the store's entry count before the edit.
    ``rebuilt`` is true when the edit fell back to a full solve.
    """

    __slots__ = ("edited", "surface_changed", "dropped", "migrated", "rebuilt")

    def __init__(self, edited, surface_changed, dropped, migrated, rebuilt=False):
        self.edited = tuple(edited)
        self.surface_changed = tuple(surface_changed)
        self.dropped = dropped
        self.migrated = migrated
        self.rebuilt = rebuilt

    def __repr__(self):
        return (
            f"EditReport(edited={list(self.edited)}, "
            f"surface_changed={list(self.surface_changed)}, "
            f"dropped={self.dropped}, migrated={self.migrated}, "
            f"rebuilt={self.rebuilt})"
        )


class IncrementalAnalysisSession:
    """A long-lived DYNSUM host that survives program edits.

    Usage::

        session = IncrementalAnalysisSession(program)
        session.points_to_name("Main.main", "x")

        def new_body(m):             # m is a MethodBuilder
            m.alloc("t", "Thing").ret("t")

        report = session.replace_body("Factory.create", new_body)
        session.points_to_name("Main.main", "x")   # summaries reused
    """

    def __init__(self, program, config=None, cache=None):
        if not program.is_finalized:
            raise IRError("program must be finalized")
        self.program = program
        self.config = config or AnalysisConfig()
        self.pag = build_pag(program)
        #: The Andersen fixpoint edits patch: solved on the first edit
        #: and kept from then on, so a session that never edits does
        #: not hold it.
        self.solver = None
        #: ``cache`` may be any :class:`~repro.analysis.summaries
        #: .SummaryStore` (e.g. a ``BoundedSummaryCache`` for memory-capped
        #: hosts); it lives as long as the session.
        self.analysis = DynSum(self.pag, self.config, cache=cache)
        self._surface = {
            qname: _method_surface(self.pag, qname) for qname in self.pag.methods()
        }
        self.edit_count = 0

    # ------------------------------------------------------------------
    # queries (delegation)
    # ------------------------------------------------------------------
    def points_to(self, var, **kwargs):
        return self.analysis.points_to(var, **kwargs)

    def points_to_name(self, method_qname, var_name, **kwargs):
        return self.analysis.points_to_name(method_qname, var_name, **kwargs)

    @property
    def summary_count(self):
        return self.analysis.summary_count

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def replace_body(self, method_qname, build_fn):
        """Replace ``method_qname``'s statements and re-analyse.

        ``build_fn`` receives a fresh :class:`MethodBuilder` over the
        emptied method and appends the new body.  Returns an
        :class:`EditReport`.
        """

        def rebuild(method):
            method.statements.clear()
            build_fn(MethodBuilder(method))

        return self._edit(method_qname, rebuild)

    def edit(self, method_qname, mutate_fn):
        """Arbitrary in-place mutation of a method (``mutate_fn(method)``),
        followed by re-analysis."""
        return self._edit(method_qname, mutate_fn)

    def _edit(self, method_qname, mutate):
        """Apply ``mutate`` to the method and update the analysis state.
        On any exception the body is restored and the PAG, the solver,
        the store and ``edit_count`` are left as they were."""
        method = self.program.lookup_method(method_qname)
        if self.solver is None:
            self.solver = AndersenAnalysis(self.program)
            self.solver.solve()
            self.pag.call_graph = self.solver.call_graph  # an equal graph
        body = [_copy_statement(stmt) for stmt in method.statements]
        touched = False
        try:
            mutate(method)
            renumbered = self.program.refinalize(method)
            if not renumbered:
                self.program.finalize()
            method_constraints(method)  # rejects unknown statements first
            touched = True
            report = self._update(method_qname, not renumbered)
        except BaseException:
            method.statements[:] = body
            self.program.finalize()
            if touched:
                self._resolve()
            raise
        self.edit_count += 1
        return report

    def _resolve(self):
        """Solve afresh and re-derive every edge on the kept PAG."""
        self.solver = AndersenAnalysis(self.program)
        self.solver.solve()
        rebuild_edges(self.pag, self.solver.call_graph)

    def _update(self, qname, calls_changed):
        pag = self.pag
        delta = None if calls_changed else self.solver.update(qname)
        if delta is None:
            self._resolve()
            examine = set(self._surface) | set(pag.methods())
        else:
            call_graph = self.solver.call_graph
            regenerate = set(delta.methods)
            regenerate.update(call_graph.caller_of_site(site) for site in delta.sites)
            if delta.returns_changed:
                regenerate.update(
                    call_graph.caller_of_site(site)
                    for site in call_graph.call_sites_into(qname)
                )
            if call_graph.is_reachable(qname):
                regenerate.add(qname)
            removed, added = (
                regenerate_edges(pag, sorted(regenerate)) if regenerate else ([], [])
            )
            examine = set(delta.methods)
            for sig in removed + added:
                if sig[0] in GLOBAL_EDGE_KINDS:
                    examine.update((sig[1].method, sig[-1].method))
            examine.discard(None)
        surface_changed = set()
        for method in examine:
            surface = _method_surface(pag, method)
            if surface != self._surface.get(method, frozenset()):
                if method != qname:
                    surface_changed.add(method)
                if surface:
                    self._surface[method] = surface
                else:
                    self._surface.pop(method, None)
        # Invalidate *through* the store: each invalidation bumps the
        # method's consistency epoch, and a backend shared beyond this
        # process (repro.cacheserver's remote store) tells the owning
        # shard, so other clients stop fetching pre-edit summaries.
        cache = self.analysis.cache
        dropped = sum(
            cache.invalidate_method(method) for method in sorted(surface_changed | {qname})
        )
        # Re-bind: a remote store re-fingerprints the edited PAG and
        # fetches everything again; local stores ignore it.
        cache.bind_pag(pag)
        return EditReport(
            [qname], sorted(surface_changed), dropped, len(cache), rebuilt=delta is None
        )


def _method_surface(pag, qname):
    """Which of ``qname``'s locals touch global edges, by name."""
    return frozenset(
        (node.name, pag.has_global_in(node), pag.has_global_out(node))
        for node in pag.nodes_of_method(qname)
        if node.is_local_var
    )


#: Statement class -> its slot names, for :func:`_copy_statement`.
_SLOTS = {}


def _copy_statement(stmt):
    """A detached copy of ``stmt`` (its ``args`` list included), for
    restoring a body after a failed edit."""
    cls = type(stmt)
    slots = _SLOTS.get(cls)
    if slots is None:
        slots = _SLOTS[cls] = [
            name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())
        ]
    clone = cls.__new__(cls)
    for name in slots:
        value = getattr(stmt, name, _UNSET)
        if value is not _UNSET:
            setattr(clone, name, list(value) if type(value) is list else value)
    state = getattr(stmt, "__dict__", None)
    if state:
        clone.__dict__.update(state)
    return clone


_UNSET = object()
