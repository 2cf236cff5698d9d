"""Translate a PIR program (plus a call graph) into a PAG.

Only methods reachable in the call graph contribute nodes and edges,
matching Table 3's "reachable parts" accounting.  The call graph may come
from the Andersen substrate (default, most precise) or from RTA.

Call sites whose caller and callee share a call-graph SCC are marked
recursive on the PAG; demand analyses cross their ``entry``/``exit`` edges
without pushing or popping context ("recursion cycles collapsed",
Section 5.1).

After an edit, :func:`regenerate_edges` re-derives the edges of a few
methods in place (the same statement rules, recorded instead of
inserted), and :func:`rebuild_edges` re-derives all of them on the same
PAG; either way the result equals a fresh :func:`build_pag`.
"""

from repro.callgraph.andersen import AndersenAnalysis
from repro.ir.types import ClassHierarchy
from repro.pag.edges import ASSIGN, ASSIGN_GLOBAL, ENTRY, EXIT, LOAD, NEW, STORE
from repro.util.errors import IRError


def build_pag(program, call_graph=None, hierarchy=None):
    """Build the :class:`~repro.pag.graph.PAG` of ``program``.

    When ``call_graph`` is omitted the Andersen analysis is run first and
    its on-the-fly call graph is used (the Spark-style default).
    """
    from repro.pag.graph import PAG

    if not program.is_finalized:
        raise IRError("program must be finalized before building a PAG")
    if call_graph is None:
        call_graph = AndersenAnalysis(program).solve().call_graph
    if hierarchy is None:
        hierarchy = ClassHierarchy(program)

    pag = PAG(program, call_graph, hierarchy)
    _add_program_edges(pag, call_graph, program)
    return pag


def _add_program_edges(pag, call_graph, program):
    reachable = call_graph.reachable_methods

    for method, stmt in program.statements():
        if method.qualified_name not in reachable:
            continue
        _add_statement_edges(pag, call_graph, program, method, stmt)

    for site_id in call_graph.recursive_sites:
        pag.mark_recursive_site(site_id)


def rebuild_edges(pag, call_graph):
    """Re-derive every edge of ``pag`` under ``call_graph`` in place,
    keeping the node objects that survive (an edit the incremental path
    cannot follow).  Equals a fresh :func:`build_pag`."""
    pag.call_graph = call_graph
    pag.clear_edges()
    _add_program_edges(pag, call_graph, pag.program)
    pag.prune_nodes()


def regenerate_edges(pag, methods):
    """Re-derive the edges of ``methods`` (qualified names) in place under
    ``pag.call_graph``; see :meth:`~repro.pag.graph.PAG.replace_method_edges`.
    Returns its ``(removed, added)`` edge signatures."""
    program = pag.program

    def segment_of(qname):
        return method_edges(pag, program.lookup_method(qname))

    segments = {qname: segment_of(qname) for qname in methods}
    result = pag.replace_method_edges(segments, segment_of)
    pag.set_recursive_sites(pag.call_graph.recursive_sites)
    return result


def method_edges(pag, method):
    """The edges ``method``'s statements emit under ``pag.call_graph``,
    as signatures in build order (empty when it is unreachable).  Nodes
    are interned in ``pag``; no edge is inserted."""
    recorder = _EdgeRecorder(pag)
    call_graph = pag.call_graph
    if call_graph.is_reachable(method.qualified_name):
        for stmt in method.statements:
            _add_statement_edges(recorder, call_graph, pag.program, method, stmt)
    return recorder.edges


class _EdgeRecorder:
    """Stands in for the PAG in the statement rules below: nodes are
    interned in the real PAG, edges are recorded as the signatures
    ``PAG._note_edge`` deduplicates on, in emission order."""

    def __init__(self, pag):
        self.local_var = pag.local_var
        self.global_var = pag.global_var
        self.object_node = pag.object_node
        self.edges = []
        self._seen = set()

    def _emit(self, sig):
        if sig not in self._seen:
            self._seen.add(sig)
            self.edges.append(sig)

    def add_new(self, obj, target):
        self._emit((NEW, obj, target))

    def add_assign(self, source, target):
        self._emit((ASSIGN, source, target))

    def add_load(self, base, field, target):
        self._emit((LOAD, base, field, target))

    def add_store(self, value, field, base):
        self._emit((STORE, value, field, base))

    def add_global_assign(self, source, target):
        self._emit((ASSIGN_GLOBAL, source, target))

    def add_entry(self, actual, site_id, formal):
        self._emit((ENTRY, actual, site_id, formal))

    def add_exit(self, retvar, site_id, target):
        self._emit((EXIT, retvar, site_id, target))


def _add_statement_edges(pag, call_graph, program, method, stmt):
    qname = method.qualified_name
    kind = stmt.kind
    if kind in ("alloc", "null"):
        obj = pag.object_node(stmt.object_id, stmt.class_name, qname)
        pag.add_new(obj, pag.local_var(qname, stmt.target))
    elif kind in ("copy", "cast"):
        pag.add_assign(pag.local_var(qname, stmt.source), pag.local_var(qname, stmt.target))
    elif kind == "load":
        pag.add_load(
            pag.local_var(qname, stmt.base), stmt.field, pag.local_var(qname, stmt.target)
        )
    elif kind == "store":
        pag.add_store(
            pag.local_var(qname, stmt.source), stmt.field, pag.local_var(qname, stmt.base)
        )
    elif kind == "staticget":
        pag.add_global_assign(
            pag.global_var(stmt.class_name, stmt.field), pag.local_var(qname, stmt.target)
        )
    elif kind == "staticput":
        pag.add_global_assign(
            pag.local_var(qname, stmt.source), pag.global_var(stmt.class_name, stmt.field)
        )
    elif kind == "call":
        _add_call_edges(pag, call_graph, program, method, stmt)
    elif kind == "return":
        pass  # exit edges are added per call site in _add_call_edges
    else:
        raise IRError(f"unknown statement kind {kind!r}")


def _add_call_edges(pag, call_graph, program, method, call):
    from repro.ir.ast import THIS

    caller = method.qualified_name
    for callee_qname in sorted(call_graph.targets(call.site_id)):
        callee = program.lookup_method(callee_qname)
        if call.is_virtual and not callee.is_static:
            pag.add_entry(
                pag.local_var(caller, call.receiver),
                call.site_id,
                pag.local_var(callee_qname, THIS),
            )
        for actual, formal in zip(call.args, callee.params):
            pag.add_entry(
                pag.local_var(caller, actual),
                call.site_id,
                pag.local_var(callee_qname, formal),
            )
        if call.target is not None:
            for ret in callee.return_statements():
                pag.add_exit(
                    pag.local_var(callee_qname, ret.source),
                    call.site_id,
                    pag.local_var(caller, call.target),
                )
