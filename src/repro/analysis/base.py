"""Shared infrastructure for the demand-driven analyses.

Defines the analysis configuration, the query-result type, the abstract
base class with the Table 2 capability attributes, and the RRP context
operations used when a traversal crosses a global edge.

Context-stack conventions (the RRP language, Figure 3b)
-------------------------------------------------------
Traversing **backward** (state S1): crossing an ``exit_i`` edge descends
into the callee — push ``i``; crossing an ``entry_i`` edge returns to the
caller — pop, where an empty stack matches anything (partially balanced
paths, Algorithm 1 line 11); crossing ``assignglobal`` clears the context
(globals are context-insensitive).  Traversing **forward** (state S2) the
roles swap: ``entry_i`` pushes, ``exit_i`` pops-or-empty, ``assignglobal``
clears.  Call sites marked recursive on the PAG are crossed without
touching the context (SCC collapse, Section 5.1).
"""

import threading

from repro.cfl.budget import DEFAULT_BUDGET, Budget
from repro.cfl.stacks import EMPTY_STACK
from repro.util.errors import IRError

#: Sentinel distinguishing "unrealizable" from "empty context".
UNREALIZABLE = None


class AnalysisConfig:
    """Tunables shared by every analysis.

    Parameters
    ----------
    budget:
        Maximum traversal steps per query (``None`` = unlimited).  The
        paper uses 75,000 (Section 5.2).
    max_field_depth:
        Optional cap on the field-stack depth.  Exceeding it aborts the
        query conservatively (marked incomplete), exactly like budget
        exhaustion; ``None`` leaves the budget as the only safeguard.
    track_heap_contexts:
        When True (default) results pair each object with the calling
        context in which it was reached — the paper's context-sensitive
        heap abstraction.  When False contexts are collapsed to the empty
        stack, halving result sizes for clients that only need objects.
    """

    __slots__ = ("budget", "max_field_depth", "track_heap_contexts")

    def __init__(
        self,
        budget=DEFAULT_BUDGET,
        max_field_depth=None,
        track_heap_contexts=True,
    ):
        self.budget = budget
        self.max_field_depth = max_field_depth
        self.track_heap_contexts = track_heap_contexts

    def new_budget(self):
        return Budget(self.budget)

    def __repr__(self):
        return (
            f"AnalysisConfig(budget={self.budget}, "
            f"max_field_depth={self.max_field_depth}, "
            f"track_heap_contexts={self.track_heap_contexts})"
        )


class QueryResult:
    """Outcome of one points-to query.

    Attributes
    ----------
    query:
        The queried PAG node.
    pairs:
        Frozenset of ``(ObjectNode, context Stack)`` pairs — the paper's
        context-sensitive heap abstraction.
    complete:
        True when the query ran to completion; False when it was
        abandoned (budget or field-depth exhaustion), in which case
        ``pairs`` is a sound-but-partial under-approximation and clients
        must answer conservatively.
    steps:
        Traversal steps consumed.
    stats:
        Analysis-specific counters (e.g. DYNSUM cache hits/misses,
        REFINEPTS refinement iterations).
    """

    __slots__ = ("query", "pairs", "complete", "steps", "stats")

    def __init__(self, query, pairs, complete, steps, stats=None):
        self.query = query
        self.pairs = frozenset(pairs)
        self.complete = complete
        self.steps = steps
        self.stats = dict(stats or {})

    @property
    def objects(self):
        """The objects, with heap contexts projected away."""
        return frozenset(obj for obj, _ctx in self.pairs)

    def __repr__(self):
        status = "complete" if self.complete else "INCOMPLETE"
        return (
            f"QueryResult({self.query!r}, {len(self.objects)} object(s), "
            f"{status}, steps={self.steps})"
        )


class AliasResult:
    """Outcome of a may-alias query.

    ``verdict`` is ``True`` / ``False`` / ``None`` (unknown);
    ``witnesses`` holds the shared objects proving a ``True`` verdict.
    """

    __slots__ = ("var1", "var2", "verdict", "witnesses", "steps")

    def __init__(self, var1, var2, verdict, witnesses, steps):
        self.var1 = var1
        self.var2 = var2
        self.verdict = verdict
        self.witnesses = witnesses
        self.steps = steps

    def __repr__(self):
        return (
            f"AliasResult({self.var1!r}, {self.var2!r}, verdict={self.verdict}, "
            f"{len(self.witnesses)} witness(es))"
        )


class DemandPointsToAnalysis:
    """Abstract base of the four demand analyses.

    Subclasses set the Table 2 capability attributes and implement
    :meth:`_run_query`.  The public entry points are :meth:`points_to`
    (by PAG node) and :meth:`points_to_name` (by method/variable name).
    """

    #: Table 2 row values.
    name = "base"
    full_precision = True
    memoization = "none"  # none | dynamic-within | dynamic-across | static-across
    reuse = "none"  # none | context-dependent | context-independent
    on_demand = "yes"  # yes | partly
    #: Whether ``points_to``'s ``client`` predicate can change the result
    #: (True only for REFINEPTS's refinement loop).  The engine's batch
    #: scheduler consults this when deduplicating queries: predicate-blind
    #: analyses may merge any two queries on the same (node, context).
    uses_client_predicate = False

    def __init__(self, pag, config=None):
        self.pag = pag
        self.config = config or AnalysisConfig()
        #: Cumulative counters across all queries (reset with
        #: :meth:`reset_stats`).  Updates are lock-protected because an
        #: analysis is a public object: a host may call ``points_to``
        #: from threads of its own, and ``+=`` on a shared int is not
        #: atomic under the GIL.
        self.total_steps = 0  # guarded-by: _counter_lock
        self.total_queries = 0  # guarded-by: _counter_lock
        self.incomplete_queries = 0  # guarded-by: _counter_lock
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def points_to(self, var, context=EMPTY_STACK, client=None):
        """Answer ``pointsTo(var, context)``.

        ``client`` is consulted only by analyses that can terminate early
        (REFINEPTS's refinement loop); others ignore it.
        """
        result = self._run_query(var, context, client)
        with self._counter_lock:
            self.total_queries += 1
            self.total_steps += result.steps
            if not result.complete:
                self.incomplete_queries += 1
        return result

    def points_to_name(self, method_qname, var_name, context=EMPTY_STACK, client=None):
        """Convenience wrapper resolving the PAG node by name."""
        node = self.pag.find_local(method_qname, var_name)
        return self.points_to(node, context, client)

    def may_alias(self, var1, var2, context1=EMPTY_STACK, context2=EMPTY_STACK):
        """May-alias query: can the two variables point to one object?

        Following the paper's alias language
        (``x alias y  iff  x flowsToBar o flowsTo y``), two variables may
        alias exactly when their points-to sets share an object.  Returns
        an :class:`AliasResult`: ``True`` (witness object found),
        ``False`` (both queries complete, sets disjoint) or ``None``
        (some query was cut off and no witness appeared — unknown).
        """
        r1 = self.points_to(var1, context1)
        r2 = self.points_to(var2, context2)
        witnesses = r1.objects & r2.objects
        if witnesses:
            verdict = True
        elif r1.complete and r2.complete:
            verdict = False
        else:
            verdict = None
        return AliasResult(
            var1,
            var2,
            verdict,
            frozenset(witnesses),
            r1.steps + r2.steps,
        )

    def reset_stats(self):
        with self._counter_lock:
            self.total_steps = 0
            self.total_queries = 0
            self.incomplete_queries = 0

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    def _run_query(self, var, context, client):
        raise NotImplementedError

    def _finish_context(self, context):
        """Apply the heap-context configuration to a result context."""
        return context if self.config.track_heap_contexts else EMPTY_STACK

    def capabilities(self):
        """The analysis's Table 2 row."""
        return {
            "analysis": self.name,
            "full_precision": self.full_precision,
            "memoization": self.memoization,
            "reuse": self.reuse,
            "on_demand": self.on_demand,
        }

    def __repr__(self):
        return f"{type(self).__name__}({self.pag!r})"


# ----------------------------------------------------------------------
# RRP context operations over global edges
# ----------------------------------------------------------------------
def cross_exit_backward(pag, context, site_id):
    """S1 crossing ``retvar --exit_i--> here`` backward: descend into the
    callee by pushing ``i`` (recursive sites leave the context alone)."""
    if pag.is_recursive_site(site_id):
        return context
    return context.push(site_id)


def cross_entry_backward(pag, context, site_id):
    """S1 crossing ``actual --entry_i--> here`` backward: return to the
    caller — pop when the top matches ``i``; an empty context matches any
    site.  Returns :data:`UNREALIZABLE` for mismatches."""
    if pag.is_recursive_site(site_id):
        return context
    if context.is_empty:
        return context
    if context.peek() == site_id:
        return context.pop()
    return UNREALIZABLE


def cross_entry_forward(pag, context, site_id):
    """S2 crossing ``here --entry_i--> formal`` forward: descend — push."""
    if pag.is_recursive_site(site_id):
        return context
    return context.push(site_id)


def cross_exit_forward(pag, context, site_id):
    """S2 crossing ``here --exit_i--> target`` forward: return — pop with
    the empty context matching any site; ``None`` when unrealizable."""
    if pag.is_recursive_site(site_id):
        return context
    if context.is_empty:
        return context
    if context.peek() == site_id:
        return context.pop()
    return UNREALIZABLE


def check_query_node(pag, var):
    """Validate a query target: must be a variable node of this PAG."""
    if var.is_object:
        raise IRError(f"cannot issue a points-to query for object node {var!r}")
    return var
