"""REFINEPTS — Sridharan & Bodík's refinement-based analysis (Algorithms 1–2).

The analysis begins **field-based**: every load edge is assumed to match
every store edge of the same field, via an artificial *match edge* from
the load's target straight to each stored value, skipping the whole alias
computation (and clearing the RRP context, Algorithm 1 line 17).  Each
match edge consumed is recorded in ``fldsSeen``.

If the client is not satisfied by the resulting (over-approximate)
points-to set, every load edge seen field-based is promoted into
``fldsToRefine`` and the query re-runs, now treating those loads
field-sensitively — pushing the field and performing the full
``pointsTo``/``alias``-RSM search.  The loop ends when the client is
satisfied, no unrefined edge was encountered (the answer is now exact),
or the shared query budget runs out.

Iterations share one budget (Section 5.2's 75,000-step cap is per
*query*), which is what makes precision-hungry clients expensive: every
field-based iteration that fails to satisfy the client is pure overhead —
the paper's explanation for NullDeref's large DYNSUM speedups.

State is kept only within a query (Table 2: "Dynamic (within queries)",
context-dependent): the per-iteration ``seen`` set dedupes traversal
states, and nothing survives the query.
"""

from collections import deque

from repro.analysis.base import (
    DemandPointsToAnalysis,
    QueryResult,
    UNREALIZABLE,
    check_query_node,
    cross_entry_backward,
    cross_entry_forward,
    cross_exit_backward,
    cross_exit_forward,
)
from repro.cfl.rsm import FAM_LOAD, S1, S2
from repro.cfl.stacks import EMPTY_STACK
from repro.pag.graph import EMPTY_ADJACENCY
from repro.util.errors import BudgetExceededError


class RefinePts(DemandPointsToAnalysis):
    """Refinement-based demand analysis with match edges."""

    name = "REFINEPTS"
    full_precision = True
    memoization = "dynamic-within"
    reuse = "context-dependent"
    on_demand = "yes"
    #: The client predicate ends the refinement loop early, so the result
    #: genuinely depends on it (satisfied queries return the coarser,
    #: still-sufficient set) — batch dedup must key on the predicate.
    uses_client_predicate = True

    def _run_query(self, var, context, client):
        check_query_node(self.pag, var)
        budget = self.config.new_budget()
        refined = set()
        iterations = 0
        pairs = set()
        complete = True
        satisfied = False

        while True:
            iterations += 1
            pairs = set()
            flds_seen = set()
            try:
                self._explore(var, context, pairs, budget, refined, flds_seen)
            except BudgetExceededError:
                complete = False
                break
            if client is not None and client(frozenset(obj for obj, _ in pairs)):
                satisfied = True
                break
            if not flds_seen:
                break  # fully refined along every encountered path
            refined |= flds_seen

        stats = {
            "iterations": iterations,
            "refined_edges": len(refined),
            "satisfied_early": satisfied,
        }
        return QueryResult(var, pairs, complete, budget.steps, stats)

    # ------------------------------------------------------------------
    # one refinement iteration (Algorithm 1, flattened)
    # ------------------------------------------------------------------
    def _explore(self, var, context, pairs, budget, refined, flds_seen):
        # Per-node adjacency records, one dict lookup per popped state —
        # the field-indexed match-edge views stay on the PAG (they are
        # keyed by field, not by node).
        get_record = self.pag.adjacency().get
        empty_record = EMPTY_ADJACENCY
        depth_limit = self.config.max_field_depth
        # Fields with at least one refined load: stores of these fields
        # take part in the full alias search.
        refined_fields = {edge[1] for edge in refined}
        start = (var, EMPTY_STACK, S1, context)
        seen = {start}
        worklist = deque([start])

        def propagate(node, fstack, state, ctx):
            item = (node, fstack, state, ctx)
            if item not in seen:
                seen.add(item)
                worklist.append(item)

        while worklist:
            v, f, s, c = worklist.popleft()
            budget.charge()
            rec = get_record(v)
            if rec is None:
                rec = empty_record
            if s == S1:
                self._expand_s1(
                    rec, v, f, c, pairs, propagate, refined, flds_seen,
                    depth_limit, budget
                )
            else:
                self._expand_s2(
                    rec,
                    v,
                    f,
                    c,
                    propagate,
                    refined,
                    refined_fields,
                    flds_seen,
                    depth_limit,
                    budget,
                )

    def _check_depth(self, fstack, limit, budget):
        if limit is not None and len(fstack) >= limit:
            raise BudgetExceededError(budget.limit)

    def _expand_s1(
        self, rec, v, f, c, pairs, propagate, refined, flds_seen, depth_limit, budget
    ):
        pag = self.pag
        new_sources = rec.new_sources
        if new_sources:
            if f.is_empty:
                ctx = self._finish_context(c)
                pairs.update((obj, ctx) for obj in new_sources)
            else:
                propagate(v, f, S2, c)
        for x in rec.assign_sources:
            propagate(x, f, S1, c)
        for base, g, token in rec.load_into:
            edge = (base, g, v)
            if edge in refined:
                self._check_depth(f, depth_limit, budget)
                propagate(base, f.push(token), S1, c)
            else:
                # Field-based: jump across the match edge to every value
                # stored to g anywhere, clearing the context (Alg. 1 l.17).
                flds_seen.add(edge)
                for value, _store_base in pag.stores_of_field(g):
                    propagate(value, f, S1, EMPTY_STACK)
        for retvar, site in rec.exit_into:
            propagate(retvar, f, S1, cross_exit_backward(pag, c, site))
        for actual, site in rec.entry_into:
            ctx = cross_entry_backward(pag, c, site)
            if ctx is not UNREALIZABLE:
                propagate(actual, f, S1, ctx)
        for x in rec.global_sources:
            propagate(x, f, S1, EMPTY_STACK)

    def _expand_s2(
        self,
        rec,
        v,
        f,
        c,
        propagate,
        refined,
        refined_fields,
        flds_seen,
        depth_limit,
        budget,
    ):
        pag = self.pag
        for x in rec.assign_targets:
            propagate(x, f, S2, c)
        top = f.peek()
        if top is not None:
            top_field = top[0]
            for g, x in rec.load_from:
                # Only refined loads participate in the field-sensitive
                # forward match; unrefined ones are covered by match edges.
                if g == top_field and (v, g, x) in refined:
                    propagate(x, f.pop(), S2, c)
            if top[1] == FAM_LOAD:
                for x, g in rec.store_into:
                    if g == top_field:  # store-bar closes family A only
                        propagate(x, f.pop(), S1, c)
        for g, b, token in rec.store_from:
            if g in refined_fields:
                self._check_depth(f, depth_limit, budget)
                propagate(b, f.push(token), S1, c)
            for lbase, ltarget in pag.loads_of_field(g):
                edge = (lbase, g, ltarget)
                if edge not in refined:
                    # Forward across the match edge: the tracked object
                    # reaches every unrefined load of g, context cleared.
                    flds_seen.add(edge)
                    propagate(ltarget, f, S2, EMPTY_STACK)
        for site, formal in rec.entry_from:
            propagate(formal, f, S2, cross_entry_forward(pag, c, site))
        for site, target in rec.exit_from:
            ctx = cross_exit_forward(pag, c, site)
            if ctx is not UNREALIZABLE:
                propagate(target, f, S2, ctx)
        for x in rec.global_targets:
            propagate(x, f, S2, EMPTY_STACK)
