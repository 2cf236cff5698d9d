"""NOREFINE — field-sensitive, context-sensitive demand analysis, no reuse.

This is the paper's NOREFINE configuration (Table 2): the
Sridharan-Bodík analysis with *neither* refinement *nor* ad-hoc caching.
Every heap access is treated field-sensitively from the start, call
entries/exits are matched context-sensitively, and nothing is remembered
across queries.

The implementation is a worklist over exploded states
``(node, field-stack, S1|S2, context)`` applying the transition table of
DESIGN.md §2 one PAG edge at a time.  A per-query ``seen`` set over full
states guarantees each state is expanded at most once (termination
machinery, not memoization — it holds no results and dies with the
query).
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


class NoRefine(DemandPointsToAnalysis):
    """Fully precise, fully on-demand, zero-reuse baseline."""

    name = "NOREFINE"
    full_precision = True
    memoization = "none"
    reuse = "none"
    on_demand = "yes"

    def _run_query(self, var, context, client):
        check_query_node(self.pag, var)
        budget = self.config.new_budget()
        pairs = set()
        complete = True
        try:
            self._explore(var, context, pairs, budget)
        except BudgetExceededError:
            complete = False
        return QueryResult(var, pairs, complete, budget.steps)

    # ------------------------------------------------------------------
    # the exploded-state worklist
    # ------------------------------------------------------------------
    def _explore(self, var, context, pairs, budget):
        # One precompiled adjacency record per popped state instead of
        # accessor calls.
        get_record = self.pag.adjacency().get
        empty_record = EMPTY_ADJACENCY
        depth_limit = self.config.max_field_depth
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
                self._expand_s1(rec, v, f, c, pairs, propagate, depth_limit, budget)
            else:
                self._expand_s2(rec, v, f, c, propagate, depth_limit, budget)

    def _check_depth(self, fstack, limit, budget):
        if limit is not None and len(fstack) >= limit:
            raise BudgetExceededError(budget.limit)

    def _expand_s1(self, rec, v, f, c, pairs, propagate, depth_limit, budget):
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
        for base, _g, token in rec.load_into:
            self._check_depth(f, depth_limit, budget)
            propagate(base, f.push(token), S1, c)
        for retvar, site in rec.exit_into:
            propagate(retvar, f, S1, cross_exit_backward(pag, c, site))
        for actual, site in rec.entry_into:
            ctx = cross_entry_backward(pag, c, site)
            if ctx is not UNREALIZABLE:
                propagate(actual, f, S1, ctx)
        for x in rec.global_sources:
            propagate(x, f, S1, EMPTY_STACK)

    def _expand_s2(self, rec, v, f, c, propagate, depth_limit, budget):
        pag = self.pag
        for x in rec.assign_targets:
            propagate(x, f, S2, c)
        top = f.peek()
        if top is not None:
            top_field = top[0]
            for g, x in rec.load_from:
                if g == top_field:  # forward load closes either family
                    propagate(x, f.pop(), S2, c)
            if top[1] == FAM_LOAD:
                for x, g in rec.store_into:
                    if g == top_field:  # store-bar closes family A only
                        propagate(x, f.pop(), S1, c)
        for _g, b, token in rec.store_from:
            self._check_depth(f, depth_limit, budget)
            propagate(b, f.push(token), S1, c)
        for site, formal in rec.entry_from:
            propagate(formal, f, S2, cross_entry_forward(pag, c, site))
        for site, target in rec.exit_from:
            ctx = cross_exit_forward(pag, c, site)
            if ctx is not UNREALIZABLE:
                propagate(target, f, S2, ctx)
        for x in rec.global_targets:
            propagate(x, f, S2, EMPTY_STACK)
