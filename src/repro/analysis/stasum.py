"""STASUM — static whole-program method summaries (Yan et al., ISSTA'11).

STASUM inverts DYNSUM's trade-off: instead of summarising local
reachability *lazily* for the field stacks that queries actually produce,
it precomputes, **offline and for every method**, summaries for every
possible boundary node — every node a demand traversal could enter a
method through (nodes with outgoing global edges for backward/S1 entry,
nodes with incoming global edges for forward/S2 entry).

Because the incoming field stack is unknown offline, summaries are
expressed as **stack deltas**: a sequence of ``pops`` demanded from the
(unknown) incoming stack plus a sequence of ``pushes`` deposited on top.
Summary entries are either

* *object facts* ``(pops, object)`` — the object flows to the entry node
  when the incoming stack is exactly ``pops``; or
* *boundary facts* ``(pops, pushes, node, state)`` — the traversal exits
  the method at ``node`` with the stack rewritten accordingly.

Delta sizes are bounded by a **user-supplied threshold** (the paper
explicitly notes STASUM needs one and that its optimal value is unclear);
summaries that hit the bound are marked truncated and queries consuming
them are answered conservatively (``complete=False``).  Together with the
over-approximate handling of the allocation-site turnaround under an
unknown stack, this is why Table 2 lists STASUM as *not* fully precise.

The summary count exposed by :attr:`StaSum.summary_count` — one summary
per (boundary node, direction) — is the denominator of Figure 5.
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
from repro.analysis.ppta import run_ppta
from repro.cfl.rsm import FAM_LOAD, FAM_STORE, S1, S2
from repro.cfl.stacks import EMPTY_STACK
from repro.pag.graph import EMPTY_ADJACENCY
from repro.util.errors import BudgetExceededError

#: Pop-demand kinds recorded against the unknown incoming stack: the
#: forward-load closer accepts either stack-entry family, the store-bar
#: closer only family-A (backward-load) entries.
_POP_ANY = "any"
_POP_LOAD_ONLY = "A"

#: Default bound on ``len(pops) + len(pushes)`` per summary path.
DEFAULT_THRESHOLD = 8


class StaticSummary:
    """One offline summary: all delta facts for one (node, direction)."""

    __slots__ = ("objects", "boundaries", "truncated")

    def __init__(self, objects, boundaries, truncated):
        self.objects = tuple(objects)
        self.boundaries = tuple(boundaries)
        self.truncated = truncated

    @property
    def size(self):
        return len(self.objects) + len(self.boundaries)

    def __repr__(self):
        flag = ", truncated" if self.truncated else ""
        return f"StaticSummary({len(self.objects)} obj, {len(self.boundaries)} bnd{flag})"


class StaSum(DemandPointsToAnalysis):
    """Demand queries answered from precomputed whole-program summaries."""

    name = "STASUM"
    full_precision = False
    memoization = "static-across"
    reuse = "context-independent"
    on_demand = "partly"

    def __init__(self, pag, config=None, threshold=DEFAULT_THRESHOLD):
        super().__init__(pag, config)
        self.threshold = threshold
        self._table = {}
        self.offline_steps = 0
        self._precompute()

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------
    def _precompute(self):
        """Summarise every boundary node of every reachable method."""
        pag = self.pag
        starts = []
        for node in pag.local_var_nodes():
            if not pag.has_local_edges(node):
                continue  # trivial boundary; nothing to precompute
            if pag.has_global_out(node):
                starts.append((node, S1))
            if pag.has_global_in(node):
                starts.append((node, S2))
        for node, state in starts:
            self._table[(node, state)] = self._symbolic_ppta(node, state)

    @property
    def summary_count(self):
        """Number of precomputed summaries — Figure 5's denominator."""
        return len(self._table)

    def total_facts(self):
        return sum(summary.size for summary in self._table.values())

    def _symbolic_ppta(self, start_node, start_state):
        """Local exploration with a symbolic incoming stack."""
        get_record = self.pag.adjacency().get
        empty_record = EMPTY_ADJACENCY
        threshold = self.threshold
        objects = set()
        boundaries = set()
        truncated = False
        start = (start_node, (), (), start_state)
        visited = {start}
        stack = [start]

        def push_state(node, pops, pushes, state):
            nonlocal truncated
            if len(pops) + len(pushes) > threshold:
                truncated = True
                return
            item = (node, pops, pushes, state)
            if item not in visited:
                visited.add(item)
                stack.append(item)

        while stack:
            v, pops, pushes, s = stack.pop()
            self.offline_steps += 1
            rec = get_record(v)
            if rec is None:
                rec = empty_record
            if s == S1:
                new_sources = rec.new_sources
                if new_sources:
                    if pushes:
                        push_state(v, pops, pushes, S2)
                    else:
                        for obj in new_sources:
                            objects.add((pops, obj))
                        # Unknown incoming tail: the stack may be deeper
                        # than `pops`, in which case the turnaround
                        # applies.  Explored unconditionally — one source
                        # of STASUM's imprecision.
                        push_state(v, pops, (), S2)
                for x in rec.assign_sources:
                    push_state(x, pops, pushes, S1)
                for base, _g, token in rec.load_into:
                    push_state(base, pops, pushes + (token,), S1)
                if rec.has_global_in:
                    boundaries.add((pops, pushes, v, S1))
            else:
                for x in rec.assign_targets:
                    push_state(x, pops, pushes, S2)
                for g, x in rec.load_from:
                    if pushes:
                        if pushes[-1][0] == g:  # either family
                            push_state(x, pops, pushes[:-1], S2)
                    else:
                        push_state(x, pops + ((_POP_ANY, g),), (), S2)
                for x, g in rec.store_into:
                    if pushes:
                        if pushes[-1] == (g, FAM_LOAD):  # store-bar: A only
                            push_state(x, pops, pushes[:-1], S1)
                    else:
                        push_state(x, pops + ((_POP_LOAD_ONLY, g),), (), S1)
                for _g, b, token in rec.store_from:
                    push_state(b, pops, pushes + (token,), S1)
                if rec.has_global_out:
                    boundaries.add((pops, pushes, v, S2))

        return StaticSummary(
            sorted(objects, key=lambda e: (e[0], e[1].object_id)),
            sorted(boundaries, key=lambda e: (e[0], e[1], e[2].sort_key, e[3])),
            truncated,
        )

    # ------------------------------------------------------------------
    # query phase (Algorithm 4's worklist consuming static summaries)
    # ------------------------------------------------------------------
    def _run_query(self, var, context, client):
        check_query_node(self.pag, var)
        budget = self.config.new_budget()
        pairs = set()
        complete = True
        try:
            if not self._explore(var, context, pairs, budget):
                complete = False
        except BudgetExceededError:
            complete = False
        return QueryResult(
            var, pairs, complete, budget.steps, {"summaries": self.summary_count}
        )

    def _explore(self, var, context, pairs, budget):
        pag = self.pag
        get_record = pag.adjacency().get
        empty_record = EMPTY_ADJACENCY
        precise = True
        start = (var, EMPTY_STACK, S1, context)
        seen = {start}
        worklist = deque([start])

        def propagate(node, fstack, state, ctx):
            item = (node, fstack, state, ctx)
            if item not in seen:
                seen.add(item)
                worklist.append(item)

        while worklist:
            u, f, s, c = worklist.popleft()
            budget.charge()
            rec = get_record(u)
            if rec is None:
                rec = empty_record
            if not rec.has_local_edges:
                has_boundary = rec.has_global_in if s == S1 else rec.has_global_out
                if has_boundary:
                    self._cross(u, f, s, c, propagate)
                continue
            summary = self._table.get((u, s))
            if summary is None:
                # Non-boundary start (typically the query variable):
                # summarise concretely on the fly, uncached — STASUM's
                # tables only cover method boundaries.
                concrete = run_ppta(
                    pag, u, f, s, budget, self.config.max_field_depth
                )
                ctx = self._finish_context(c)
                for obj in concrete.objects:
                    pairs.add((obj, ctx))
                for x, f1, s1 in concrete.boundaries:
                    self._cross(x, f1, s1, c, propagate)
                continue
            if summary.truncated:
                precise = False
            ctx = self._finish_context(c)
            for pops, obj in summary.objects:
                if _stack_equals(f, pops):
                    pairs.add((obj, ctx))
            for pops, pushes, node, state in summary.boundaries:
                rewritten = _apply_delta(f, pops, pushes)
                if rewritten is not None:
                    self._cross(node, rewritten, state, c, propagate)
        return precise

    def _cross(self, x, f, s, c, propagate):
        pag = self.pag
        rec = pag.adjacency().get(x)
        if rec is None:
            rec = EMPTY_ADJACENCY
        if s == S1:
            for retvar, site in rec.exit_into:
                propagate(retvar, f, S1, cross_exit_backward(pag, c, site))
            for actual, site in rec.entry_into:
                ctx = cross_entry_backward(pag, c, site)
                if ctx is not UNREALIZABLE:
                    propagate(actual, f, S1, ctx)
            for y in rec.global_sources:
                propagate(y, f, S1, EMPTY_STACK)
        else:
            for site, formal in rec.entry_from:
                propagate(formal, f, S2, cross_entry_forward(pag, c, site))
            for site, target in rec.exit_from:
                ctx = cross_exit_forward(pag, c, site)
                if ctx is not UNREALIZABLE:
                    propagate(target, f, S2, ctx)
            for y in rec.global_targets:
                propagate(y, f, S2, EMPTY_STACK)


def _pop_matches(entry, demand):
    """Does a concrete stack entry ``(field, family)`` satisfy a
    recorded pop demand ``(kind, field)``?"""
    kind, field = demand
    if entry[0] != field:
        return False
    return kind == _POP_ANY or entry[1] == FAM_LOAD


def _stack_equals(stack, pops):
    """True when ``stack`` (top first) is consumed exactly by ``pops``."""
    if len(stack) != len(pops):
        return False
    for actual, expected in zip(stack, pops):
        if not _pop_matches(actual, expected):
            return False
    return True


def _apply_delta(stack, pops, pushes):
    """Rewrite ``stack`` by the summary delta, or ``None`` on mismatch."""
    if len(stack) < len(pops):
        return None
    current = stack
    for demand in pops:
        if not _pop_matches(current.peek(), demand):
            return None
        current = current.pop()
    for entry in pushes:
        current = current.push(entry)
    return current
