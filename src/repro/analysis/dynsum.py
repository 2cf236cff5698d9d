"""DYNSUM — the paper's contribution (Algorithms 3 and 4).

A query ``pointsTo(v, c)`` runs a worklist over tuples
``(node, field-stack, state, context)``, but — unlike NOREFINE — the
worklist only ever handles **global** edges.  All local reachability is
delegated to the PPTA (:mod:`repro.analysis.ppta`): for each worklist
item, the context-free part ``(node, field-stack, state)`` is looked up in
the cross-query :class:`~repro.analysis.summaries.SummaryCache`, computed
by ``DSPOINTSTO`` on a miss, and then

* every object in the summary is added to the answer under the item's
  context (local edges cannot change context — the key observation of
  Section 4), and
* every boundary tuple is advanced across the global edges adjacent to
  it, per the RRP machine (push on backward-``exit``/forward-``entry``,
  pop-or-empty on backward-``entry``/forward-``exit``, clear on
  ``assignglobal``).

Per Section 4.3, nodes without local edges skip the PPTA entirely and act
as their own (trivial) boundary.

Summaries survive across queries and calling contexts with no precision
loss; ``cache_hits``/``cache_misses`` in each result's ``stats`` expose
the reuse that Figures 4 and 5 measure.  :meth:`DynSum.invalidate_method`
implements the IDE/JIT edit scenario.
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
from repro.analysis.ppta import (
    PptaResult,
    _run_ppta_array,
    active_traversal_impl,
    run_ppta,
)
from repro.analysis.summaries import SummaryCache, SummaryStore
from repro.cfl.rsm import S1, S2
from repro.cfl.stacks import EMPTY_STACK
from repro.util.errors import BudgetExceededError

#: Lazily bound ``repro.native.session.explore_native`` (the native
#: package imports this module at its own import time).
_NATIVE_EXPLORE = []


class DynSum(DemandPointsToAnalysis):
    """Demand analysis with dynamic, context-independent method summaries."""

    name = "DYNSUM"
    full_precision = True
    memoization = "dynamic-across"
    reuse = "context-independent"
    on_demand = "yes"

    def __init__(self, pag, config=None, cache=None):
        super().__init__(pag, config)
        #: The cross-query summary cache; share one instance between
        #: analyses to model a long-running host process.
        self.cache = cache if cache is not None else SummaryCache()
        # Backends that resolve wire-form entries (the remote store of
        # repro.cacheserver) need the PAG; local backends ignore this.
        bind = getattr(self.cache, "bind_pag", None)
        if bind is not None:
            bind(self.pag)
        #: Optional observer called with (event, **data) at worklist pops
        #: and summary hits/misses — the hook behind
        #: :mod:`repro.analysis.trace`'s Table 1-style traces.
        self.observer = None

    # ------------------------------------------------------------------
    # maintenance hooks for host environments (IDEs / JITs)
    # ------------------------------------------------------------------
    def invalidate_method(self, method_qname):
        """Drop cached summaries of one edited method; answers are
        unaffected, only later queries repay the summarisation cost."""
        return self.cache.invalidate_method(method_qname)

    @property
    def summary_count(self):
        """Distinct summarised boundary points — the Figure 5 numerator
        (see :meth:`SummaryCache.summary_point_count` for the unit)."""
        return self.cache.summary_point_count()

    @property
    def cache_entry_count(self):
        """Raw ``len(Cache)`` — one entry per (node, stack, direction)."""
        return len(self.cache)

    # ------------------------------------------------------------------
    # Algorithm 4
    # ------------------------------------------------------------------
    def _run_query(self, var, context, client):
        check_query_node(self.pag, var)
        budget = self.config.new_budget()
        pairs = set()
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        complete = True
        try:
            self._explore(var, context, pairs, budget)
        except BudgetExceededError:
            complete = False
        # Window deltas over the cache's counters: queries run one at a
        # time, so the window holds exactly this traversal's probes.
        stats = {
            "cache_hits": self.cache.hits - hits_before,
            "cache_misses": self.cache.misses - misses_before,
            "summaries": len(self.cache),
        }
        return QueryResult(var, pairs, complete, budget.steps, stats)

    def _explore(self, var, context, pairs, budget):
        """Algorithm 4's worklist, dispatched on the active impl.

        ``"native"`` (the default) runs the worklist in the C kernel via
        :meth:`_explore_native`, falling back to ``"array"`` —
        :meth:`_explore_array`, the same loop in Python over the CSR
        image's dense int arrays — when the kernel is unavailable or
        refuses the cache.  Traced queries (an attached observer) and
        reference-mode runs (:func:`~repro.analysis.ppta.traversal_impl`
        ``"reference"``) take :meth:`_explore_reference`, the oracle
        loop over the PAG accessor surface.  All of them charge the
        budget once per pop and probe the cache identically.
        """
        impl = active_traversal_impl()
        if self.observer is not None or impl == "reference":
            return self._explore_reference(var, context, pairs, budget)
        if impl == "native" and self._explore_native(var, context, pairs, budget):
            return None
        # ``array``, or a native attempt the kernel refused (unavailable,
        # or this cache/context is not representable).  A refused
        # attempt touches no Python-side state — budget, pairs and cache
        # counters read as if it never happened.
        return self._explore_array(var, context, pairs, budget)

    def _explore_native(self, var, context, pairs, budget):
        """Algorithm 4's worklist in the C kernel — ``True`` when the
        query was handled there (see
        :func:`repro.native.session.explore_native` for the marshalling
        and the bit-parity contract with :meth:`_explore_array`)."""
        if not _NATIVE_EXPLORE:
            from repro.native.session import explore_native

            _NATIVE_EXPLORE.append(explore_native)
        return _NATIVE_EXPLORE[0](self, var, context, pairs, budget)

    def _explore_array(self, var, context, pairs, budget):
        """Algorithm 4's worklist over the CSR image.

        Pop-for-pop the reference loop (:meth:`_explore_reference`):
        the same budget charging, the same cache probes (structural
        ``(node, stack, state)`` keys on the shared cache, so summaries
        interoperate across impls) and the same boundary-crossing order.
        What changes is the representation — it runs over
        :class:`repro.pag.csr.CsrImage` rows: the boundary flags are one
        ``bytes`` index, the crossing rows carry pre-packed target
        addends plus the target node (recursive-site handling is folded
        into the op codes at compile time), and the visited set keys on
        ``(packed state int, context uid)`` pairs.
        """
        pag = self.pag
        image = pag.csr()
        node_index_get = image.node_index.get
        n = image.n_nodes
        stride = n * 4 + 4
        flags = image.flags
        cb_rows = image.cb_rows
        cf_rows = image.cf_rows
        cache = self.cache
        cache_lookup = cache.lookup
        cache_store = cache.store
        # The default unbounded cache needs no recency bookkeeping, so
        # its probe can be one inlined dict get; every other backend
        # (bounded, remote) goes through its lookup method.
        plain_entries_get = (
            cache._entries.get if type(cache) is SummaryCache else None
        )
        max_depth = self.config.max_field_depth
        track = self.config.track_heap_contexts
        limit = budget.limit
        # Local mirror of budget.steps: synced to the budget object
        # around every PPTA call and on every exit, so the shared budget
        # reads exactly as if charge() ran once per pop.
        total = budget.steps
        ceiling = limit if limit is not None else float("inf")
        empty_stack = EMPTY_STACK
        ppta = _run_ppta_array
        t0 = node_index_get(var, n) * 4 + S1
        # Visited keys are single ints: (field-stack uid * stride +
        # packed state) shifted past a 33-bit context-uid field.  Stack
        # uids are sequential interning counters, and 2**33 live stacks
        # would exhaust memory thousands of times over, so the packing
        # is exact (an encoding, not a hash) — and an int key needs no
        # tuple allocation and no element-wise hash on every crossing
        # edge, nor a Python-level Stack.__hash__ call.
        seen = {(EMPTY_STACK._uid * stride + t0) << 33 | context._uid}
        seen_add = seen.add
        # Worklist items carry the packed state int ``t`` (index*4 +
        # state) straight off the crossing rows: the pop recovers
        # ``s = t & 3`` and ``ui = t >> 2`` with two int ops instead of
        # threading both through every tuple.
        worklist = deque([(var, t0, EMPTY_STACK, context)])
        pop = worklist.popleft
        push = worklist.append
        pairs_add = pairs.add
        size_of = len  # LOAD_FAST for the add-and-compare seen probes
        new_set = set  # miss-path per-method index allocation

        # Int-keyed probe memo (packed key ``stack uid * stride + t``),
        # carried on the cache across queries: repeat probes of one
        # summary — DYNSUM's whole reuse pattern — skip the structural
        # key build.  The memo mirrors a subset of the cache's entries
        # for ONE CSR image; the cache resets it on every removal or
        # replacement, and a new image (a different numbering would
        # alias keys) retires it here.  Memo answers still count as
        # cache hits, exactly as the repeated lookup they replace
        # would have; hits accumulate locally and flush in the finally,
        # so the cache's counters read identically on every exit path.
        if plain_entries_get is not None:
            memo_pair = cache._probe_memo
            if memo_pair is None or memo_pair[0] is not image:
                memo_pair = (image, {})
                cache._probe_memo = memo_pair
            qmemo = memo_pair[1]
        else:
            qmemo = {}
        qmemo_get = qmemo.get
        # The inline insert below bypasses cache.store, so it journals
        # for the native mirror itself (None: no mirror to keep in step).
        journal = cache._native_journal if plain_entries_get is not None else None
        hits = 0

        try:
            while worklist:
                u, t, f, c = pop()
                total += 1
                if total > ceiling:
                    budget.steps = total
                    raise BudgetExceededError(limit)
                s = t & 3
                ui = t >> 2
                flag = flags[ui]  # sentinel index n reads the zero byte
                if flag & 4:  # FLAG_LOCAL
                    if plain_entries_get is not None:
                        mkey = f._uid * stride + t
                        summary = qmemo_get(mkey)
                        if summary is None:
                            key = (u, f, s)
                            summary = plain_entries_get(key)
                            if summary is None:
                                cache.misses += 1
                                # The PPTA charges the shared budget
                                # itself — hand the mirror over and take
                                # it back after.
                                budget.steps = total
                                summary = ppta(pag, u, f, s, budget, max_depth)
                                total = budget.steps
                                # Inline plain-cache insert: the probe
                                # just missed and the PPTA in between
                                # does not touch the cache, so the key
                                # is absent (a store serves one thread
                                # at a time).
                                cache._entries[key] = summary
                                cache._facts += summary.size
                                method = u.method
                                if method is not None:
                                    cache._by_method.setdefault(
                                        method, new_set()
                                    ).add(key)
                                if journal is not None:
                                    journal.append(key)
                            else:
                                hits += 1
                            qmemo[mkey] = summary
                        else:
                            hits += 1
                    else:
                        summary = cache_lookup(u, f, s)
                        if summary is None:
                            budget.steps = total
                            summary = ppta(pag, u, f, s, budget, max_depth)
                            total = budget.steps
                            cache_store(u, f, s, summary)
                    objects = summary.objects
                    if objects:
                        ctx = c if track else empty_stack
                        for obj in objects:
                            pairs_add((obj, ctx))
                    boundaries = summary.boundaries
                    if not boundaries:
                        continue
                elif flag & s:  # FLAG_GLOBAL_IN gates S1, _OUT gates S2
                    # Section 4.3: no local edges — the node is its own
                    # (trivial) boundary; no cache probe, no PptaResult.
                    boundaries = ((u, f, s),)
                else:
                    continue
                for x, f1, s1 in boundaries:
                    # A node is frequently its own boundary (trivial
                    # nodes always, summarised nodes often) — reuse its
                    # index.
                    xi = ui if x is u else node_index_get(x, n)
                    row = cb_rows[xi] if s1 == S1 else cf_rows[xi]
                    if not row:
                        continue  # no global edges to cross
                    f1key = f1._uid * stride
                    for op, site, t1, xnode in row:
                        if op == 0:  # OP_PUSH
                            ctx = c.push(site)
                        elif op == 2:  # OP_POP
                            if c._rest is None:
                                ctx = c
                            elif c._top == site:
                                ctx = c._rest
                            else:
                                continue  # unrealizable
                        elif op == 4:  # OP_CLEAR
                            ctx = empty_stack
                        else:  # OP_PUSH_REC / OP_POP_REC: context unchanged
                            ctx = c
                        key = (f1key + t1) << 33 | ctx._uid
                        size = size_of(seen)
                        seen_add(key)
                        if size_of(seen) != size:
                            push((xnode, t1, f1, ctx))
            budget.steps = total
        finally:
            if hits:
                cache.hits += hits

    def _explore_reference(self, var, context, pairs, budget):
        """The oracle worklist, over the PAG accessor surface.

        Straight-line code: helper calls per pop, accessor methods per
        edge list.  Runs for traced queries (the observer hooks live
        here) and under ``traversal_impl("reference")`` — paired with
        :func:`~repro.analysis.ppta.run_ppta_reference` it is the
        baseline ``repro-perf`` measures speedups against and the
        differential tests compare answers with.
        """
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
            if self.observer is not None:
                self.observer("visit", node=u, stack=f, state=s, context=c)
            summary = self._summarize(u, f, s, budget)
            if summary.objects:
                ctx = self._finish_context(c)
                for obj in summary.objects:
                    pairs.add((obj, ctx))
            for x, f1, s1 in summary.boundaries:
                if s1 == S1:
                    self._cross_in(x, f1, c, propagate)
                else:
                    self._cross_out(x, f1, c, propagate)

    def _summarize(self, node, fstack, state, budget):
        """Algorithm 4 lines 5–9: consult the cache, else run the PPTA.

        Nodes without local edges skip the PPTA (Section 4.3) — they are
        their own boundary when a global edge continues in the travel
        direction.
        """
        pag = self.pag
        if not pag.has_local_edges(node):
            has_boundary = (
                pag.has_global_in(node) if state == S1 else pag.has_global_out(node)
            )
            boundaries = ((node, fstack, state),) if has_boundary else ()
            return PptaResult((), boundaries)
        # Probe through the generic store surface: the array loop's
        # specialised plain-cache probe is part of what reference-mode
        # measurements baseline against, so it must not leak in here.
        # Counters and results are identical.
        cache = self.cache
        if type(cache) is SummaryCache:
            cached = SummaryStore.lookup(cache, node, fstack, state)
        else:
            cached = cache.lookup(node, fstack, state)
        if cached is not None:
            if self.observer is not None:
                self.observer("summary-hit", node=node, stack=fstack, state=state)
            return cached
        summary = run_ppta(
            pag, node, fstack, state, budget, self.config.max_field_depth
        )
        if type(cache) is SummaryCache:
            SummaryStore.store(cache, node, fstack, state, summary)
        else:
            cache.store(node, fstack, state, summary)
        if self.observer is not None:
            self.observer(
                "summary-miss", node=node, stack=fstack, state=state, summary=summary
            )
        return summary

    # ------------------------------------------------------------------
    # global-edge crossings (Algorithm 4 lines 12–28)
    # ------------------------------------------------------------------
    def _cross_in(self, x, f, c, propagate):
        pag = self.pag
        for retvar, site in pag.exit_into(x):
            propagate(retvar, f, S1, cross_exit_backward(pag, c, site))
        for actual, site in pag.entry_into(x):
            ctx = cross_entry_backward(pag, c, site)
            if ctx is not UNREALIZABLE:
                propagate(actual, f, S1, ctx)
        for y in pag.global_sources(x):
            propagate(y, f, S1, EMPTY_STACK)

    def _cross_out(self, x, f, c, propagate):
        pag = self.pag
        for site, formal in pag.entry_from(x):
            propagate(formal, f, S2, cross_entry_forward(pag, c, site))
        for site, target in pag.exit_from(x):
            ctx = cross_exit_forward(pag, c, site)
            if ctx is not UNREALIZABLE:
                propagate(target, f, S2, ctx)
        for y in pag.global_targets(x):
            propagate(y, f, S2, EMPTY_STACK)
