"""Batch scheduling: dedup, warmth-maximising order, per-batch stats.

The scheduler turns a heterogeneous list of query requests into a
:class:`BatchPlan`:

* **normalisation** — each item becomes a :class:`QuerySpec` (a PAG node,
  a ``(method_qname, var_name)`` pair, a client
  :class:`~repro.clients.base.Query`, or an existing spec);
* **deduplication** — repeated requests for the same ``(node, context)``
  collapse onto one traversal, whose result is fanned back out to every
  requester.  When the driving analysis's result depends on the client
  predicate (REFINEPTS — see ``uses_client_predicate``), the dedup key
  additionally includes the request's ``token`` so semantically different
  predicates never share an answer;
* **ordering** — queries are grouped by the queried node's method (then
  variable), so consecutive queries traverse overlapping code and hit
  summaries while they are warm.  Same-method grouping is what keeps the
  hit rate high under an LRU-bounded cache, where a summary only helps if
  it is re-used before eviction.  Ordering never changes answers — every
  query is independent; the cache only memoises exact intermediate
  results — so reordering is purely a cost lever.

Per-batch accounting (:class:`BatchStats`) mirrors the Figure 4/5 batch
protocol of ``benchmarks/bench_figure4_batches.py``: steps, wall time,
summary-cache hit rate and cumulative summary counts, per batch.
"""

from dataclasses import dataclass

from repro.cfl.stacks import EMPTY_STACK
from repro.util.errors import IRError


class QuerySpec:
    """One normalised query request.

    ``client`` is the satisfaction predicate forwarded to the analysis
    (only REFINEPTS consults it); ``token`` is a hashable stand-in for the
    predicate's semantics used by dedup (e.g. ``(client_name, payload)``);
    ``origin`` carries the originating object (such as a client
    :class:`~repro.clients.base.Query`) for reporting.
    """

    __slots__ = ("node", "context", "client", "token", "origin")

    def __init__(self, node, context=EMPTY_STACK, client=None, token=None, origin=None):
        self.node = node
        self.context = context
        self.client = client
        self.token = token
        self.origin = origin

    def dedupe_key(self, include_client):
        if not include_client or self.client is None:
            return (self.node, self.context)
        if self.token is not None:
            return (self.node, self.context, self.token)
        # An untokenised predicate has unknown semantics: never merge it
        # with anything but itself.
        return (self.node, self.context, id(self.client))

    def __repr__(self):
        return f"QuerySpec({self.node!r}, context={self.context!r})"


def as_spec(item, pag, context=EMPTY_STACK):
    """Normalise one batch item into a :class:`QuerySpec`."""
    if isinstance(item, QuerySpec):
        return item
    # A client Query carries (method, var) plus a dedup-relevant payload.
    if hasattr(item, "client") and hasattr(item, "payload") and callable(
        getattr(item, "node", None)
    ):
        return QuerySpec(
            item.node(pag),
            context,
            token=(item.client, item.payload),
            origin=item,
        )
    if isinstance(item, tuple) and len(item) == 2:
        first, second = item
        if isinstance(first, str) and isinstance(second, str):
            return QuerySpec(pag.find_local(first, second), context)
        if isinstance(first, str) or isinstance(second, str):
            # A mixed tuple like ("A.m", context_stack) would otherwise
            # smuggle a bare string in as the query node and fail much
            # later, deep in the traversal, as an AttributeError.
            raise IRError(
                f"cannot normalise batch item {item!r}: a 2-tuple query "
                "must be either (method_qname, var_name) — two strings — "
                "or (pag_node, context_stack); to query a named variable "
                "under a context, resolve the node first with "
                "pag.find_local(method_qname, var_name) and pass "
                "QuerySpec(node, context)"
            )
        return QuerySpec(first, second)  # (node, context)
    return QuerySpec(item, context)


def warmth_key(spec):
    """Sort key grouping queries by method, then variable, then context.

    Queries on one method traverse that method's (and its callees')
    local edges, so adjacent same-method queries find those summaries
    still resident — the ordering that maximises cache warmth.
    """
    node = spec.node
    method = getattr(node, "method", None) or ""
    name = getattr(node, "name", None) or ""
    return (str(method), str(name), len(spec.context))


def spec_method(spec):
    """The method string the scheduler's warmth statistics key on."""
    return str(getattr(spec.node, "method", None) or "")


class BatchPlan:
    """The scheduler's output: unique specs, execution order, fan-out map.

    ``unique[i]`` are the deduplicated specs; ``order`` is the sequence of
    unique indices to execute; ``assignment[j]`` maps input position ``j``
    to its unique index, so results align with the caller's request order
    regardless of dedup or reordering.
    """

    __slots__ = ("unique", "order", "assignment", "reordered")

    def __init__(self, unique, order, assignment, reordered):
        self.unique = unique
        self.order = order
        self.assignment = assignment
        self.reordered = reordered

    @property
    def n_requests(self):
        return len(self.assignment)

    @property
    def n_unique(self):
        return len(self.unique)

    @property
    def n_deduped(self):
        return self.n_requests - self.n_unique


def plan_batch(specs, dedupe=True, reorder=True, include_client=True, warmth=None):
    """Plan a batch: dedup (optional), then order for cache warmth.

    ``include_client`` must be True when the driving analysis's results
    depend on client predicates (``analysis.uses_client_predicate``).

    ``warmth`` optionally carries traffic statistics from *earlier*
    batches: a mapping from method string (:func:`spec_method`) to a
    monotone recency stamp — higher = touched more recently.  When
    given (and ``reorder`` is on), methods the recent past queried are
    scheduled first, hottest first, so their summaries are re-used
    while still resident in a bounded store; methods the statistics
    have never seen follow, in plain :func:`warmth_key` order.  Like
    every scheduling lever this is cost-only: answers never change.
    """
    unique = []
    assignment = []
    seen = {}
    for position, spec in enumerate(specs):
        key = spec.dedupe_key(include_client) if dedupe else position
        index = seen.get(key)
        if index is None:
            index = len(unique)
            seen[key] = index
            unique.append(spec)
        assignment.append(index)
    order = list(range(len(unique)))
    if reorder:
        if warmth:
            def carryover_key(i):
                spec = unique[i]
                return (-warmth.get(spec_method(spec), 0), warmth_key(spec))

            order.sort(key=carryover_key)
        else:
            order.sort(key=lambda i: warmth_key(unique[i]))
    return BatchPlan(unique, order, assignment, reordered=bool(reorder))


@dataclass(frozen=True)
class BatchStats:
    """Accounting for one executed batch (the Figure 4/5 unit).

    ``cache_hits``/``cache_misses`` are summary-cache probe deltas during
    the batch (zero for cache-less analyses); ``summaries_before/after``
    are ``len(Cache)`` around the batch, the Figure 5 series.
    """

    n_requests: int
    n_unique: int
    reordered: bool
    steps: int
    time_sec: float
    complete: int
    incomplete: int
    cache_hits: int = 0
    cache_misses: int = 0
    summaries_before: int = 0
    summaries_after: int = 0
    evictions: int = 0

    @property
    def n_deduped(self):
        return self.n_requests - self.n_unique

    @property
    def probes(self):
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self):
        """Summary-cache hit rate over the batch (0.0 when unprobed)."""
        probes = self.probes
        return self.cache_hits / probes if probes else 0.0


class BatchResult:
    """Results of ``query_batch``, aligned with the request order.

    ``results[j]`` answers the ``j``-th request exactly as a sequential
    ``points_to`` call would; deduplicated requests share one
    :class:`~repro.analysis.base.QueryResult` object.
    """

    __slots__ = ("results", "stats", "plan")

    def __init__(self, results, stats, plan):
        self.results = results
        self.stats = stats
        self.plan = plan

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __repr__(self):
        s = self.stats
        return (
            f"BatchResult({s.n_requests} queries, {s.n_unique} unique, "
            f"{s.steps} steps, hit_rate={s.hit_rate:.2f})"
        )
