"""Python ↔ kernel marshalling for the native traversal impl.

Two object layers bridge the gap between the pure-Python analyses and
the C kernel in ``kernel.c``:

* :class:`_NativeGraph` — the kernel's twin of one CSR image lineage,
  cached on ``image._native``.  Hands the kernel borrowed pointers into
  the image's 26 ``array('i')`` CSR buffers and into its token tables
  (field id, family and sort rank per image token) — no copy — plus
  the node **sort ranks**: Python-computed ranks of every live node's
  ``sort_key`` and every token tuple, which make the kernel's boundary
  sort order-isomorphic to :func:`~repro.analysis.ppta._boundary_order`
  without ever comparing Python objects in C (see :class:`_NodeRanks`).
  The kernel reads image tokens only: a field stack holding any other
  token has no kernel id.  The twin also owns the py↔C translation
  caches for hash-consed stacks — both sides intern, so the mapping is
  a pair of dicts that only ever grows along push chains.  An edit's
  patched image (:func:`repro.pag.csr.patch_csr`) inherits the twin,
  which **rebinds** to it on first use: surviving nodes keep their
  indices and tokens their ids, so the kernel graph, its stack tables
  and every summary session over it carry on — only a fresh compile
  (the first, a full solve, an ``add_*`` insertion, a changed
  recursive-site set, compaction) builds a new graph.
* :class:`_NativeSession` — one per ``(SummaryCache, graph)`` pair,
  cached on ``cache._native_memo``.  The cache is an analysis's plain
  store, or the plain local tier of a remote store (a
  :class:`~repro.cacheserver.client.RemoteSummaryCache`).  Mirrors the
  cache's ``_entries`` into the kernel's summary table so the kernel
  can probe and commit summaries without calling back into Python.
  The first sync imports every entry in one bulk call; later syncs —
  across rebinds too — replay only the keys the cache journaled since
  (inserted, replaced or removed — removals become kernel deletes),
  and the kernel compacts the session in place once dead records
  outnumber live ones (see :func:`_session_for`).
* **Held frames** (:func:`hold_frame`) — a remote store's framed
  prefetch into a plain tier whose dict is empty, on the kernel: the
  client resolves the frame's node and stack tables, and one
  ``rk_frame_hold`` call walks the rows — the packed ``array`` the
  frame decodes to, at its width of 2, 4 or 8 bytes, with no Python
  int built per row — validating them by
  :func:`~repro.api.snapshot.resolve_frame`'s rules and applying the
  prefetch's adoption filter — and commits every
  accepted entry to the tier's session.  The tier records the block
  and counts its entries and facts; it builds their ``PptaResult``
  objects only when a Python reader needs them, and before the session
  that holds them is retired, dropped or replaced.  Anything else — a
  damaged or misaligned answer, a key, object or stack the kernel
  cannot represent, a key repeated in the frame or already held, an
  epoch past int64 — takes the per-entry path unchanged.

Everything here is **refuse-and-fall-back**: any state the kernel
cannot represent (a call site outside int32, a field stack holding a
token the image never interned — a standalone PPTA's start stack or an
imported boundary — kernel OOM), and any store it does not serve (a
bounded LRU one, which evicts mid-query and the kernel does not, or a
remote one over such a tier), returns
``None``/``False`` to the dispatch layer, which reruns the query on the
pure-Python ``array`` impl — answers and step counts never depend on
the kernel being usable, only latency does.
"""

import weakref
from array import array
from bisect import bisect_left
from ctypes import POINTER, byref, c_int32, c_int64, cast

from repro.native.binding import (
    _GRAPH_ERRORS,
    N_ARRAYS,
    availability,
    load_kernel,
)

_PI32 = POINTER(c_int32)
_PI64 = POINTER(c_int64)
_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1

# Deferred to call time in the hot helpers would be wasted work: by the
# time this module is imported (always from inside repro.analysis), the
# analysis modules are fully initialized, so top-level imports are safe
# and there is no cycle — ppta/dynsum never import this module at
# module level.
from repro.analysis.ppta import PptaResult, _boundary_order, _object_order
from repro.analysis.summaries import SummaryCache
from repro.api.snapshot import HeldFrame
from repro.cfl.rsm import FAM_LOAD, S1
from repro.cfl.stacks import EMPTY_STACK
from repro.util.errors import BudgetExceededError


def _addr(int_array):
    """A ``POINTER(c_int32)`` over an ``array('i')`` buffer."""
    return cast(int_array.buffer_info()[0], _PI32)


def _addr64(int_array):
    """A ``POINTER(c_int64)`` over an ``array('q')`` buffer."""
    return cast(int_array.buffer_info()[0], _PI64)


class _NativeGraph:
    """The kernel-side twin of one CSR image lineage (see module
    docstring)."""

    __slots__ = (
        "lib",
        "_image",
        "handle",
        "keep",
        "tok_tables",
        "ranks",
        "dead",
        "generation",
        "tok_index",
        "tokens_by_id",
        "fs_py2c",
        "fs_c2py",
        "cs_py2c",
        "cs_c2py",
        "broken",
    )

    def __init__(self, lib, image, handle, keep, tok_tables, ranks):
        self.lib = lib
        # The image owns this graph (``image._native``); a weak
        # back-reference keeps the pair out of the cyclic GC, so a
        # superseded image and kernel handle are freed as soon as the
        # image is dropped, not at the next full collection.
        self._image = weakref.ref(image)
        self.handle = handle
        #: Buffers the kernel borrows pointers into — kept alive here
        #: until a rebind points the kernel at the next image's.
        self.keep = keep
        #: ``(tok_fid, tok_fam, tok_rank)``, which the kernel borrows
        #: like the CSR buffers — replaced only once a rebind accepts
        #: the next ones.
        self.tok_tables = tok_tables
        self.ranks = ranks
        #: The bound image's ``dead`` set, and how many rebinds so far
        #: (a session synced at an older generation re-examines the keys
        #: it skipped — see :func:`_session_for`).
        self.dead = image.dead
        self.generation = 0
        tokens = image.tokens
        self.tok_index = {token: i for i, token in enumerate(tokens)}
        self.tokens_by_id = list(tokens)
        self.fs_py2c = {EMPTY_STACK: 0}
        self.fs_c2py = {0: EMPTY_STACK}
        self.cs_py2c = {EMPTY_STACK: 0}
        self.cs_c2py = {0: EMPTY_STACK}
        #: A reason string once the kernel handle is poisoned (OOM) —
        #: :func:`graph_for` retires the graph and falls back.
        self.broken = None

    @property
    def image(self):
        return self._image()

    def __del__(self):
        try:
            if self.handle:
                self.lib.rk_graph_free(self.handle)
                self.handle = None
        except Exception:
            pass  # interpreter teardown

    # ------------------------------------------------------------------
    # stack translation (both directions memoized along push chains)
    # ------------------------------------------------------------------
    def fstack_to_c(self, stack):
        """The kernel id of ``stack``; ``None`` when a token on it is not
        in the image's table (or on kernel OOM)."""
        py2c = self.fs_py2c
        got = py2c.get(stack)
        if got is not None:
            return got
        chain = []
        s = stack
        while True:
            cached = py2c.get(s)
            if cached is not None:
                cid = cached
                break
            chain.append(s)
            s = s._rest
        tok_index = self.tok_index
        push = self.lib.rk_fstack_push
        handle = self.handle
        c2py = self.fs_c2py
        for s2 in reversed(chain):
            tid = tok_index.get(s2._top)
            if tid is None:
                return None
            cid = push(handle, cid, tid)
            if cid < 0:
                self.broken = "kernel out of memory"
                return None
            py2c[s2] = cid
            c2py.setdefault(cid, s2)
        return cid

    def fstack_from_c(self, cid):
        c2py = self.fs_c2py
        got = c2py.get(cid)
        if got is not None:
            return got
        lib = self.lib
        handle = self.handle
        chain = []
        c = cid
        while c not in c2py:
            chain.append(c)
            c = lib.rk_fstack_parent(handle, c)
        stack = c2py[c]
        tokens = self.tokens_by_id
        py2c = self.fs_py2c
        for c2 in reversed(chain):
            stack = stack.push(tokens[lib.rk_fstack_value(handle, c2)])
            c2py[c2] = stack
            py2c.setdefault(stack, c2)
        return stack

    def cstack_to_c(self, stack):
        py2c = self.cs_py2c
        got = py2c.get(stack)
        if got is not None:
            return got
        chain = []
        s = stack
        while True:
            cached = py2c.get(s)
            if cached is not None:
                cid = cached
                break
            chain.append(s)
            s = s._rest
        push = self.lib.rk_cstack_push
        handle = self.handle
        c2py = self.cs_c2py
        for s2 in reversed(chain):
            site = s2._top
            if not isinstance(site, int) or not _INT32_MIN <= site <= _INT32_MAX:
                return None  # a call site the kernel cannot carry
            cid = push(handle, cid, site)
            if cid < 0:
                self.broken = "kernel out of memory"
                return None
            py2c[s2] = cid
            c2py.setdefault(cid, s2)
        return cid

    def cstack_from_c(self, cid):
        c2py = self.cs_c2py
        got = c2py.get(cid)
        if got is not None:
            return got
        lib = self.lib
        handle = self.handle
        chain = []
        c = cid
        while c not in c2py:
            chain.append(c)
            c = lib.rk_cstack_parent(handle, c)
        stack = c2py[c]
        py2c = self.cs_py2c
        for c2 in reversed(chain):
            stack = stack.push(lib.rk_cstack_value(handle, c2))
            c2py[c2] = stack
            py2c.setdefault(stack, c2)
        return stack


#: Node sort ranks live in [0, 2**31): int32, with room between
#: neighbours for the nodes later patches append.
_RANK_SPAN = 2 ** 31 - 1


class _NodeRanks:
    """Kernel sort ranks of a CSR image lineage's live nodes.

    ``rank[i]`` orders node ``i`` among the live nodes exactly as its
    ``sort_key`` does.  A full ranking — one sort, when a graph is
    built — spaces the ranks evenly.  After a patch, a dropped node
    leaves the order and an appended one takes the midpoint of its new
    neighbours' ranks (a bisect over the live keys, no re-sort); only a
    neighbourhood with no room left re-spaces every rank, which is O(n)
    and still sorts nothing.  A dead node keeps a stale rank: no live
    row names it, so the kernel never compares it — and a dead index
    never comes back to life (:func:`repro.pag.csr.patch_csr`).
    """

    __slots__ = ("rank", "keys", "order", "gap")

    def __init__(self, image):
        nodes = image.nodes
        dead = image.dead
        #: Live node indices in sort-key order, and their keys.
        self.order = sorted(
            (i for i in range(image.n_nodes) if i not in dead),
            key=lambda i: nodes[i].sort_key,
        )
        self.keys = [nodes[i].sort_key for i in self.order]
        self.rank = array("i", [0]) * image.n_nodes
        self._respace()

    def _respace(self):
        self.gap = gap = max(1, _RANK_SPAN // (len(self.order) + 1))
        rank = self.rank
        for pos, i in enumerate(self.order, 1):
            rank[i] = pos * gap

    def follow(self, image, dead_before):
        """Fit the ranks to ``image``, a patch of the image they fit
        (whose dead set was ``dead_before``)."""
        nodes = image.nodes
        dead = image.dead
        rank, keys, order = self.rank, self.keys, self.order
        fitted = len(rank)
        rank.extend(array("i", [0]) * (image.n_nodes - fitted))
        for i in dead - dead_before:
            if i >= fitted:
                continue  # appended and dropped again: never ranked
            key = nodes[i].sort_key
            pos = bisect_left(keys, key)
            while order[pos] != i:
                pos += 1
            del keys[pos], order[pos]
        crowded = False
        for i in range(fitted, image.n_nodes):
            if i in dead:
                continue
            key = nodes[i].sort_key
            pos = bisect_left(keys, key)
            lo = rank[order[pos - 1]] if pos else 0
            if pos < len(order):
                hi = rank[order[pos]]
            else:
                hi = min(lo + 2 * self.gap, _RANK_SPAN)
            keys.insert(pos, key)
            order.insert(pos, i)
            if hi - lo < 2:
                crowded = True
            else:
                rank[i] = (lo + hi) // 2
        if crowded:
            self._respace()


def _token_tables(image):
    """The kernel's token tables for ``image``: field ids, families
    and sort ranks, indexed by token id."""
    tokens = image.tokens
    tok_fid_map = image.tok_fid
    tok_fid = array("i", [tok_fid_map.get(t, -1) for t in tokens])
    tok_fam = array("i", [0 if t[1] == FAM_LOAD else 1 for t in tokens])
    tok_rank = array("i", [0] * len(tokens))
    for pos, idx in enumerate(sorted(range(len(tokens)), key=tokens.__getitem__)):
        tok_rank[idx] = pos
    return tok_fid, tok_fam, tok_rank


def _image_buffers(image):
    """``(keep, pointers, counts)``: borrowed pointers to ``image``'s
    CSR arrays, their element counts, and the buffers behind them."""
    from repro.pag.csr import _ARRAY_NAMES

    keep = []
    pointers = (_PI32 * N_ARRAYS)()
    counts = (c_int32 * N_ARRAYS)()
    for i, name in enumerate(_ARRAY_NAMES):
        buf = getattr(image, name)
        keep.append(buf)
        pointers[i] = _addr(buf)
        counts[i] = len(buf)
    keep.append(image.flags)
    return keep, pointers, counts


def _too_large(image):
    n = image.n_nodes
    if n >= 2 ** 29:  # index * 4 + state must stay in int32
        return f"image too large for the kernel ({n} nodes)"
    return None


def _build_graph(lib, image):
    """A :class:`_NativeGraph` over ``image``, or a reason string."""
    reason = _too_large(image)
    if reason is not None:
        return reason
    keep, pointers, counts = _image_buffers(image)
    tok_tables = _token_tables(image)
    ranks = _NodeRanks(image)
    err = c_int32(0)
    handle = lib.rk_graph_new(
        image.n_nodes,
        pointers,
        counts,
        image.flags,
        len(image.tokens),
        *map(_addr, tok_tables),
        _addr(ranks.rank),
        byref(err),
    )
    if not handle:
        return _GRAPH_ERRORS.get(err.value, f"kernel rejected the image ({err.value})")
    return _NativeGraph(lib, image, handle, keep, tok_tables, ranks)


def _rebind(ng, image):
    """``ng`` pointed at ``image``, a patch of the image it reads, or a
    reason string.

    The patch kept every surviving node's index and every token's id,
    so the kernel keeps its stack tables and sessions: only the array
    pointers, the node ranks and — when the patch interned new tokens,
    which take the ids after the old ones — the token tables change.
    """
    reason = _too_large(image)
    if reason is not None:
        return reason
    tokens = image.tokens
    known = len(ng.tokens_by_id)
    new_tokens = tokens[known:]
    tok_tables = _token_tables(image) if new_tokens else ng.tok_tables
    ng.ranks.follow(image, ng.dead)
    keep, pointers, counts = _image_buffers(image)
    err = ng.lib.rk_graph_rebind(
        ng.handle,
        image.n_nodes,
        pointers,
        counts,
        image.flags,
        len(tokens),
        *map(_addr, tok_tables),
        _addr(ng.ranks.rank),
    )
    if err:
        return _GRAPH_ERRORS.get(err, f"kernel rejected the image ({err})")
    # The kernel no longer reads the old buffers or token tables.
    ng.keep = keep
    ng.tok_tables = tok_tables
    ng._image = weakref.ref(image)
    ng.dead = image.dead
    ng.generation += 1
    if new_tokens:
        ng.tok_index.update(zip(new_tokens, range(known, len(tokens))))
        ng.tokens_by_id.extend(new_tokens)
    return ng


def graph_for(pag):
    """The native twin of ``pag``'s CSR image, or ``None`` (fall back).

    The outcome — graph or reason — is cached on ``image._native``.  A
    patched image arrives with its parent's graph, which is rebound to
    it here, before any kernel call reads the new image.  A poisoned
    graph (kernel OOM) is retired here, replacing the cached graph with
    its reason so later calls fail fast.
    """
    lib, _reason = load_kernel()
    if lib is None:
        return None
    image = pag.csr()
    native = image._native
    if native is None:
        native = image._native = _build_graph(lib, image)
    elif type(native) is _NativeGraph and native.image is not image:
        native = image._native = _rebind(native, image)
    if type(native) is not _NativeGraph:
        return None  # a cached reason string
    if native.broken is not None:
        image._native = native.broken
        return None
    return native


def native_unavailable_reason(pag=None, store=None):
    """Why the native impl would fall back right now, or ``None``.

    Reports the binding-level reason (no compiler, disabled, ABI
    mismatch) first; then, with a summary ``store`` the kernel does not
    serve, why the store runs on the array loop: a bounded
    (``BoundedSummaryCache``, LRU) local store, or a remote store (one
    with a ``local_tier``) over a bounded tier; then, with a ``pag``
    whose CSR image has already been refused by the kernel, that
    image-level reason.  A remote store over a plain tier counts as
    served: every call on it runs on the kernel (see
    :func:`explore_native`).
    """
    ok, reason = availability()
    if not ok:
        return reason
    if store is not None and type(store) is not SummaryCache:
        name = type(store).__name__
        tier = getattr(store, "local_tier", None)
        if tier is None:
            return f"{name} runs on the array loop"
        if type(tier) is not SummaryCache:
            return (
                f"{name} over a {type(tier).__name__} local tier "
                "runs on the array loop"
            )
    if pag is not None:
        image = pag._csr
        if image is not None:
            native = getattr(image, "_native", None)
            if isinstance(native, str):
                return native
    return None


# ----------------------------------------------------------------------
# standalone PPTA (the ``traversal_impl("native")`` ppta driver)
# ----------------------------------------------------------------------
def run_ppta_native(pag, node, field_stack, state, budget, max_field_depth=None):
    """One ``DSPOINTSTO`` in the kernel; ``None`` means fall back.

    Bit-parity contract with :func:`~repro.analysis.ppta._run_ppta_array`:
    ``budget.steps`` lands on exactly the same value on every path
    (normal, budget abort, depth abort), aborts raise the same
    :class:`BudgetExceededError`, and the fact lists sort under the
    same structural keys.  On fallback — no kernel, or a start stack
    holding a token the image never interned — the budget is untouched:
    the pure-Python rerun proceeds as if this call never happened.
    """
    ng = graph_for(pag)
    if ng is None:
        return None
    f0 = ng.fstack_to_c(field_stack)
    if f0 is None:
        return None
    image = ng.image
    lib = ng.lib
    steps_before = budget.steps
    limit = budget.limit
    res = lib.rk_ppta(
        ng.handle,
        image.node_index.get(node, image.n_nodes) * 4 + state,
        f0,
        steps_before,
        -1 if limit is None else limit,
        -1 if max_field_depth is None else max_field_depth,
    )
    if not res:
        ng.broken = "kernel out of memory"
        return None
    try:
        r = res.contents
        if r.status < 0:
            ng.broken = "kernel out of memory"
            return None
        total = r.total
        budget.steps = total
        if r.status == 1:
            raise BudgetExceededError(limit)
        nodes = image.nodes
        robj = r.objects
        objects = [nodes[robj[i]] for i in range(r.n_objects)]
        b_t = r.b_t
        b_f = r.b_f
        from_c = ng.fstack_from_c
        boundaries = [
            (nodes[b_t[i] >> 2], from_c(b_f[i]), b_t[i] & 3)
            for i in range(r.n_boundaries)
        ]
    finally:
        lib.rk_ppta_free(res)
    return PptaResult(
        sorted(objects, key=_object_order) if len(objects) > 1 else objects,
        sorted(boundaries, key=_boundary_order) if len(boundaries) > 1 else boundaries,
        steps=total - steps_before,
    )


# ----------------------------------------------------------------------
# the DYNSUM session
# ----------------------------------------------------------------------
class _NativeSession:
    """A kernel summary table mirroring one plain ``SummaryCache`` (an
    analysis's store, or a remote store's local tier).

    The counters count work, not time, so a test can assert what a sync
    touched: ``imported`` entries sent to the kernel (full imports and
    re-puts of journaled keys), ``deleted`` keys a journal drain removed
    from the kernel index.
    """

    __slots__ = ("graph", "handle", "imported", "deleted", "skipped")

    def __init__(self, graph, handle):
        self.graph = graph  # strong ref: the graph must outlive us
        self.handle = handle
        self.imported = 0
        self.deleted = 0
        #: Keys :func:`_put` skipped as out of the kernel's reach (node
        #: not in the image, token not in its table), as an ordered
        #: set; a rebind may bring them in, so the first sync after one
        #: puts them again.
        self.skipped = {}

    def __del__(self):
        try:
            if self.handle:
                self.graph.lib.rk_session_free(self.handle)
                self.handle = None
        except Exception:
            pass  # interpreter teardown

    def records(self):
        """Summary records in the kernel pools, dead ones included."""
        return self.graph.lib.rk_session_count(self.handle)

    def live(self):
        """Keys the kernel index maps to a record."""
        return self.graph.lib.rk_session_live(self.handle)


def _session_for(ng, cache):
    """The kernel session mirroring ``cache``, synced; ``None`` refuses
    native for this cache.

    The first native query on a cache (or the first over a new graph)
    bulk-imports every entry and starts the cache's journal,
    ``cache._native_journal``.  From then on the store appends to it
    every key it inserts, replaces or removes, and each sync replays
    only the journaled keys: one still resident is put again, one gone
    is deleted from the kernel index.  An edit's rebind keeps the
    session — node indices survive the patch, and a dropped node stays
    resolvable until compaction, so removals drain under the numbering
    they were recorded in — and the first sync after it also re-puts
    the keys earlier imports skipped.  Summaries the kernel computed
    itself go straight into ``_entries`` and never enter the journal.
    Replaced and deleted keys leave dead records in the kernel pools;
    once those outnumber the live ones the kernel compacts the session
    in place (no re-import), so a long edit session's kernel memory
    stays bounded.

    The memo is ``(graph, session, generation)``.  An entry the kernel
    cannot represent refuses native for the cache until it is cleared
    or the graph moves to another image — the refusal is cached as a
    ``None`` session, so later queries fall back at once instead of
    re-importing.
    """
    memo = cache._native_memo
    if memo is None or memo[0] is not ng:
        return _fresh_session(ng, cache)
    _graph, sess, generation = memo
    if sess is None:  # refused earlier (unrepresentable entry)
        return None if generation == ng.generation else _fresh_session(ng, cache)
    journal = cache._native_journal
    if generation != ng.generation:
        journal.extend(sess.skipped)
        sess.skipped = {}
        cache._native_memo = (ng, sess, ng.generation)
    if journal:
        keys = dict.fromkeys(journal)  # in order, each key once
        journal.clear()
        if not _drain(ng, sess, cache._entries, keys):
            return _retire(ng, cache)
        live = sess.live()
        if sess.records() - live > live and ng.lib.rk_session_compact(sess.handle):
            ng.broken = "kernel out of memory"
            return _retire(ng, cache)
    return sess


def _fresh_session(ng, cache):
    """A new session holding every entry of ``cache``, or ``None``.
    Entries the cache held in its previous session are built first."""
    if cache._held_blocks:
        cache._build_held()
    handle = ng.lib.rk_session_new(ng.handle)
    if not handle:
        ng.broken = "kernel out of memory"
        return _retire(ng, cache)
    sess = _NativeSession(ng, handle)
    if not _put(ng, sess, list(cache._entries.items())):
        return _retire(ng, cache)
    cache._native_memo = (ng, sess, ng.generation)
    cache._native_journal = []
    return sess


def _retire(ng, cache):
    """Drop ``cache``'s mirror and journal; always ``None``.

    After kernel OOM (``ng.broken`` set) the next query starts over on
    a fresh graph; otherwise the refusal is cached against this graph
    until it rebinds.  Held entries live only in the retired session,
    so they are built first.
    """
    if cache._held_blocks:
        cache._build_held()
    cache._native_journal = None
    cache._native_memo = None if ng.broken is not None else (ng, None, ng.generation)
    return None


def _drain(ng, sess, entries, keys):
    """Replay journaled ``keys`` into ``sess``: put again the ones
    still in ``entries``, delete the rest.  ``False`` on refusal/OOM."""
    index_get = ng.image.node_index.get
    translated = ng.fs_py2c
    puts = []
    del_t = array("i")
    del_f = array("i")
    for key in keys:
        summary = entries.get(key)
        if summary is not None:
            puts.append((key, summary))
            continue
        node, fstack, state = key
        si = index_get(node)
        f = translated.get(fstack)
        if si is None or f is None:
            continue  # never translated, so never imported
        del_t.append(si * 4 + state)
        del_f.append(f)
    if del_t:
        deleted = ng.lib.rk_summary_del(
            sess.handle, len(del_t), _addr(del_t), _addr(del_f)
        )
        if deleted < 0:
            ng.broken = "kernel out of memory"
            return False
        sess.deleted += deleted
    return _put(ng, sess, puts)


def _put(ng, sess, items):
    """Import ``items`` (``(key, summary)`` pairs) with one
    ``rk_summary_put_many`` call over flat arrays; ``False`` refuses
    the session (or reports kernel OOM, with ``ng.broken`` set).

    Keys the kernel cannot be asked about over this image — a node not
    in it, or a stack with a non-image token (the native worklist only
    ever carries image tokens) — are skipped, not imported, and noted in
    ``sess.skipped`` for the next rebind.  An entry it
    *could* be asked about but cannot represent (an object outside the
    image, a foreign boundary token) refuses the whole session: a
    partial mirror would make probes miss where Python hits, diverging
    step counts.
    """
    image = ng.image
    index_get = image.node_index.get
    n = image.n_nodes
    to_c = ng.fstack_to_c
    key_t = array("i")
    key_f = array("i")
    steps = array("q")
    obj_off = array("i", [0])
    objs = array("i")
    b_off = array("i", [0])
    b_t = array("i")
    b_f = array("i")
    skipped = sess.skipped
    for key, summary in items:
        node, fstack, state = key
        si = index_get(node)
        if si is None:
            skipped[key] = None  # unreachable natively
            continue
        f = to_c(fstack)
        if f is None:
            if ng.broken is not None:
                return False
            skipped[key] = None  # foreign key token: never probed natively
            continue
        for obj in summary.objects:
            oi = index_get(obj)
            if oi is None:
                return False  # cannot emit this object as an index
            objs.append(oi)
        for x, bfs, bstate in summary.boundaries:
            bf = to_c(bfs)
            if bf is None:
                return False
            b_t.append(index_get(x, n) * 4 + bstate)
            b_f.append(bf)
        try:
            steps.append(summary.steps)
        except OverflowError:
            return False  # a step count past int64
        key_t.append(si * 4 + state)
        key_f.append(f)
        obj_off.append(len(objs))
        b_off.append(len(b_t))
    count = len(key_t)
    if not count:
        return True
    rc = ng.lib.rk_summary_put_many(
        sess.handle,
        count,
        _addr(key_t),
        _addr(key_f),
        cast(steps.buffer_info()[0], _PI64),
        _addr(obj_off),
        _addr(objs),
        _addr(b_off),
        _addr(b_t),
        _addr(b_f),
    )
    if rc != 0:
        ng.broken = "kernel out of memory"
        return False
    sess.imported += count
    return True


#: ``rk_frame_hold``'s node-map values for a node row that names no
#: PAG node, and for one whose PAG node is not in the image.
_NODE_UNRESOLVED = -1
_NODE_FOREIGN = -2

#: Why ``rk_frame_hold`` held nothing, by its outcome code.
HOLD_REFUSALS = {
    1: "damaged",
    2: "misaligned epochs",
    3: "not representable in the kernel",
    4: "repeated key",
}


def hold_frame(cache, pag, tables, rows, epochs, method_epochs):
    """Hold a framed prefetch answer in ``cache``'s kernel session.

    ``cache`` is a remote store's plain local tier with an empty dict;
    ``tables`` is what :func:`~repro.api.snapshot.resolve_frame_tables`
    made of the frame, ``rows`` what
    :func:`~repro.api.snapshot.frame_rows` made of it (an ``array`` at
    a width of 2, 4 or 8 bytes, handed over as it stands), ``epochs``
    the answer's and ``method_epochs`` the client's non-zero method
    epochs.
    One ``rk_frame_hold`` call validates the rows, skips the entries
    the prefetch would not adopt (an unresolved reference, an epoch
    that is not the client's) and commits the rest to the session; the
    cache then records the block (``SummaryStore._hold``).

    Returns ``(adopted, skipped)``, or with nothing held the reason
    why: no kernel for this PAG, an epoch past int64, kernel OOM,
    or a refusal of the kernel's (:data:`HOLD_REFUSALS`: damage — the
    rows fail exactly where :func:`~repro.api.snapshot.resolve_frame`
    raises — misaligned epochs, an entry it cannot represent, a
    repeated key).  The caller then takes the per-entry path, which
    answers each of those exactly as before.
    """
    ng = graph_for(pag)
    if ng is None:
        return "no kernel"
    nodes, is_object, stacks = tables
    try:
        epochs_q = array("q", epochs)
        node_epoch = array(
            "q",
            [0 if node is None else method_epochs.get(node.method, 0) for node in nodes],
        )
    except OverflowError:
        return "an epoch past int64"
    index_get = ng.image.node_index.get
    node_idx = array(
        "i",
        [
            _NODE_UNRESOLVED if node is None else index_get(node, _NODE_FOREIGN)
            for node in nodes
        ],
    )
    node_obj = array("i", is_object)
    to_c = ng.fstack_to_c
    stack_id = array("i")
    for stack in stacks:
        f = to_c(stack)
        if f is None:
            if ng.broken is not None:
                _retire(ng, cache)
                return ng.broken
            f = -1  # a token outside the image
        stack_id.append(f)
    sess = _session_for(ng, cache)
    if sess is None:
        return "no kernel session"
    offsets = array("q", bytes(8 * (len(rows) // 6 + 1)))
    out = (c_int64 * 4)()
    rc = ng.lib.rk_frame_hold(
        sess.handle,
        len(rows),
        rows.buffer_info()[0],
        rows.itemsize,
        len(node_idx),
        _addr(node_idx),
        _addr(node_obj),
        _addr64(node_epoch),
        len(stack_id),
        _addr(stack_id),
        len(epochs_q),
        _addr64(epochs_q),
        _addr64(offsets),
        out,
    )
    if rc < 0:
        ng.broken = "kernel out of memory"
        _retire(ng, cache)
        return ng.broken
    if rc:
        return HOLD_REFUSALS[rc]
    _entries, adopted, skipped, facts = out
    if adopted:
        del offsets[adopted:]
        cache._hold(HeldFrame(nodes, stacks, rows, offsets, adopted, facts))
        sess.imported += adopted
    return adopted, skipped


def explore_native(analysis, var, context, pairs, budget):
    """Run one DYNSUM worklist in the kernel.

    Returns ``True`` when the query was fully handled (pairs added,
    budget synced, new summaries exported back into the Python cache —
    raising :class:`BudgetExceededError` exactly where the ``array``
    impl would), or ``False`` to make the caller rerun on the
    pure-Python path with all Python-side state untouched.

    The kernel mirrors a plain ``SummaryCache``: the analysis's own
    store, or the local tier of a remote store (one with a
    ``local_tier``) — a tier miss is a miss outright, exactly as the
    remote store's ``lookup`` decides, so the kernel's probes count on
    both stores, and each new summary also goes to the remote store's
    ``publish`` for the end-of-batch flush.  Every other store stays
    pure-Python.
    """
    cache = analysis.cache
    remote = None
    if type(cache) is not SummaryCache:
        tier = getattr(cache, "local_tier", None)
        if type(tier) is not SummaryCache:
            return False  # bounded stores and tiers
        remote, cache = cache, tier
    ng = graph_for(analysis.pag)
    if ng is None:
        return False
    sess = _session_for(ng, cache)
    if sess is None:
        return False
    ctx0 = ng.cstack_to_c(context)
    if ctx0 is None:
        if ng.broken is not None:
            _retire(ng, cache)  # graph_for refuses this image from now on
        return False
    image = ng.image
    config = analysis.config
    track = config.track_heap_contexts
    max_depth = config.max_field_depth
    limit = budget.limit
    res = ng.lib.rk_dynsum(
        sess.handle,
        image.node_index.get(var, image.n_nodes) * 4 + S1,
        ctx0,
        budget.steps,
        -1 if limit is None else limit,
        -1 if max_depth is None else max_depth,
        1 if track else 0,
    )
    if not res:
        ng.broken = "kernel out of memory"
        _retire(ng, cache)
        return False
    try:
        r = res.contents
        status = r.status
        if status < 0:
            # Kernel OOM mid-run: apply nothing.  The session table may
            # hold a partial commit — retire it with the graph.
            ng.broken = "kernel out of memory"
            _retire(ng, cache)
            return False
        nodes = image.nodes
        # New summaries first, in computation order, so the Python
        # cache's dict order — and a remote store's write buffer —
        # match what a pure-Python run would have produced (snapshots
        # iterate entries in insertion order).  They bypass the store's
        # journal: the kernel holds them already.
        n_new = r.n_new
        if n_new:
            entries = cache._entries
            by_method = cache._by_method
            publish = remote.publish if remote is not None else None
            from_c = ng.fstack_from_c
            new_t = r.new_t
            new_f = r.new_f
            new_steps = r.new_steps
            obj_off = r.new_obj_off
            new_obj = r.new_obj
            b_off = r.new_b_off
            new_b_t = r.new_b_t
            new_b_f = r.new_b_f
            for i in range(n_new):
                t = new_t[i]
                node = nodes[t >> 2]
                objects = [
                    nodes[new_obj[k]] for k in range(obj_off[i], obj_off[i + 1])
                ]
                if len(objects) > 1:
                    objects.sort(key=_object_order)
                boundaries = [
                    (nodes[new_b_t[k] >> 2], from_c(new_b_f[k]), new_b_t[k] & 3)
                    for k in range(b_off[i], b_off[i + 1])
                ]
                summary = PptaResult(objects, boundaries, steps=new_steps[i])
                key = (node, from_c(new_f[i]), t & 3)
                entries[key] = summary
                cache._facts += summary.size
                method = node.method
                if method is not None:
                    by_method.setdefault(method, set()).add(key)
                if publish is not None:
                    publish(*key, summary)
        n_pairs = r.n_pairs
        if n_pairs:
            pair_obj = r.pair_obj
            pair_ctx = r.pair_ctx
            ctx_from_c = ng.cstack_from_c
            pairs_add = pairs.add
            for i in range(n_pairs):
                pairs_add((nodes[pair_obj[i]], ctx_from_c(pair_ctx[i])))
        cache.misses += r.misses
        if r.hits:
            cache.hits += r.hits
        if remote is not None:
            remote.count_probes(r.hits, r.misses)
        budget.steps = r.total
    finally:
        ng.lib.rk_dyn_free(res)
    if status == 1:
        raise BudgetExceededError(limit)
    return True
