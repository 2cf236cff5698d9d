"""Python ↔ kernel marshalling for the native traversal impl.

Two object layers bridge the gap between the pure-Python analyses and
the C kernel in ``kernel.c``:

* :class:`_NativeGraph` — one per :class:`~repro.pag.csr.CsrImage`,
  cached on ``image._native``.  Hands the kernel borrowed pointers to
  the 26 CSR arrays (``array('i')`` copies for mmap images, whose
  ``memoryview`` rows are read-only and unaddressable through ctypes),
  plus the token tables and the **sort ranks**: the Python-computed
  ordinal of every node's ``sort_key`` and every token tuple, which
  make the kernel's boundary sort order-isomorphic to
  :func:`~repro.analysis.ppta._boundary_order` without ever comparing
  Python objects in C.  It also owns the py↔C translation caches for
  hash-consed stacks — both sides intern, so the mapping is a pair of
  dicts that only ever grows along push chains.
* :class:`_NativeSession` — one per ``(SummaryCache, image)`` pair,
  cached on ``cache._native_memo``.  Mirrors the cache's ``_entries``
  into the kernel's summary table (delta-synced by entry count: the
  plain cache only ever appends) so the kernel can probe and commit
  summaries without calling back into Python.

Everything here is **refuse-and-fall-back**: any state the kernel
cannot represent (a stack value outside int32, a foreign token in an
imported boundary, kernel OOM) returns ``None``/``False`` to the
dispatch layer, which reruns the query on the pure-Python ``array``
impl — answers and step counts never depend on the kernel being
usable, only latency does.
"""

from array import array
from ctypes import POINTER, byref, c_int32, cast

from repro.native.binding import (
    _GRAPH_ERRORS,
    N_ARRAYS,
    RK_ABI_VERSION,
    availability,
    load_kernel,
)

_PI32 = POINTER(c_int32)
_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1

# Deferred to call time in the hot helpers would be wasted work: by the
# time this module is imported (always from inside repro.analysis), the
# analysis modules are fully initialized, so top-level imports are safe
# and there is no cycle — ppta/dynsum never import this module at
# module level.
from repro.analysis.ppta import PptaResult, _boundary_order, _object_order
from repro.cfl.rsm import FAM_LOAD, S1
from repro.cfl.stacks import EMPTY_STACK
from repro.util.errors import BudgetExceededError


def _addr(int_array):
    """A ``POINTER(c_int32)`` over an ``array('i')`` buffer."""
    return cast(int_array.buffer_info()[0], _PI32)


def _as_int_array(data):
    """``data`` as an addressable ``array('i')`` (zero-copy when it
    already is one — the compiled-image case)."""
    if isinstance(data, array):
        return data
    copy = array("i")
    copy.frombytes(data.tobytes())
    return copy


class _NativeGraph:
    """The kernel-side twin of one CSR image (see module docstring)."""

    __slots__ = (
        "lib",
        "image",
        "handle",
        "keep",
        "tok_index",
        "tokens_by_id",
        "n_image_tokens",
        "fs_py2c",
        "fs_c2py",
        "cs_py2c",
        "cs_c2py",
        "broken",
    )

    def __init__(self, lib, image, handle, keep, tok_index, tokens_by_id):
        self.lib = lib
        self.image = image
        self.handle = handle
        #: Buffers the kernel borrows pointers into — kept alive here.
        self.keep = keep
        self.tok_index = tok_index
        self.tokens_by_id = tokens_by_id
        #: Ids below this are the image's own tokens; at or above are
        #: synthetics registered for standalone-PPTA start stacks
        #: (rank 0 — they never reach a session's boundary sort).
        self.n_image_tokens = len(tokens_by_id)
        self.fs_py2c = {EMPTY_STACK: 0}
        self.fs_c2py = {0: EMPTY_STACK}
        self.cs_py2c = {EMPTY_STACK: 0}
        self.cs_c2py = {0: EMPTY_STACK}
        #: A reason string once the kernel handle is poisoned (OOM) —
        #: :func:`graph_for` retires the graph and falls back.
        self.broken = None

    def __del__(self):
        try:
            if self.handle:
                self.lib.rk_graph_free(self.handle)
                self.handle = None
        except Exception:
            pass  # interpreter teardown

    # ------------------------------------------------------------------
    # token registration
    # ------------------------------------------------------------------
    def _add_token(self, token):
        """Register a non-image token (standalone start stacks only).

        Mirrors the ``array`` impl's treatment of foreign tokens: the
        field id is ``tok_fid.get(token, -1)`` — so a token the image
        never interned matches no load/store row — and only the
        ``FAM_LOAD`` family bit matters.
        """
        try:
            fam = 0 if token[1] == FAM_LOAD else 1
        except (TypeError, IndexError, KeyError):
            return None
        try:
            fid = self.image.tok_fid.get(token, -1)
        except TypeError:  # unhashable token — cannot key the map either
            return None
        if not isinstance(fid, int) or not _INT32_MIN <= fid <= _INT32_MAX:
            return None
        tid = self.lib.rk_graph_add_token(self.handle, fid, fam)
        if tid < 0:
            self.broken = "kernel out of memory"
            return None
        self.tok_index[token] = tid
        self.tokens_by_id.append(token)
        return tid

    # ------------------------------------------------------------------
    # stack translation (both directions memoized along push chains)
    # ------------------------------------------------------------------
    def fstack_to_c(self, stack, image_only=False):
        """The kernel id of ``stack``; ``None`` when unrepresentable.

        ``image_only`` refuses tokens outside the image's own table —
        required for session imports, where a foreign token would break
        the worklist invariant the boundary sort relies on.
        """
        py2c = self.fs_py2c
        got = py2c.get(stack)
        if got is not None:
            if image_only and not self._image_only(stack):
                return None
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
        limit = self.n_image_tokens
        push = self.lib.rk_fstack_push
        handle = self.handle
        c2py = self.fs_c2py
        for s2 in reversed(chain):
            token = s2._top
            tid = tok_index.get(token)
            if tid is None:
                if image_only:
                    return None
                tid = self._add_token(token)
                if tid is None:
                    return None
            elif image_only and tid >= limit:
                return None
            cid = push(handle, cid, tid)
            if cid < 0:
                self.broken = "kernel out of memory"
                return None
            py2c[s2] = cid
            c2py.setdefault(cid, s2)
        return cid

    def _image_only(self, stack):
        tok_index = self.tok_index
        limit = self.n_image_tokens
        s = stack
        while s._rest is not None:
            tid = tok_index.get(s._top)
            if tid is None or tid >= limit:
                return False
            s = s._rest
        return True

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


def _build_graph(lib, image):
    """A :class:`_NativeGraph` over ``image``, or a reason string."""
    from repro.pag.csr import _ARRAY_NAMES, KERNEL_ABI_VERSION

    abi = getattr(image, "kernel_abi", None)
    if abi != KERNEL_ABI_VERSION:
        if abi is None:
            return "snapshot predates the kernel ABI stamp; regenerate it"
        return (
            f"snapshot kernel ABI {abi} does not match this build's "
            f"{KERNEL_ABI_VERSION}"
        )
    if abi != RK_ABI_VERSION:  # csr.py and binding.py must agree
        return "kernel ABI constants disagree across modules"
    n = image.n_nodes
    if n >= 2 ** 29:  # index * 4 + state must stay in int32
        return f"image too large for the kernel ({n} nodes)"
    keep = []
    pointers = (_PI32 * N_ARRAYS)()
    counts = (c_int32 * N_ARRAYS)()
    for i, name in enumerate(_ARRAY_NAMES):
        buf = _as_int_array(getattr(image, name))
        keep.append(buf)
        pointers[i] = _addr(buf)
        counts[i] = len(buf)
    flags = bytes(image.flags)
    keep.append(flags)

    tokens = image.tokens
    tok_fid_map = image.tok_fid
    tok_fid = array("i", [tok_fid_map.get(t, -1) for t in tokens])
    tok_fam = array("i", [0 if t[1] == FAM_LOAD else 1 for t in tokens])
    tok_rank = array("i", [0] * len(tokens))
    for pos, idx in enumerate(sorted(range(len(tokens)), key=tokens.__getitem__)):
        tok_rank[idx] = pos
    nodes = image.nodes
    node_rank = array("i", [0] * n)
    order = sorted(range(n), key=lambda i: nodes[i].sort_key)
    for pos, idx in enumerate(order):
        node_rank[idx] = pos
    keep.extend((tok_fid, tok_fam, tok_rank, node_rank))

    err = c_int32(0)
    handle = lib.rk_graph_new(
        n,
        pointers,
        counts,
        flags,
        len(tokens),
        _addr(tok_fid),
        _addr(tok_fam),
        _addr(tok_rank),
        _addr(node_rank),
        byref(err),
    )
    if not handle:
        return _GRAPH_ERRORS.get(err.value, f"kernel rejected the image ({err.value})")
    tok_index = {token: i for i, token in enumerate(tokens)}
    return _NativeGraph(lib, image, handle, keep, tok_index, list(tokens))


def graph_for(pag):
    """The native twin of ``pag``'s CSR image, or ``None`` (fall back).

    The outcome — graph or reason — is cached on ``image._native``; a
    poisoned graph (kernel OOM) is retired here, replacing the cached
    graph with its reason so later calls fail fast.
    """
    lib, _reason = load_kernel()
    if lib is None:
        return None
    image = pag.csr()
    native = image._native
    if native is None:
        native = _build_graph(lib, image)
        image._native = native
    if type(native) is not _NativeGraph:
        return None  # a cached reason string
    if native.broken is not None:
        image._native = native.broken
        return None
    return native


def native_unavailable_reason(pag=None):
    """Why the native impl would fall back right now, or ``None``.

    Reports the binding-level reason (no compiler, disabled, ABI
    mismatch) first; with a ``pag`` whose CSR image has already been
    refused by the kernel, that image-level reason instead.
    """
    ok, reason = availability()
    if not ok:
        return reason
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
    same structural keys.  On fallback the budget is untouched — the
    pure-Python rerun proceeds as if this call never happened.
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
    """A kernel summary table mirroring one plain ``SummaryCache``."""

    __slots__ = ("graph", "handle", "synced")

    def __init__(self, graph, handle):
        self.graph = graph  # strong ref: the graph must outlive us
        self.handle = handle

    def __del__(self):
        try:
            if self.handle:
                self.graph.lib.rk_session_free(self.handle)
                self.handle = None
        except Exception:
            pass  # interpreter teardown


def _session_for(ng, cache):
    """The kernel session mirroring ``cache``, delta-synced; ``None``
    refuses native for this cache (the reason is cached so later
    queries fail fast rather than re-importing)."""
    image = ng.image
    memo = cache._native_memo
    if memo is not None and memo[0] is image:
        sess = memo[1]
        if sess is None:
            return None  # previously refused (unrepresentable entry)
    else:
        handle = ng.lib.rk_session_new(ng.handle)
        if not handle:
            ng.broken = "kernel out of memory"
            return None
        sess = _NativeSession(ng, handle)
        sess.synced = 0
        cache._native_memo = (image, sess)
    entries = cache._entries
    count = len(entries)
    if sess.synced < count:
        items = list(entries.items())[sess.synced :]
        for (node, fstack, state), summary in items:
            if not _import_entry(ng, sess, node, fstack, state, summary):
                if ng.broken is not None:
                    cache._native_memo = None
                else:
                    cache._native_memo = (image, None)
                return None
        sess.synced = count
    return sess


def _import_entry(ng, sess, node, fstack, state, summary):
    """Mirror one Python cache entry into the kernel table.

    Entries the kernel can never be asked about — keys whose node is
    not in the image, or whose stack uses non-image tokens (the native
    worklist only ever carries image tokens) — are skipped, not
    imported.  Entries it *could* be asked about but cannot represent
    (foreign boundary tokens, unindexed objects) refuse the whole
    session: a partial mirror would make probes miss where Python hits,
    diverging step counts.
    """
    image = ng.image
    index_get = image.node_index.get
    si = index_get(node)
    if si is None:
        return True  # unreachable natively: skip
    f = ng.fstack_to_c(fstack, image_only=True)
    if f is None:
        if ng.broken is not None:
            return False
        return True  # foreign key token: never probed natively
    n = image.n_nodes
    objs = []
    for obj in summary.objects:
        oi = index_get(obj)
        if oi is None:
            return False  # cannot emit this object as an index
        objs.append(oi)
    b_t = []
    b_f = []
    for x, bfs, bstate in summary.boundaries:
        bf = ng.fstack_to_c(bfs, image_only=True)
        if bf is None:
            return False
        b_t.append(index_get(x, n) * 4 + bstate)
        b_f.append(bf)
    n_obj = len(objs)
    n_b = len(b_t)
    rc = ng.lib.rk_summary_put(
        sess.handle,
        si * 4 + state,
        f,
        summary.steps,
        n_obj,
        (c_int32 * n_obj)(*objs) if n_obj else None,
        n_b,
        (c_int32 * n_b)(*b_t) if n_b else None,
        (c_int32 * n_b)(*b_f) if n_b else None,
    )
    if rc != 0:
        ng.broken = "kernel out of memory"
        return False
    return True


def explore_native(analysis, var, context, pairs, budget):
    """Run one DYNSUM worklist in the kernel.

    Returns ``True`` when the query was fully handled (pairs added,
    budget synced, new summaries exported back into the Python cache —
    raising :class:`BudgetExceededError` exactly where the ``array``
    impl would), or ``False`` to make the caller rerun on the
    pure-Python path with all Python-side state untouched.
    """
    from repro.analysis.summaries import SummaryCache

    cache = analysis.cache
    if type(cache) is not SummaryCache:
        return False  # bounded/sharded/remote caches stay pure-Python
    ng = graph_for(analysis.pag)
    if ng is None:
        return False
    sess = _session_for(ng, cache)
    if sess is None:
        return False
    ctx0 = ng.cstack_to_c(context)
    if ctx0 is None:
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
        cache._native_memo = None
        return False
    try:
        r = res.contents
        status = r.status
        if status < 0:
            # Kernel OOM mid-run: apply nothing.  The session table may
            # hold a partial commit — retire it with the graph.
            ng.broken = "kernel out of memory"
            cache._native_memo = None
            return False
        nodes = image.nodes
        # New summaries first, in computation order, so the Python
        # cache's dict order matches what a pure-Python run would have
        # produced (snapshots iterate entries in insertion order).
        n_new = r.n_new
        if n_new:
            entries = cache._entries
            by_method = cache._by_method
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
            sess.synced = len(entries)
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
        budget.steps = r.total
    finally:
        ng.lib.rk_dyn_free(res)
    if status == 1:
        raise BudgetExceededError(limit)
    return True
