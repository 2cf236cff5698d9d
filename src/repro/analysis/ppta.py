"""PPTA — the Partial Points-To Analysis of Algorithm 3 (``DSPOINTSTO``).

Given a start state ``(node, field-stack, S1|S2)``, the PPTA explores the
*local* edges (``new``/``assign``/``load``/``store``) of the node's method,
field-sensitively but context-independently, following the
``pointsTo``/``alias`` RSM of Figure 3(a):

* in S1 (backward) it collects objects reached through ``new`` edges with
  an empty field stack, turns around into S2 at allocation sites when
  fields are still pending, follows ``assign`` edges backward and pushes
  on ``load`` edges;
* in S2 (forward) it follows ``assign`` edges forward, pops on matching
  ``load``-from-base and ``store``-into-base edges, and pushes (switching
  to S1 at the store's base) on ``store``-from-value edges.

Whenever the traversal reaches a node with a *global* edge in the travel
direction, the current state is emitted as a **boundary tuple**; the
DYNSUM worklist (Algorithm 4) continues from those across global edges.

Because local edges never touch the calling context, the result — a
:class:`PptaResult` — is valid in *every* context, which is exactly what
makes it cacheable across queries (Section 4.1).

The recursion of Algorithm 3 is implemented iteratively (explicit stack)
so that long local assign chains cannot overflow Python's call stack; the
``visited`` set on ``(node, field-stack, state)`` triples plays the role
of Algorithm 3's ``visited`` parameter, preventing cyclic re-traversal.

Three implementations live here, answer-identical by construction and by
the differential battery in ``tests/test_ppta_fastpath.py``:

* :func:`_run_ppta_native` — the default.  It runs the loop in the C
  kernel (``repro/native/kernel.c``) over the PAG's CSR image, and
  reruns on ``array`` whenever the kernel cannot serve.
* :func:`_run_ppta_array` — the pure-Python loop over the same CSR image
  (:mod:`repro.pag.csr`): packed-int states, pre-packed target rows,
  interned push tokens through hash-consed stacks, every hot name bound
  locally, and a local step counter synced back to the budget on every
  exit path — so steps, abort behaviour and results are bit-identical
  to the reference.
* :func:`run_ppta_reference` — the straight-line accessor-based loop,
  retained as the oracle for the differential tests and the baseline of
  the ``repro-perf`` speedup measurement.

:func:`run_ppta` dispatches to the active implementation;
:func:`traversal_impl` switches it (the perf harness runs whole
workloads under each).
"""

from contextlib import contextmanager

from repro.cfl.rsm import FAM_LOAD, FAM_STORE, S1, S2
from repro.cfl.stacks import lookup_field_id
from repro.util.errors import BudgetExceededError


class PptaResult:
    """Outcome of one PPTA: objects plus boundary tuples.

    ``objects`` — :class:`ObjectNode`s proven to flow to the start node
    through local edges alone (context-independent, so valid anywhere).
    ``boundaries`` — ``(node, field_stack, state)`` tuples at which the
    exploration hit the method boundary.
    ``steps`` — traversal steps the PPTA charged to build this summary:
    the recomputation cost a cache saves on a hit.  It is metadata, not
    payload: an equal re-store keeps the larger count, and snapshots,
    wire entries and prefetch frames carry it, but no store decides
    anything by it.  Zero for synthesized results (trivial boundaries,
    legacy snapshots).
    """

    __slots__ = ("objects", "boundaries", "steps", "size")

    def __init__(self, objects, boundaries, steps=0):
        self.objects = tuple(objects)
        self.boundaries = tuple(boundaries)
        self.steps = steps
        #: Number of facts in the summary (the Figure 5 metric) — a
        #: plain attribute because the store layer reads it per insert.
        self.size = len(self.objects) + len(self.boundaries)

    def __repr__(self):
        return f"PptaResult({len(self.objects)} object(s), {len(self.boundaries)} boundary tuple(s))"


def _object_order(obj):
    return obj.object_id


def _boundary_order(boundary):
    """Structural sort key for one boundary tuple.

    Uses the node's precomputed ``sort_key`` — a ``(kind, owner, name)``
    tuple — instead of ``repr(node)``: no string building per
    comparison, and the order is deterministic across processes and
    ``PYTHONHASHSEED`` values by construction.
    """
    node, field_stack, state = boundary
    return (node.sort_key, state, field_stack.to_tuple())


# ----------------------------------------------------------------------
# the CSR array loop
# ----------------------------------------------------------------------
def _run_ppta_array(pag, node, field_stack, state, budget, max_field_depth=None):
    """``DSPOINTSTO`` over the CSR image (:mod:`repro.pag.csr`).

    Pushes in the reference loop's order per expansion, with the same
    LIFO discipline and depth-check placement, so steps, abort
    behaviour and results stay bit-identical to
    :func:`run_ppta_reference`; what changes is the representation.  A
    traversal state is one **packed int** ``t = index * 4 + state``
    (an unindexed start maps to the sentinel index ``n_nodes``, whose
    rows are empty), worklist items are ``(t, stack)`` pairs, and the
    visited key is ``stack._uid * stride + t`` with
    ``stride = 4 * (n_nodes + 1)`` — injective because ``t < stride``.
    Stacks are canonical (hash-consed pushes), so uid equality is
    structural equality.  The image rows carry targets *pre-packed*, so
    one attempted push costs an int add and an int hash — no tuple is
    built or hashed.

    Private slots of :class:`~repro.cfl.stacks.Stack` are read directly
    (``_rest``/``_size``/``_top``/``_uid``): the properties they back
    are function calls, and this loop runs ~75k times per budget-bound
    query.
    """
    image = pag.csr()
    n = image.n_nodes
    si = image.node_index.get(node, n)
    steps_before = budget.steps
    limit = budget.limit
    # Lists, not sets: a state is popped at most once (the visited set
    # guards every push), each boundary IS its popped state, and each
    # object belongs to exactly one ``new`` edge — so neither list can
    # ever see a duplicate.
    objects = []
    boundaries = []

    # ------------------------------------------------------------------
    # Single-expansion prologue.  Most summaries (~75% on the synthetic
    # suite) need only one or two states; expanding the start state into
    # a plain ``pending`` list first lets the single-state majority skip
    # the visited-set machinery and the general-phase local bindings
    # entirely.  Within one expansion every pushed item is distinct
    # (disjoint edge groups, distinct stacks/states), so the only
    # duplicate possible is a self-loop back to the start — guarded by
    # comparing the packed target with the start state, since stack and
    # state match the start's exactly there.
    # ------------------------------------------------------------------
    if limit is not None and steps_before >= limit:
        budget.steps = steps_before + 1
        raise BudgetExceededError(limit)
    f0 = field_stack
    pending = []
    start = si * 4 + state
    if state == S1:
        row = image.new_rows[si]
        if row:
            if f0._rest is None:
                objects.extend(row)
            else:
                pending.append((start + 1, f0))  # "new new-bar" turnaround
        for t in image.as_rows[si]:
            if t == start:
                continue  # self-assign: equals the start state
            pending.append((t, f0))
        row = image.li_rows[si]
        if row:
            if max_field_depth is not None and f0._size >= max_field_depth:
                budget.steps = steps_before + 1
                raise BudgetExceededError(limit)
            for token, t in row:
                pending.append((t, f0.push(token)))
        if image.flags[si] & 1:  # FLAG_GLOBAL_IN
            boundaries.append((node, f0, S1))
    else:
        for t in image.at_rows[si]:
            if t == start:
                continue  # self-assign: equals the start state
            pending.append((t, f0))
        rest = f0._rest
        if rest is not None:
            top = f0._top
            top_fid = lookup_field_id(top[0], -1)
            for fid, t in image.lf_rows[si]:
                if fid == top_fid:
                    pending.append((t, rest))
            if top[1] == FAM_LOAD:
                for fid, t in image.si_rows[si]:
                    if fid == top_fid:
                        pending.append((t, rest))
        row = image.sf_rows[si]
        if row:
            if max_field_depth is not None and f0._size >= max_field_depth:
                budget.steps = steps_before + 1
                raise BudgetExceededError(limit)
            for token, t in row:
                pending.append((t, f0.push(token)))
        if image.flags[si] & 2:  # FLAG_GLOBAL_OUT
            boundaries.append((node, f0, S2))
    if not pending:
        budget.steps = steps_before + 1
        return PptaResult(
            sorted(objects, key=_object_order) if len(objects) > 1 else objects,
            boundaries,  # at most one entry here — no sort needed
            steps=1,
        )

    # ------------------------------------------------------------------
    # General phase: the full worklist, seeded with the prologue's
    # pushes (LIFO order identical to an in-loop start expansion).
    # Locals-bound hot names: every global/attribute read below this
    # line that the loop repeats is now a LOAD_FAST.
    # ------------------------------------------------------------------
    stride = n * 4 + 4
    nodes = image.nodes
    new_rows = image.new_rows
    as_rows = image.as_rows
    li_rows = image.li_rows
    at_rows = image.at_rows
    lf_rows = image.lf_rows
    si_rows = image.si_rows
    sf_rows = image.sf_rows
    flags = image.flags
    field_id_of = lookup_field_id
    visited = {field_stack._uid * stride + start}
    stack = []
    for item in pending:
        visited.add(item[1]._uid * stride + item[0])
        stack.append(item)
    visited_add = visited.add
    stack_pop = stack.pop
    stack_append = stack.append
    add_boundary = boundaries.append
    extend_objects = objects.extend
    push_limit = max_field_depth
    size_of = len  # LOAD_FAST for the add-and-compare visited probes
    allowed = None if limit is None else limit - steps_before
    steps = 1  # the prologue's start expansion
    try:
        while stack:
            t, f = stack_pop()
            steps += 1
            if allowed is not None and steps > allowed:
                raise BudgetExceededError(limit)
            # Insertion pattern throughout: add + size check instead of
            # `in` + add — one hash per attempted push, not two.
            fkey = f._uid * stride
            vi = t >> 2
            if t & 1:  # S1 (states are 1 and 2 — bit 0 distinguishes)
                row = new_rows[vi]
                if row:
                    if f._rest is None:  # empty stack: emit the objects
                        extend_objects(row)
                    else:
                        # "new new-bar" turnaround (Algorithm 3 line 10).
                        key = fkey + t + 1
                        size = size_of(visited)
                        visited_add(key)
                        if size_of(visited) != size:
                            stack_append((t + 1, f))
                for t2 in as_rows[vi]:
                    key = fkey + t2
                    size = size_of(visited)
                    visited_add(key)
                    if size_of(visited) != size:
                        stack_append((t2, f))
                row = li_rows[vi]
                if row:
                    if push_limit is not None and f._size >= push_limit:
                        raise BudgetExceededError(limit)
                    for token, t2 in row:
                        pushed = f.push(token)
                        key = pushed._uid * stride + t2
                        size = size_of(visited)
                        visited_add(key)
                        if size_of(visited) != size:
                            stack_append((t2, pushed))
                if flags[vi] & 1:
                    add_boundary((nodes[vi], f, S1))
            else:
                for t2 in at_rows[vi]:
                    key = fkey + t2
                    size = size_of(visited)
                    visited_add(key)
                    if size_of(visited) != size:
                        stack_append((t2, f))
                rest = f._rest
                if rest is not None:
                    top = f._top
                    top_fid = field_id_of(top[0], -1)
                    rkey = rest._uid * stride
                    for fid, t2 in lf_rows[vi]:
                        if fid == top_fid:  # forward load closes either family
                            key = rkey + t2
                            size = size_of(visited)
                            visited_add(key)
                            if size_of(visited) != size:
                                stack_append((t2, rest))
                    if top[1] == FAM_LOAD:
                        for fid, t2 in si_rows[vi]:
                            if fid == top_fid:
                                # store-bar: only a pending backward load
                                # may be closed here; the matching store's
                                # value continues backward.
                                key = rkey + t2
                                size = size_of(visited)
                                visited_add(key)
                                if size_of(visited) != size:
                                    stack_append((t2, rest))
                row = sf_rows[vi]
                if row:
                    # The tracked object is stored into b.g — look for
                    # aliases of the base backward, with g pending (B).
                    if push_limit is not None and f._size >= push_limit:
                        raise BudgetExceededError(limit)
                    for token, t2 in row:
                        pushed = f.push(token)
                        key = pushed._uid * stride + t2
                        size = size_of(visited)
                        visited_add(key)
                        if size_of(visited) != size:
                            stack_append((t2, pushed))
                if flags[vi] & 2:
                    add_boundary((nodes[vi], f, S2))
    finally:
        # Sync the local step counter on every exit path (normal,
        # budget-abort, depth-abort) so the budget object reads exactly
        # as if charge() had been called once per pop.
        budget.steps = steps_before + steps
    # Singleton/empty fact sets need no sort — the common case for the
    # paper's small, local-heavy methods.
    return PptaResult(
        sorted(objects, key=_object_order) if len(objects) > 1 else objects,
        sorted(boundaries, key=_boundary_order) if len(boundaries) > 1 else boundaries,
        steps=steps,
    )


# ----------------------------------------------------------------------
# the reference implementation (the oracle)
# ----------------------------------------------------------------------
def run_ppta_reference(pag, node, field_stack, state, budget, max_field_depth=None):
    """Accessor-based ``DSPOINTSTO`` — the differential oracle.

    Straight-line code: one helper call per state expansion, PAG
    accessor methods for every edge list, fresh stack-entry tuples and
    freshly allocated stack nodes (``push_uncached``) per push.  Kept so
    the ``array`` and ``native`` loops can always be checked (and
    benchmarked) against it.  Only the fact ordering is shared with them
    (structural sort keys), so all three return bit-identical results.
    """
    objects = set()
    boundaries = set()
    start = (node, field_stack, state)
    visited = {start}
    stack = [start]
    push_limit = max_field_depth
    steps_before = budget.steps

    while stack:
        v, f, s = stack.pop()
        budget.charge()
        if s == S1:
            _expand_s1(pag, v, f, objects, boundaries, visited, stack, push_limit, budget)
        else:
            _expand_s2(pag, v, f, boundaries, visited, stack, push_limit, budget)
    return PptaResult(
        sorted(objects, key=_object_order),
        sorted(boundaries, key=_boundary_order),
        steps=budget.steps - steps_before,
    )


def _push_state(visited, stack, state_tuple):
    if state_tuple not in visited:
        visited.add(state_tuple)
        stack.append(state_tuple)


def _check_depth(field_stack, limit, budget):
    if limit is not None and len(field_stack) >= limit:
        raise BudgetExceededError(budget.limit)


def _expand_s1(pag, v, f, objects, boundaries, visited, stack, push_limit, budget):
    """Transitions out of state S1 (backward / flowsTo-bar) at ``v``."""
    new_sources = pag.new_sources(v)
    if new_sources:
        if f.is_empty:
            objects.update(new_sources)
        else:
            # "new new-bar" turnaround (Algorithm 3 line 10): the object
            # allocated into v must now be tracked forward to find aliases.
            _push_state(visited, stack, (v, f, S2))
    for x in pag.assign_sources(v):
        _push_state(visited, stack, (x, f, S1))
    for base, g in pag.load_into(v):
        _check_depth(f, push_limit, budget)
        _push_state(visited, stack, (base, f.push_uncached((g, FAM_LOAD)), S1))
    if pag.has_global_in(v):
        boundaries.add((v, f, S1))


def _expand_s2(pag, v, f, boundaries, visited, stack, push_limit, budget):
    """Transitions out of state S2 (forward / flowsTo) at ``v``."""
    for x in pag.assign_targets(v):
        _push_state(visited, stack, (x, f, S2))
    top = f.peek()
    if top is not None:
        top_field = top[0]
        for g, x in pag.load_from(v):
            if g == top_field:  # forward load closes either family
                _push_state(visited, stack, (x, f.pop(), S2))
        if top[1] == FAM_LOAD:
            for x, g in pag.store_into(v):
                if g == top_field:
                    # store-bar: only a pending backward load may be
                    # closed here; the matching store's value continues
                    # backward.
                    _push_state(visited, stack, (x, f.pop(), S1))
    for g, b in pag.store_from(v):
        # The tracked object is stored into b.g — look for aliases of the
        # base b backward, with g pending (family B).
        _check_depth(f, push_limit, budget)
        _push_state(visited, stack, (b, f.push_uncached((g, FAM_STORE)), S1))
    if pag.has_global_out(v):
        boundaries.add((v, f, S2))


# ----------------------------------------------------------------------
# the native kernel driver
# ----------------------------------------------------------------------
#: Lazily bound ``repro.native.session.run_ppta_native`` — the import
#: is deferred to first use because the native package imports this
#: module at its own import time.
_NATIVE_DRIVER = []


def _run_ppta_native(pag, node, field_stack, state, budget, max_field_depth=None):
    """``DSPOINTSTO`` in the C kernel (``repro/native/kernel.c``).

    Bit-equal to :func:`_run_ppta_array` in answers, step counts and
    abort behaviour; when the kernel is unavailable (no compiler, ABI
    mismatch, ``REPRO_NATIVE=0``) or cannot represent the start state,
    the call silently reruns on the ``array`` loop — the budget is
    untouched by a refused native attempt, so the rerun charges exactly
    what a plain ``array`` call would have.
    """
    if not _NATIVE_DRIVER:
        from repro.native.session import run_ppta_native

        _NATIVE_DRIVER.append(run_ppta_native)
    result = _NATIVE_DRIVER[0](pag, node, field_stack, state, budget, max_field_depth)
    if result is None:
        return _run_ppta_array(pag, node, field_stack, state, budget, max_field_depth)
    return result


# ----------------------------------------------------------------------
# implementation dispatch
# ----------------------------------------------------------------------
TRAVERSAL_IMPLS = {
    "array": _run_ppta_array,
    "native": _run_ppta_native,
    "reference": run_ppta_reference,
}

#: The active implementation, mutated only by :func:`traversal_impl`.
#: ``native`` from boot: a host where the kernel cannot load answers on
#: the ``array`` loop, with the reason in engine stats.  A one-slot dict
#: rather than a module global so ``from ppta import run_ppta`` bindings
#: stay valid.
_ACTIVE = {"impl": "native"}


def active_traversal_impl():
    """The name of the implementation :func:`run_ppta` dispatches to."""
    return _ACTIVE["impl"]


@contextmanager
def traversal_impl(name):
    """Temporarily select a PPTA implementation
    (``array``/``native``/``reference``).

    Used by the differential tests and the ``repro-perf`` harness to run
    whole workloads under one loop.  Process-global — callers must not
    fan traversals out on a thread pool while switched.
    """
    if name not in TRAVERSAL_IMPLS:
        known = ", ".join(sorted(TRAVERSAL_IMPLS))
        raise ValueError(f"unknown traversal impl {name!r}; known: {known}")
    previous = _ACTIVE["impl"]
    _ACTIVE["impl"] = name
    try:
        yield
    finally:
        _ACTIVE["impl"] = previous


def run_ppta(pag, node, field_stack, state, budget, max_field_depth=None):
    """Run ``DSPOINTSTO(node, field_stack, state)`` over ``pag``.

    ``budget`` is charged one step per visited state; exhaustion raises
    :class:`BudgetExceededError` out of this function (the caller marks
    the whole query incomplete and discards the partial summary).
    ``max_field_depth`` optionally bounds the field stack; crossing it is
    treated exactly like budget exhaustion.

    Dispatches to the active implementation (see :func:`traversal_impl`)
    — the C kernel by default (``array`` where it cannot load).
    """
    return TRAVERSAL_IMPLS[_ACTIVE["impl"]](
        pag, node, field_stack, state, budget, max_field_depth
    )
