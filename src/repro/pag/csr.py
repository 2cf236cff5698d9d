"""The CSR traversal image: the PAG lowered to dense int arrays.

This module compiles the whole PAG into a handful of contiguous
buffers — a **CSR image** — that DYNSUM's traversal loops run over: the
``array`` loops in :mod:`repro.analysis.ppta` /
:mod:`repro.analysis.dynsum` index plain ``array('i')`` rows with
int-keyed visited sets and touch no per-node Python object at all, and
the C kernel (:mod:`repro.native`) reads the same buffers:

* a **node table** (``nodes``/``node_index``) assigning every edge
  endpoint a dense index, in first-touch order along :func:`_walk`;
* one **CSR group** (offsets + parallel value arrays) per local edge
  family, in exactly the per-node order of the accessor lists — the
  bit-equality of answers *and* step counts against
  :func:`~repro.analysis.ppta.run_ppta_reference` depends on matching
  that order;
* push-token and field ids drawn from the **process-global intern pool**
  (:func:`repro.cfl.stacks.token_id` / ``field_id``), so a PAG rebuild
  (an edit) or a CSR recompile never renumbers tokens;
* per-node **boundary flags** packed into one byte, with a trailing
  sentinel byte so an unindexed start node (mapped to the sentinel
  index ``n_nodes``) reads empty rows and a zero flag without a branch;
* flattened **cross-edge op lists** per direction, with the
  recursive-site bit folded into the op code at compile time
  (:data:`OP_PUSH_REC` / :data:`OP_POP_REC`), so the worklist never
  probes ``recursive_sites`` per crossing.

Every image is built in-process from a live PAG; nothing reads one back
from disk.  :func:`compile_csr` lowers a whole PAG and is the only way
to build an image from nothing.  After an edit, :func:`patch_csr`
derives the next image from the last one instead: surviving nodes keep
their indices, new nodes are appended, and dropped nodes keep an empty
row (listed in ``dead``), so anything keyed by node index — the native
kernel's graph and summary mirror — stays valid across the edit.  A
patched image equals a fresh compile *up to node numbering*; once dead
rows outnumber live ones, :meth:`PAG.csr <repro.pag.graph.PAG.csr>`
compiles afresh.  Image indices are therefore process-local and depend
on edit history: nothing may persist them or send them over the wire.

:func:`pag_fingerprint` — a crc over the PAG's edge dicts, node keys and
recursive-site set, taken in one pass that builds no arrays — names the
program version; the remote summary tier sends it with every
store-level op.  Neither compiling nor patching computes it.
"""

import sys
from array import array
from itertools import chain
from operator import attrgetter, itemgetter
from zlib import crc32

from repro.cfl.rsm import FAM_LOAD, FAM_STORE, S1, S2
from repro.cfl.stacks import field_id, token_id, token_table

#: Cross-op codes of the flattened crossing lists.  PUSH/POP come in a
#: recursive flavour — the compile-time folding of
#: ``site in pag.recursive_sites()`` — so the hot loop branches on the
#: op code alone.  CLEAR is the context-erasing ``assignglobal`` hop.
OP_PUSH = 0
OP_PUSH_REC = 1
OP_POP = 2
OP_POP_REC = 3
OP_CLEAR = 4

#: Bits of the per-node flags byte.
FLAG_GLOBAL_IN = 1
FLAG_GLOBAL_OUT = 2
FLAG_LOCAL = 4

#: The local-edge CSR groups, in (offsets, *values) layout.  Each entry
#: names the image attributes holding the group's arrays.
_GROUPS = (
    ("new_off", "new_val"),
    ("as_off", "as_val"),
    ("li_off", "li_tok", "li_val"),
    ("at_off", "at_val"),
    ("lf_off", "lf_fid", "lf_val"),
    ("si_off", "si_fid", "si_val"),
    ("sf_off", "sf_tok", "sf_val"),
    ("cb_off", "cb_op", "cb_site", "cb_tgt"),
    ("cf_off", "cf_op", "cf_site", "cf_tgt"),
)

_ARRAY_NAMES = tuple(name for group in _GROUPS for name in group)


#: The derived per-node row views (see :meth:`CsrImage._finalize`).
_ROW_NAMES = (
    "new_rows",
    "as_rows",
    "li_rows",
    "at_rows",
    "lf_rows",
    "si_rows",
    "sf_rows",
    "cb_rows",
    "cf_rows",
)


class CsrImage:
    """One compiled CSR image of a PAG.

    All ``*_off`` arrays have ``n_nodes + 1`` entries (the last is the
    group's total) and ``flags`` has ``n_nodes + 1`` bytes: the index
    ``n_nodes`` is the **sentinel row** an unindexed start node maps to
    (``node_index.get(node, n_nodes)``) — empty everywhere, flag zero —
    so the traversal loops never branch on "node not in the image".

    The ``array('i')``/``bytes`` attributes (``_ARRAY_NAMES`` +
    ``flags``) are the canonical dense form, the buffers the native
    kernel borrows pointers into.  The ``*_rows`` attributes are
    *derived* per-node tuples for the pure-Python ``array`` loops,
    built by :meth:`_finalize` on first access — CPython boxes a fresh
    int on every ``array('i')`` index, so those loops iterate prebuilt
    tuples whose elements (pre-packed visited-key addends, interned
    token objects, node references) are shared, making each traversal
    step allocation-free.  An image only the kernel reads never builds
    them.  Arrays are never written after an image is built, so a
    patched image shares every array its patch left unchanged.

    ``dead`` is the frozenset of indices whose node an edit dropped
    (always empty for a fresh compile): their rows are empty and their
    flag is zero, and ``node_index`` still resolves them, so keys
    recorded under an earlier image of the lineage can be retired.
    ``_native`` holds the native kernel's twin of the image (or the
    reason the kernel refused it); a patch hands the twin on.
    """

    __slots__ = (
        "n_nodes",
        "nodes",
        "node_index",
        "tokens",
        "tok_fid",
        "flags",
        "edge_counts",
        "node_counts",
        "dead",
        "_native",
        "__weakref__",
    ) + _ARRAY_NAMES + _ROW_NAMES

    def __getattr__(self, name):
        # Only reached for unset slots: the row views are built on
        # first access, all at once.
        if name in _ROW_NAMES:
            self._finalize()
            return getattr(self, name)
        raise AttributeError(name)

    def _finalize(self):
        """Derive the row tuples the ``array`` traversal loops iterate.

        Every packed element is ``index * 4 + state`` — the visited-key
        addend of :func:`repro.analysis.ppta._run_ppta_array`'s packing
        — so the loops turn one row element into a visited key with a
        single int add.  Runs at most once per image, on the first row
        access; it touches no PAG dicts and builds no per-node objects.
        """
        n = self.n_nodes
        nodes = self.nodes
        tokens = self.tokens

        def rows(offs, flat):
            out = [tuple(flat[offs[i] : offs[i + 1]]) for i in range(n)]
            out.append(())  # the sentinel row (index n)
            return out

        def packed(values, state):
            return [x * 4 + state for x in values.tolist()]

        # ``new`` rows hold the object *nodes* themselves — they are
        # only ever emitted into answers, never re-indexed.
        self.new_rows = rows(
            self.new_off.tolist(), [nodes[x] for x in self.new_val.tolist()]
        )
        self.as_rows = rows(self.as_off.tolist(), packed(self.as_val, S1))
        self.li_rows = rows(
            self.li_off.tolist(),
            list(zip(
                [tokens[t] for t in self.li_tok.tolist()],
                packed(self.li_val, S1),
            )),
        )
        self.at_rows = rows(self.at_off.tolist(), packed(self.at_val, S2))
        self.lf_rows = rows(
            self.lf_off.tolist(),
            list(zip(self.lf_fid.tolist(), packed(self.lf_val, S2))),
        )
        self.si_rows = rows(
            self.si_off.tolist(),
            list(zip(self.si_fid.tolist(), packed(self.si_val, S1))),
        )
        self.sf_rows = rows(
            self.sf_off.tolist(),
            list(zip(
                [tokens[t] for t in self.sf_tok.tolist()],
                packed(self.sf_val, S1),
            )),
        )
        # Crossing rows carry the op, the call site, the pre-packed
        # target addend for the direction's state, and the target node
        # itself (the worklist needs it for summary-cache keys).
        cb_tgt = self.cb_tgt.tolist()
        self.cb_rows = rows(
            self.cb_off.tolist(),
            list(zip(
                self.cb_op.tolist(),
                self.cb_site.tolist(),
                [x * 4 + S1 for x in cb_tgt],
                [nodes[x] for x in cb_tgt],
            )),
        )
        cf_tgt = self.cf_tgt.tolist()
        self.cf_rows = rows(
            self.cf_off.tolist(),
            list(zip(
                self.cf_op.tolist(),
                self.cf_site.tolist(),
                [x * 4 + S2 for x in cf_tgt],
                [nodes[x] for x in cf_tgt],
            )),
        )

    def __repr__(self):
        return (
            f"CsrImage({self.n_nodes} nodes, "
            f"{sum(self.edge_counts.values())} edges)"
        )


def pag_fingerprint(pag):
    """A crc32 identifying ``pag``'s graph: the contents and order of
    its edge dicts, the keys of the nodes they touch, and its
    recursive-site set.

    Deterministic for a given program version across processes and
    hosts (edge dicts are built in program order; fields and call
    sites are hashed by value, ints little-endian), and any wiring
    difference — same counts, same node names, different edges or a
    different per-node edge order — changes it, so anything keyed to
    one program version is never applied to a drifted graph.  One pass
    over the edge dicts, no arrays built: a caller that only needs the
    fingerprint (the remote tier, once per ``bind_pag``) pays this, not
    a lowering — and a lowering does not pay for it.  Memoized on the
    PAG until its next edge change.
    """
    fingerprint = pag._fingerprint
    if fingerprint is None:
        fingerprint = pag._fingerprint = _fingerprint(pag, *_walk(pag))
    return fingerprint


#: The PAG's edge dicts in lowering order, each with the position of
#: the node in its items (``None``: the items are nodes).  First touch
#: along this order (see :func:`_walk`) assigns the node indices, so it
#: fixes the image's bytes.
_EDGE_DICTS = (
    ("_new_in", None),
    ("_assign_in", None),
    ("_assign_out", None),
    ("_load_in", 0),
    ("_load_out", 1),
    ("_store_in", 0),
    ("_store_out", 1),
    ("_exit_in", 0),
    ("_entry_in", 0),
    ("_global_in", None),
    ("_entry_out", 1),
    ("_exit_out", 1),
    ("_global_out", None),
)

_LITTLE_ENDIAN = sys.byteorder == "little"
_SORT_KEY = attrgetter("sort_key")


def _walk(pag):
    """Every node ``pag``'s edge dicts mention, in :data:`_EDGE_DICTS`
    order with repeats (``touched``: each key, then its items' nodes),
    and the first-touch node table and index that stream induces."""
    touched = []
    touch = touched.append
    touch_all = touched.extend
    for name, position in _EDGE_DICTS:
        pick = None if position is None else itemgetter(position)
        for node, items in getattr(pag, name).items():
            touch(node)
            touch_all(items if pick is None else map(pick, items))
    nodes = list(dict.fromkeys(touched))
    return touched, nodes, dict(zip(nodes, range(len(nodes))))


def _fingerprint(pag, touched, nodes, node_index):
    """:func:`pag_fingerprint` over :func:`_walk`'s output: the node
    keys in index order, the touched stream as indices, the dicts'
    shapes (key count, then each key's item count) and the items'
    labels (field names, call sites)."""
    h = crc32(repr(sorted(pag.recursive_sites())).encode())
    # One format call for all node keys (every sort_key is a triple).
    keys = tuple(chain.from_iterable(map(_SORT_KEY, nodes)))
    h = crc32(("%s\x1f%s\x1f%s\x1e" * len(nodes) % keys).encode(), h)
    stream = array("i", list(map(node_index.__getitem__, touched)))
    shape = array("i")
    labels = []
    for name, position in _EDGE_DICTS:
        edges = getattr(pag, name)
        shape.append(len(edges))
        shape.extend(map(len, edges.values()))
        if position is not None:
            label = itemgetter(1 - position)
            labels.extend(map(label, chain.from_iterable(edges.values())))
    if not _LITTLE_ENDIAN:
        stream.byteswap()
        shape.byteswap()
    h = crc32(stream.tobytes(), h)
    h = crc32(shape.tobytes(), h)
    return crc32("\x1f".join(map(str, labels)).encode(), h)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
_FIRST = itemgetter(0)
_SECOND = itemgetter(1)
_THIRD = itemgetter(2)


def _group(edges, index_of, n):
    """The CSR form of one ``node -> [item]`` dict: its offsets
    (``n + 1`` entries) and its items concatenated in node-index order.
    The work is per key, not per node."""
    placed = sorted(zip(map(index_of, edges), edges.values()))
    offsets = []
    total = 0
    for i, items in placed:
        offsets += [total] * (i + 1 - len(offsets))
        total += len(items)
    offsets += [total] * (n + 1 - len(offsets))
    return array("i", offsets), list(chain.from_iterable(map(_SECOND, placed)))


def _load_token(fld):
    return token_id(fld, FAM_LOAD)


def _store_token(fld):
    return token_id(fld, FAM_STORE)


#: Where each local CSR group (``_GROUPS[:7]``) is read from: its edge
#: dict and, for a dict of pairs, ``(key_of, node_at, key_at)`` — the
#: id of an item's label and the item positions of node and label.
_LOCAL_SOURCES = (
    ("_new_in", None),
    ("_assign_in", None),
    ("_load_in", (_load_token, _FIRST, _SECOND)),
    ("_assign_out", None),
    ("_load_out", (field_id, _SECOND, _FIRST)),
    ("_store_in", (field_id, _FIRST, _SECOND)),
    ("_store_out", (_store_token, _SECOND, _FIRST)),
)

#: Where the two crossing groups (``_GROUPS[7:]``) are read from, in the
#: worklist's order: calls (push), returns (pop), then the
#: context-clearing assignglobal hops; and the item position of the
#: target node in a call or return item.
_CROSS_SOURCES = (
    ("_exit_in", "_entry_in", "_global_in", 0),
    ("_entry_out", "_exit_out", "_global_out", 1),
)

#: Each flag bit and the edge dicts whose keys carry it.
_FLAG_SOURCES = (
    (FLAG_GLOBAL_IN, ("_global_in", "_entry_in", "_exit_in")),
    (FLAG_GLOBAL_OUT, ("_global_out", "_entry_out", "_exit_out")),
    (FLAG_LOCAL, (
        "_new_in", "_assign_in", "_assign_out", "_load_in", "_load_out",
        "_store_in", "_store_out",
    )),
)

#: The edge dicts whose keys own CSR rows and flags — every dict an
#: image is read from: a node whose entries in them change needs its
#: rows patched (see :func:`patch_csr`).
ROW_DICTS = frozenset(name for _bit, names in _FLAG_SOURCES for name in names)


def _crossings(calls, returns, hops, target_at, recursive, index_of):
    """One node's crossing row: ``(op, site, target index)`` for its
    call items, then its return items, then its hops."""
    site_at = 1 - target_at
    row = [
        (OP_PUSH_REC if pair[site_at] in recursive else OP_PUSH, pair[site_at],
         index_of(pair[target_at]))
        for pair in calls
    ]
    row += [
        (OP_POP_REC if pair[site_at] in recursive else OP_POP, pair[site_at],
         index_of(pair[target_at]))
        for pair in returns
    ]
    row += [(OP_CLEAR, 0, index_of(target)) for target in hops]
    return row


def _lower(pag):
    """``pag`` as dense arrays: ``(nodes, node_index, arrays, flags)``
    with ``arrays`` keyed by :data:`_ARRAY_NAMES`.

    Node indices come from :func:`_walk` (first touch along
    :data:`_EDGE_DICTS`, so every edge endpoint has one); each CSR
    group is built in one pass over its edge dicts
    (:data:`_LOCAL_SOURCES`, :data:`_CROSS_SOURCES`), keeping the
    accessor lists' per-node order exactly.
    """
    _touched, nodes, node_index = _walk(pag)
    n = len(nodes)
    index_of = node_index.__getitem__
    arrays = {}
    for (off, *columns), (name, pairs) in zip(_GROUPS, _LOCAL_SOURCES):
        arrays[off], flat = _group(getattr(pag, name), index_of, n)
        if pairs is None:
            arrays[columns[0]] = array("i", map(index_of, flat))
            continue
        key_of, node_at, key_at = pairs
        keys = list(map(key_at, flat))
        # Intern in edge order, so ids stay deterministic per process.
        ids = {k: key_of(k) for k in dict.fromkeys(keys)}
        arrays[columns[0]] = array("i", map(ids.__getitem__, keys))
        arrays[columns[1]] = array("i", map(index_of, map(node_at, flat)))
    recursive = pag._recursive_sites
    for (off, op, site, tgt), (*names, target_at) in zip(_GROUPS[7:], _CROSS_SOURCES):
        calls, returns, hops = (getattr(pag, name) for name in names)
        rows = {
            node: _crossings(
                calls.get(node, ()), returns.get(node, ()), hops.get(node, ()),
                target_at, recursive, index_of,
            )
            for node in set().union(calls, returns, hops)
        }
        arrays[off], flat = _group(rows, index_of, n)
        arrays[op] = array("i", map(_FIRST, flat))
        arrays[site] = array("i", map(_SECOND, flat))
        arrays[tgt] = array("i", map(_THIRD, flat))

    flags = bytearray(n + 1)  # trailing zero sentinel for index -1
    for bit, names in _FLAG_SOURCES:
        for i in map(index_of, set().union(*(getattr(pag, name) for name in names))):
            flags[i] |= bit
    return nodes, node_index, arrays, bytes(flags)


def compile_csr(pag):
    """Lower ``pag`` into a fresh :class:`CsrImage` (see :func:`_lower`).

    Builds only the dense arrays the kernel reads; the ``array`` loops'
    row views follow on first use.  The oracle :func:`patch_csr`'s
    images equal up to node numbering.
    """
    nodes, node_index, arrays, flags = _lower(pag)
    image = CsrImage()
    for name in _ARRAY_NAMES:
        setattr(image, name, arrays[name])
    tokens = token_table()
    _finish(image, pag, nodes, node_index, flags, tokens, _tok_fid(tokens), frozenset())
    image._native = None
    return image


def _tok_fid(tokens):
    return {token: field_id(token[0]) for token in tokens}


def _finish(image, pag, nodes, node_index, flags, tokens, tok_fid, dead):
    image.n_nodes = len(nodes)
    image.nodes = nodes
    image.node_index = node_index
    image.flags = flags
    image.tokens = tokens
    image.tok_fid = tok_fid
    image.edge_counts = pag.edge_counts()
    image.node_counts = pag.node_counts()
    image.dead = dead


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def _node_rows(pag, node, index_of):
    """``node``'s row in every group of :data:`_GROUPS`, each a tuple of
    per-value-array lists, read as :func:`_lower` reads it (``index_of``
    numbers the nodes the rows name)."""
    rows = []
    for name, pairs in _LOCAL_SOURCES:
        items = getattr(pag, name).get(node, ())
        if pairs is None:
            rows.append(([index_of(x) for x in items],))
            continue
        key_of, node_at, key_at = pairs
        rows.append((
            [key_of(key_at(item)) for item in items],
            [index_of(node_at(item)) for item in items],
        ))
    for *names, target_at in _CROSS_SOURCES:
        row = _crossings(
            *(getattr(pag, name).get(node, ()) for name in names),
            target_at, pag._recursive_sites, index_of,
        )
        rows.append(tuple([entry[k] for entry in row] for k in range(3)))
    return tuple(rows)


def _node_flag(pag, node):
    return sum(
        bit for bit, names in _FLAG_SOURCES
        if any(node in getattr(pag, name) for name in names)
    )


#: The rows of a node without edges (read-only, shared).
_EMPTY_ROWS = tuple(([],) * (len(group) - 1) for group in _GROUPS)


def patch_csr(pag, image, changed, dropped):
    """The image of ``pag`` after an edit, derived from ``image``, its
    image before the edit; ``None`` when dead rows would outnumber live
    ones (the caller compiles afresh instead — compaction).

    ``changed`` are the nodes whose edge-dict entries the edit touched
    (the keys of every dict a row or a flag is read from) and
    ``dropped`` the nodes it left without any edge (see
    :meth:`PAG.replace_method_edges
    <repro.pag.graph.PAG.replace_method_edges>`).  Only their rows are
    rebuilt: a surviving node keeps its index, a node the new rows name
    for the first time is appended, and a dropped node keeps its index
    with an empty row and flag zero (it joins ``dead``).  A new node
    other than an object is itself a changed key (every edge is stored
    under both endpoints), and a dropped node has left the PAG's intern
    tables, so no later edit names it again.  Every group the edit left
    alone shares its value arrays with ``image``; its offsets only grow
    by the appended nodes' empty rows.

    The result is a new :class:`CsrImage` — the ``array`` loop's probe
    memo trusts image identity for its numbering — carrying ``image``'s
    native twin on (a cached refusal reason stays behind, so the kernel
    gets another try).
    """
    old_n = image.n_nodes
    nodes = list(image.nodes)
    node_index = dict(image.node_index)
    dead = set(image.dead)

    def index_of(node):
        index = node_index.get(node)
        if index is None:
            index = node_index[node] = len(nodes)
            nodes.append(node)
        return index

    for node in dropped:
        index = node_index.get(node)
        if index is not None:
            dead.add(index)
    rows = {}
    flags = {}
    for node in changed:
        flag = _node_flag(pag, node)
        if flag:
            index = index_of(node)
            flags[index] = flag
            rows[index] = _node_rows(pag, node, index_of)
        else:
            # No edge dict keys it: only an object, which owns no row,
            # can still be live — and objects are never ``changed``.
            index = node_index.get(node)
            if index is not None:
                dead.add(index)
                flags[index] = 0
                rows[index] = _EMPTY_ROWS
    n = len(nodes)
    if 2 * len(dead) > n:
        return None
    patched = CsrImage()
    per_group = list(zip(*rows.values())) if rows else [()] * len(_GROUPS)
    for group, group_rows in zip(_GROUPS, per_group):
        offsets = getattr(image, group[0])
        columns = [getattr(image, name) for name in group[1:]]
        # Only rows that differ from the image's are spliced in.
        edits = {}
        for index, row in zip(rows, group_rows):
            if index < old_n:
                lo, hi = offsets[index], offsets[index + 1]
                if all(old[lo:hi].tolist() == new for old, new in zip(columns, row)):
                    continue
            elif not row[0]:
                continue  # appended rows default to empty
            edits[index] = row
        offsets, columns = _splice(offsets, columns, edits, n)
        setattr(patched, group[0], offsets)
        for name, column in zip(group[1:], columns):
            setattr(patched, name, column)
    flag_bytes = bytearray(image.flags[:old_n])
    flag_bytes.extend(bytes(n - old_n + 1))
    for index, flag in flags.items():
        flag_bytes[index] = flag
    tokens = token_table()
    if len(tokens) == len(image.tokens):
        tokens, tok_fid = image.tokens, image.tok_fid
    else:
        tok_fid = _tok_fid(tokens)
    _finish(
        patched, pag, nodes, node_index, bytes(flag_bytes), tokens, tok_fid,
        frozenset(dead),
    )
    native = image._native
    patched._native = None if native is None or isinstance(native, str) else native
    return patched


def _splice(offsets, columns, edits, n):
    """One CSR group with rows replaced or appended: ``(offsets,
    columns)`` over ``n`` nodes, where ``edits`` maps a node index to
    its new row (a tuple of per-column lists) and every index at or
    past the old node count not in ``edits`` gets an empty row.
    Unchanged columns are returned as is; offsets past the first
    replaced row shift by the rows' length changes."""
    old_n = len(offsets) - 1
    total = offsets[old_n]
    if not edits:
        if n > old_n:
            offsets = offsets + array("i", [total]) * (n - old_n)
        return offsets, columns
    new_offsets = array("i")
    new_columns = [array("i") for _ in columns]
    shift = 0
    start = 0  # first old row not yet copied

    def copy_rows(stop):
        # Rows start..stop-1 unchanged: their starts shift, their
        # values copy at C speed.
        starts = offsets[start:stop]
        new_offsets.extend(
            array("i", [x + shift for x in starts]) if shift else starts
        )
        lo, hi = offsets[start], offsets[stop]
        for new, old in zip(new_columns, columns):
            new.extend(old[lo:hi])

    replaced = sorted(index for index in edits if index < old_n)
    for index in replaced:
        copy_rows(index)
        row = edits[index]
        new_offsets.append(offsets[index] + shift)
        for new, values in zip(new_columns, row):
            new.extend(values)
        shift += len(row[0]) - (offsets[index + 1] - offsets[index])
        start = index + 1
    copy_rows(old_n)
    total += shift
    for index in range(old_n, n):
        new_offsets.append(total)
        row = edits.get(index)
        if row:
            for new, values in zip(new_columns, row):
                new.extend(values)
            total += len(row[0])
    new_offsets.append(total)
    return new_offsets, new_columns
