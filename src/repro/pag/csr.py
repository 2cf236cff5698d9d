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

Every image is compiled in-process from a live PAG (:func:`compile_csr`,
memoized by :meth:`PAG.csr <repro.pag.graph.PAG.csr>`); nothing reads
one back from disk.  :func:`pag_fingerprint` — a crc over the PAG's
edge dicts, node keys and recursive-site set, taken in one pass that
builds no arrays — names the program version an image (or anything
keyed by its node indices) belongs to; the remote summary tier sends
it with every store-level op.
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
    them.
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
        "fingerprint",
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
    fingerprint (the remote tier) pays this, not a lowering.
    Memoized on the PAG until its next edge insertion; a compile fills
    the memo from the node walk it needs anyway.
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


def _lower(pag):
    """``pag`` as dense arrays: ``(nodes, node_index, arrays, flags,
    fingerprint)`` with ``arrays`` keyed by :data:`_ARRAY_NAMES`.

    Node indices come from :func:`_walk` (first touch along
    :data:`_EDGE_DICTS`, so every edge endpoint has one); each CSR
    group is built in one pass over its edge dict, keeping the accessor
    lists' per-node order exactly.  The fingerprint reuses the walk
    unless the PAG already memoized it.
    """
    touched, nodes, node_index = _walk(pag)
    n = len(nodes)
    index_of = node_index.__getitem__
    arrays = {}

    def nodes_group(edges, off, val):
        arrays[off], flat = _group(edges, index_of, n)
        arrays[val] = array("i", map(index_of, flat))

    def pairs_group(edges, off, key, val, key_of, node_at, key_at):
        arrays[off], flat = _group(edges, index_of, n)
        keys = list(map(key_at, flat))
        # Intern in edge order, so ids stay deterministic per process.
        ids = {k: key_of(k) for k in dict.fromkeys(keys)}
        arrays[key] = array("i", map(ids.__getitem__, keys))
        arrays[val] = array("i", map(index_of, map(node_at, flat)))

    nodes_group(pag._new_in, "new_off", "new_val")
    nodes_group(pag._assign_in, "as_off", "as_val")
    pairs_group(
        pag._load_in, "li_off", "li_tok", "li_val",
        lambda fld: token_id(fld, FAM_LOAD), _FIRST, _SECOND,
    )
    nodes_group(pag._assign_out, "at_off", "at_val")
    pairs_group(pag._load_out, "lf_off", "lf_fid", "lf_val", field_id, _SECOND, _FIRST)
    pairs_group(pag._store_in, "si_off", "si_fid", "si_val", field_id, _FIRST, _SECOND)
    pairs_group(
        pag._store_out, "sf_off", "sf_tok", "sf_val",
        lambda fld: token_id(fld, FAM_STORE), _SECOND, _FIRST,
    )

    # Crossing lists in the worklist's order: exits/entries first, then
    # the context-clearing assignglobal hops.
    recursive = pag._recursive_sites
    for prefix, calls, returns, hops, target_at in (
        ("cb", pag._exit_in, pag._entry_in, pag._global_in, 0),
        ("cf", pag._entry_out, pag._exit_out, pag._global_out, 1),
    ):
        site_at = 1 - target_at
        rows = {}
        for edges, op, op_rec in (
            (calls, OP_PUSH, OP_PUSH_REC),
            (returns, OP_POP, OP_POP_REC),
        ):
            for node, pairs in edges.items():
                rows.setdefault(node, []).extend([
                    (
                        op_rec if pair[site_at] in recursive else op,
                        pair[site_at],
                        index_of(pair[target_at]),
                    )
                    for pair in pairs
                ])
        for node, targets in hops.items():
            rows.setdefault(node, []).extend(
                [(OP_CLEAR, 0, index_of(target)) for target in targets]
            )
        arrays[prefix + "_off"], flat = _group(rows, index_of, n)
        arrays[prefix + "_op"] = array("i", map(_FIRST, flat))
        arrays[prefix + "_site"] = array("i", map(_SECOND, flat))
        arrays[prefix + "_tgt"] = array("i", map(_THIRD, flat))

    flags = bytearray(n + 1)  # trailing zero sentinel for index -1
    for bit, groups in (
        (FLAG_GLOBAL_IN, (pag._global_in, pag._entry_in, pag._exit_in)),
        (FLAG_GLOBAL_OUT, (pag._global_out, pag._entry_out, pag._exit_out)),
        (FLAG_LOCAL, (
            pag._new_in, pag._assign_in, pag._assign_out, pag._load_in,
            pag._load_out, pag._store_in, pag._store_out,
        )),
    ):
        for i in map(index_of, set().union(*groups)):
            flags[i] |= bit
    flags = bytes(flags)
    fingerprint = pag._fingerprint
    if fingerprint is None:
        fingerprint = _fingerprint(pag, touched, nodes, node_index)
    return nodes, node_index, arrays, flags, fingerprint


def compile_csr(pag):
    """Lower ``pag`` into a fresh :class:`CsrImage` (see :func:`_lower`).

    Builds only the dense arrays the kernel reads; the ``array`` loops'
    row views follow on first use.
    """
    nodes, node_index, arrays, flags, fingerprint = _lower(pag)
    image = CsrImage()
    image.n_nodes = len(nodes)
    image.nodes = nodes
    image.node_index = node_index
    for name in _ARRAY_NAMES:
        setattr(image, name, arrays[name])
    image.flags = flags
    image.tokens = token_table()
    image.tok_fid = {token: field_id(token[0]) for token in image.tokens}
    image.edge_counts = pag.edge_counts()
    image.node_counts = pag.node_counts()
    image.fingerprint = fingerprint
    image._native = None
    return image
