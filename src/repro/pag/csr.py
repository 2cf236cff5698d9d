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

The image serializes into a versioned binary section
(:func:`serialize_csr` / :class:`CsrSection`) that
:mod:`repro.api.snapshot` embeds in its binary container; loading maps
the file with ``mmap`` and casts zero-copy ``memoryview`` rows over it,
so a warm-started engine installs the image without recompiling —
:attr:`PAG.csr_compiles <repro.pag.graph.PAG>` stays at zero on the warm
path.  A fingerprint over the PAG's edge dicts, node keys and
recursive-site set (:func:`pag_fingerprint`, one pass that builds no
arrays) guards installs: an image of a different program version is
rejected with a typed
:class:`~repro.api.protocol.SnapshotError`, never silently consumed.
"""

import json
import struct
import sys
from array import array
from itertools import chain
from operator import attrgetter, itemgetter
from zlib import crc32

from repro.api.protocol import SnapshotError
from repro.cfl.rsm import FAM_LOAD, FAM_STORE, S1, S2
from repro.cfl.stacks import field_id, field_table, intern_token, token_id, token_table

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

#: Binary section format: magic, native-endian tag, semver pair.  The
#: endian tag is written in the producer's byte order — a consumer on a
#: foreign-endian host reads it byte-swapped and rejects the image (the
#: int arrays are raw native ints; transcoding them is not worth a code
#: path nobody ships across).
_MAGIC = b"RCSR"
_ENDIAN_TAG = 0x01020304
CSR_FORMAT_VERSION = (1, 2)

#: The first minor whose ``fingerprint`` uses today's definition (see
#: :func:`pag_fingerprint`); older images are refused at install.
_FINGERPRINT_MINOR = 2

#: The native kernel's view of this layout (see ``repro/native``).
#: Snapshots are stamped with it (the ``kernel_abi`` meta key, new in
#: format 1.1); the native binding refuses an image whose stamp — or
#: lack of one, for pre-1.1 snapshots — disagrees with its own
#: ``RK_ABI_VERSION`` and the engine falls back to the pure-Python
#: ``array`` impl.  Bump together with ``RK_ABI_VERSION`` in
#: ``kernel.c`` / ``binding.py`` whenever the kernel's reading of the
#: arrays changes.
KERNEL_ABI_VERSION = 1

#: Header layout (native order, standard sizes would break the tag
#: check's purpose): magic, endian tag, major, minor, meta length,
#: reserved, payload length, payload crc32.
_HEADER = struct.Struct("=4sIHHIIQI")

_ITEMSIZE = array("i").itemsize

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
    """One compiled (or mmap-loaded) CSR image of a PAG.

    All ``*_off`` arrays have ``n_nodes + 1`` entries (the last is the
    group's total) and ``flags`` has ``n_nodes + 1`` bytes: the index
    ``n_nodes`` is the **sentinel row** an unindexed start node maps to
    (``node_index.get(node, n_nodes)``) — empty everywhere, flag zero —
    so the traversal loops never branch on "node not in the image".

    The ``array('i')``/``bytes`` attributes (``_ARRAY_NAMES`` +
    ``flags``) are the canonical dense form: what serializes, what the
    native kernel reads, and what the mmap loader hands back as
    zero-copy ``memoryview`` casts.  The ``*_rows`` attributes are
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
        "source",
        "kernel_abi",
        "_buffer",
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
        access; it touches no PAG dicts and builds no per-node objects,
        so a warm start stays free of graph recompilation.
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

    def matches(self, pag):
        """Whether this image describes exactly ``pag``'s graph."""
        return (
            self.edge_counts == pag.edge_counts()
            and self.node_counts == pag.node_counts()
            and self.fingerprint == pag_fingerprint(pag)
        )

    def __repr__(self):
        return (
            f"CsrImage({self.n_nodes} nodes, "
            f"{sum(self.edge_counts.values())} edges, {self.source})"
        )


def pag_fingerprint(pag):
    """A crc32 identifying ``pag``'s graph: the contents and order of
    its edge dicts, the keys of the nodes they touch, and its
    recursive-site set.

    Deterministic for a given program version across processes and
    hosts (edge dicts are built in program order; fields and call
    sites are hashed by value, ints little-endian), and any wiring
    difference — same counts, same node names, different edges or a
    different per-node edge order — changes it, so a stale image can
    never be installed over a drifted graph.  One pass over the edge
    dicts, no arrays built: a warm install pays this, not a lowering.
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
    image.source = "compiled"
    image.kernel_abi = KERNEL_ABI_VERSION
    image._buffer = None
    image._native = None
    return image


# ----------------------------------------------------------------------
# binary serialization
# ----------------------------------------------------------------------
def _node_to_compact(node):
    if node.is_local_var:
        return [0, node.method, node.name]
    if node.is_global_var:
        return [1, node.class_name, node.field]
    return [2, node.object_id, node.class_name, node.method]


def serialize_csr(image):
    """The binary section bytes for one compiled image."""
    payload_parts = []
    arrays_meta = {}
    offset = 0
    for name in _ARRAY_NAMES:
        data = getattr(image, name)
        raw = data.tobytes() if isinstance(data, array) else bytes(data)
        arrays_meta[name] = [offset, len(raw) // _ITEMSIZE]
        payload_parts.append(raw)
        offset += len(raw)
        if offset % 16:
            pad = 16 - offset % 16
            payload_parts.append(b"\x00" * pad)
            offset += pad
    flags_raw = bytes(image.flags)
    arrays_meta["flags"] = [offset, len(flags_raw)]
    payload_parts.append(flags_raw)
    payload = b"".join(payload_parts)

    meta = {
        "n_nodes": image.n_nodes,
        "nodes": [_node_to_compact(node) for node in image.nodes],
        "tokens": [list(token) for token in image.tokens],
        "fields": field_table(),
        "edge_counts": image.edge_counts,
        "node_counts": image.node_counts,
        "fingerprint": image.fingerprint,
        "itemsize": _ITEMSIZE,
        "kernel_abi": image.kernel_abi,
        "arrays": arrays_meta,
    }
    meta_raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = _HEADER.pack(
        _MAGIC,
        _ENDIAN_TAG,
        CSR_FORMAT_VERSION[0],
        CSR_FORMAT_VERSION[1],
        len(meta_raw),
        0,
        len(payload),
        crc32(payload),
    )
    # Pad the meta so the payload starts 16-byte aligned relative to the
    # section start — mmap'd casts then stay aligned for any file offset
    # that is itself 16-byte aligned.
    body = header + meta_raw
    if len(body) % 16:
        body += b"\x00" * (16 - len(body) % 16)
    return body + payload


class CsrSection:
    """A parsed (but not yet node-resolved) binary CSR section.

    Construction validates everything program-independent: magic, byte
    order, version, bounds, payload checksum, meta structure.
    :meth:`image_for` resolves the node table against a live PAG and
    verifies the fingerprint, yielding a :class:`CsrImage` whose arrays
    are zero-copy views over the underlying buffer (typically an
    ``mmap``); keep the buffer alive for the image's lifetime — the
    section holds a reference for exactly that reason.
    """

    def __init__(self, buffer, offset=0, length=None):
        self._buffer = buffer
        view = memoryview(buffer)
        if length is None:
            length = len(view) - offset
        if length < _HEADER.size or offset + length > len(view):
            raise SnapshotError("CSR section truncated: incomplete header")
        view = view[offset : offset + length]
        (
            magic,
            endian,
            major,
            minor,
            meta_len,
            _reserved,
            payload_len,
            payload_crc,
        ) = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise SnapshotError("not a CSR section (bad magic)")
        if endian != _ENDIAN_TAG:
            raise SnapshotError(
                "CSR section written on a foreign-endian host; "
                "recompile the image on this machine"
            )
        if major != CSR_FORMAT_VERSION[0]:
            raise SnapshotError(
                f"unsupported CSR format version {major}.{minor} "
                f"(this build reads {CSR_FORMAT_VERSION[0]}.x)"
            )
        meta_end = _HEADER.size + meta_len
        payload_start = meta_end + (16 - meta_end % 16 if meta_end % 16 else 0)
        if payload_start + payload_len > length:
            raise SnapshotError("CSR section truncated: payload out of bounds")
        payload = view[payload_start : payload_start + payload_len]
        if crc32(payload) != payload_crc:
            raise SnapshotError("CSR payload checksum mismatch (corrupt image)")
        try:
            meta = json.loads(bytes(view[_HEADER.size : meta_end]).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SnapshotError(f"CSR meta is not valid JSON: {exc}") from None
        self._meta = _check_meta(meta, payload_len)
        self._minor = minor
        self._payload = payload
        # Value-range validation (new with the native kernel): the C
        # loops index these arrays without Python's bounds checks, so a
        # CRC-passing but value-corrupt image must be rejected here with
        # the typed error — never handed to the kernel to segfault on.
        _check_payload_ranges(self._meta, payload)

    @property
    def fingerprint(self):
        return self._meta["fingerprint"]

    def image_for(self, pag):
        """Resolve this section against ``pag`` into a :class:`CsrImage`.

        Raises :class:`SnapshotError` when any node no longer exists or
        the fingerprint disagrees — the image describes a different
        program version and must not be installed.
        """
        meta = self._meta
        if meta["edge_counts"] != pag.edge_counts():
            raise SnapshotError("CSR image edge counts do not match this PAG")
        if meta["node_counts"] != pag.node_counts():
            raise SnapshotError("CSR image node counts do not match this PAG")
        if self._minor < _FINGERPRINT_MINOR:
            raise SnapshotError(
                f"CSR image format 1.{self._minor} predates this build's "
                f"fingerprint (1.{_FINGERPRINT_MINOR}); recompile it"
            )
        if meta["fingerprint"] != pag_fingerprint(pag):
            raise SnapshotError("CSR image fingerprint does not match this PAG")
        nodes = [_resolve_compact(pag, wire) for wire in meta["nodes"]]
        image = CsrImage()
        image.n_nodes = meta["n_nodes"]
        image.nodes = nodes
        image.node_index = {node: i for i, node in enumerate(nodes)}
        payload = self._payload
        for name in _ARRAY_NAMES:
            off, count = meta["arrays"][name]
            image_view = payload[off : off + count * _ITEMSIZE].cast("i")
            setattr(image, name, image_view)
        off, count = meta["arrays"]["flags"]
        image.flags = payload[off : off + count]
        tokens = [intern_token(fld, fam) for fld, fam in meta["tokens"]]
        image.tokens = tokens
        saved_fid = {fld: i for i, fld in enumerate(meta["fields"])}
        image.tok_fid = {
            token: saved_fid.get(token[0], -1) for token in tokens
        }
        image.edge_counts = meta["edge_counts"]
        image.node_counts = meta["node_counts"]
        image.fingerprint = meta["fingerprint"]
        image.source = "mmap"
        # Pre-1.1 sections carry no kernel ABI stamp: the native
        # binding sees ``None``, refuses the image, and the engine
        # falls back to the pure-Python loops (answers unchanged).
        image.kernel_abi = meta.get("kernel_abi")
        image._buffer = self._buffer
        image._native = None
        return image


def _resolve_compact(pag, wire):
    from repro.util.errors import IRError

    try:
        kind = wire[0]
        if kind == 0:
            return pag.find_local(wire[1], wire[2])
        if kind == 1:
            return pag.find_global(wire[1], wire[2])
        node = pag.object_node(wire[1])
    except IRError as exc:
        raise SnapshotError(f"CSR node does not resolve: {exc}") from None
    if node.class_name != wire[2]:
        raise SnapshotError(
            f"CSR object node {wire[1]!r} resolves to a different class"
        )
    return node


def _check_meta(meta, payload_len):
    if not isinstance(meta, dict):
        raise SnapshotError("CSR meta must be an object")
    for key in (
        "n_nodes",
        "nodes",
        "tokens",
        "fields",
        "edge_counts",
        "node_counts",
        "fingerprint",
        "itemsize",
        "arrays",
    ):
        if key not in meta:
            raise SnapshotError(f"CSR meta missing {key!r}")
    if meta["itemsize"] != _ITEMSIZE:
        raise SnapshotError(
            f"CSR image int width {meta['itemsize']} does not match this "
            f"host's {_ITEMSIZE}"
        )
    n = meta["n_nodes"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SnapshotError("CSR n_nodes must be a non-negative integer")
    for key in ("nodes", "tokens", "fields"):
        if not isinstance(meta[key], list):
            raise SnapshotError(f"CSR meta {key!r} must be an array")
    if len(meta["nodes"]) != n:
        raise SnapshotError("CSR node table length disagrees with n_nodes")
    if not all(isinstance(fld, str) for fld in meta["fields"]):
        raise SnapshotError("CSR field table entries must be strings")
    if not isinstance(meta["edge_counts"], dict) or not isinstance(
        meta["node_counts"], dict
    ):
        raise SnapshotError("CSR edge/node counts must be objects")
    if not isinstance(meta["fingerprint"], int):
        raise SnapshotError("CSR fingerprint must be an integer")
    abi = meta.get("kernel_abi")
    if abi is not None and (not isinstance(abi, int) or isinstance(abi, bool)):
        raise SnapshotError("CSR kernel_abi must be an integer when present")
    arrays = meta["arrays"]
    if not isinstance(arrays, dict):
        raise SnapshotError("CSR arrays meta must be an object")
    for name in _ARRAY_NAMES + ("flags",):
        entry = arrays.get(name)
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, int) and v >= 0 for v in entry)
        ):
            raise SnapshotError(f"CSR array {name!r} meta malformed")
        off, count = entry
        width = 1 if name == "flags" else _ITEMSIZE
        if off + count * width > payload_len:
            raise SnapshotError(f"CSR array {name!r} exceeds the payload")
        if name.endswith("_off") and count != n + 1:
            raise SnapshotError(f"CSR offsets {name!r} must have n_nodes+1 rows")
    if arrays["flags"][1] != n + 1:
        raise SnapshotError("CSR flags must have n_nodes+1 bytes")
    for i, wire in enumerate(meta["nodes"]):
        if not isinstance(wire, list) or len(wire) < 3 or wire[0] not in (0, 1, 2):
            raise SnapshotError(f"CSR node table entry {i} malformed")
    for i, token in enumerate(meta["tokens"]):
        if (
            not isinstance(token, list)
            or len(token) != 2
            or not isinstance(token[0], str)
            or token[1] not in (FAM_LOAD, FAM_STORE)
        ):
            raise SnapshotError(f"CSR token table entry {i} malformed")
    return meta


#: Which range every CSR value array's elements must lie in: node
#: indices, token-table indices, field-table indices, crossing op
#: codes.  ``*_site`` arrays are unconstrained (opaque call-site ids).
_NODE_VALUED = (
    "new_val", "as_val", "li_val", "at_val", "lf_val", "si_val", "sf_val",
    "cb_tgt", "cf_tgt",
)
_TOKEN_VALUED = ("li_tok", "sf_tok")
_FIELD_VALUED = ("lf_fid", "si_fid")
_OP_VALUED = ("cb_op", "cf_op")


def _check_payload_ranges(meta, payload):
    """Reject CRC-valid but value-corrupt images with a typed error.

    The pure-Python loops would raise ``IndexError`` (or silently
    misbehave) on an out-of-range index; the native kernel would read
    foreign memory.  Both are unacceptable failure modes for a snapshot
    load, so every offset array is checked for monotonicity and every
    value array for its domain before an image is ever built.  The
    kernel re-validates on its side (defense in depth), but this check
    is what turns corruption into :class:`SnapshotError` for pure-Python
    consumers too.
    """
    n = meta["n_nodes"]
    arrays = meta["arrays"]

    def values(name):
        off, count = arrays[name]
        return payload[off : off + count * _ITEMSIZE].cast("i").tolist()

    for group in _GROUPS:
        offs = values(group[0])
        if offs[0] != 0:
            raise SnapshotError(f"CSR offsets {group[0]!r} must start at 0")
        prev = 0
        for value in offs:
            if value < prev:
                raise SnapshotError(f"CSR offsets {group[0]!r} are not monotone")
            prev = value
        for name in group[1:]:
            if arrays[name][1] != prev:
                raise SnapshotError(
                    f"CSR array {name!r} length disagrees with its offsets"
                )

    def domain(names, upper, what):
        for name in names:
            data = values(name)
            if data and (min(data) < 0 or max(data) >= upper):
                raise SnapshotError(
                    f"CSR array {name!r} holds an out-of-range {what}"
                )

    domain(_NODE_VALUED, n, "node index")
    domain(_TOKEN_VALUED, len(meta["tokens"]), "token id")
    domain(_FIELD_VALUED, max(len(meta["fields"]), 1), "field id")
    domain(_OP_VALUED, OP_CLEAR + 1, "crossing op code")
