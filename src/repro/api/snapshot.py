"""Summary-store serialization: the ``SummarySnapshot`` format.

DYNSUM summaries are pure, context-independent memos keyed by *nominal*
node identity — ``(method, var)`` for locals, stable allocation labels
for objects — which makes the whole store a durable artifact: saved by
one process, replayed by another (a restarted IDE host, the next CI
run), or shipped to a remote shard server.  A snapshot round-trips
both local store classes (:class:`~repro.analysis.summaries.SummaryCache`
and the LRU :class:`~repro.analysis.summaries.BoundedSummaryCache`) and
preserves

* every entry — key node, field stack, direction, and the summary's
  objects, boundary tuples and recorded ``steps``;
* **LRU recency order** — entries are recorded coldest-first, so
  replaying them through ``store()`` reconstructs the LRU order exactly;
* the **capacity caps** (``max_entries``/``max_facts``) and the
  lifetime counters of :class:`~repro.analysis.summaries.CacheStats`.

A snapshot has one on-disk form: its canonical JSON text.  The binary
``RSNP`` container that earlier builds could write (the JSON plus a
serialized CSR image) is refused with a typed error that says to
re-save; traversal images are always compiled from the live PAG.

Files written by earlier builds may say ``"store": "sharded"`` and carry
per-shard ``shard_stats``.  They are still validated (the shard stats
must reconcile with the aggregate) and load as one store with the same
total caps and the aggregate counters.  Likewise a file from a
cost-aware store says ``"eviction": "cost"`` and may carry a ``cost``
object (an inflation clock and one priority per entry).  It must still
record a ceiling, and its ``cost`` object must still be well formed;
it then loads as an LRU store with the recorded caps, in the recorded
coldest-first order, and the priorities are ignored.

Loading is paranoid: a snapshot whose recorded stats disagree with its
own entries, whose version is unsupported, or whose structure is damaged
raises a typed :class:`~repro.api.protocol.SnapshotError` — never a
traceback.  Node references resolve against a PAG at load time; under
``strict=True`` an unresolvable entry is an error, under
``strict=False`` it is skipped (a summary is a memo — skipping one can
change cost, never answers), which is what engine warm-start uses when
the program may have drifted since the save.
"""

import base64
import json
import math
import sys
from array import array

from repro.analysis.ppta import PptaResult
from repro.analysis.summaries import (
    BoundedSummaryCache,
    CacheStats,
    SummaryCache,
    make_summary_store,
)
from repro.api.codec import build_message
from repro.api.protocol import (
    ProtocolError,
    SnapshotError,
    SummaryFrame,
    split_version,
)
from repro.cfl.rsm import S1, S2
from repro.cfl.stacks import EMPTY_STACK, intern_token
from repro.util.errors import IRError

#: Version of the snapshot format — "<major>.<minor>", checked on load
#: like the wire protocol's (major must match, minor may drift).  1.1
#: added two optional fields: per-entry ``steps`` (what a summary cost
#: to compute) and a top-level ``eviction`` policy name; 1.0 snapshots
#: load unchanged (steps default to 0).  1.2 added the optional
#: top-level ``cost`` object of a cost-aware store.  This build writes
#: neither ``eviction`` nor ``cost`` (LRU is the only policy, and an
#: LRU file never carried them), and reads both as described in the
#: module docstring.
SNAPSHOT_VERSION = "1.2"

#: The ``eviction`` values a file may carry; any other is refused.
_EVICTIONS = ("lru", "cost")

_KIND = "summary-snapshot"

#: A summary's ``steps`` must be below this, wherever an entry arrives
#: (a snapshot, a wire entry, a frame row): the kernel mirror keeps
#: step counts as int64.
STEPS_LIMIT = 2 ** 63

_STORE_UNBOUNDED = "unbounded"
_STORE_BOUNDED = "bounded"
#: Read only: a store partitioned into locked shards, written by earlier
#: builds; it loads as one store (see :meth:`SummarySnapshot.from_payload`).
_STORE_SHARDED = "sharded"


# ----------------------------------------------------------------------
# node references — nominal identity on the wire
#
# These helpers are the *format*: the snapshot below, the store-level
# wire ops (repro.api protocol 1.1) and the cache-service transport
# (repro.cacheserver) all serialize keys and entries through them, so
# one summary has exactly one wire form everywhere.
# ----------------------------------------------------------------------
def node_to_wire(node):
    if node.is_local_var:
        return {"kind": "local", "method": node.method, "name": node.name}
    if node.is_object:
        return {
            "kind": "object",
            "id": node.object_id,
            "class": node.class_name,
            "method": node.method,
        }
    if node.is_global_var:
        return {"kind": "global", "class": node.class_name, "field": node.field}
    raise SnapshotError(f"cannot serialize node {node!r} of type {type(node).__name__}")


_NODE_FIELDS = {
    "local": ("method", "name"),
    "object": ("id", "class", "method"),
    "global": ("class", "field"),
}
#: The exact keys of each kind's reference as :func:`node_to_wire`
#: writes it.
_NODE_KEYS = {kind: {"kind", *fields} for kind, fields in _NODE_FIELDS.items()}


def _check_node_wire(wire, path):
    if not isinstance(wire, dict):
        raise SnapshotError(f"{path}: node reference must be an object")
    kind = wire.get("kind")
    # An unhashable kind (a JSON array or object) is unknown, not a
    # TypeError escaping the typed-error contract.
    required = _NODE_FIELDS.get(kind) if isinstance(kind, str) else None
    if required is None:
        raise SnapshotError(f"{path}: unknown node kind {kind!r}")
    for key in required:
        # Every field must be present: a null ``method`` is a value, a
        # missing one is damage that resolving would trip over.
        if key not in wire:
            raise SnapshotError(f"{path}: missing node field {key!r}")
        value = wire[key]
        if not isinstance(value, str) and not (key == "method" and value is None):
            raise SnapshotError(f"{path}: node field {key!r} must be a string")
    return wire


def resolve_node(pag, wire):
    """The interned PAG node a reference names, or ``None`` when the
    entity no longer exists in this program version."""
    kind = wire["kind"]
    try:
        if kind == "local":
            return pag.find_local(wire["method"], wire["name"])
        if kind == "global":
            return pag.find_global(wire["class"], wire["field"])
        node = pag.object_node(wire["id"])
    except IRError:
        return None
    # Allocation labels are stable per program version but an edit can
    # reuse one for a different class; a mismatch means "not the same
    # object", so the entry must not be re-anchored onto it.
    if node.class_name != wire["class"]:
        return None
    return node


def stack_to_wire(stack):
    return [list(item) for item in stack.to_tuple()]


def _check_stack_wire(wire, path):
    """Structural validation of one wire field stack; returns it.  It
    builds no :class:`~repro.cfl.stacks.Stack` and interns no token, so
    a shard, which never reads one, keeps neither table growing."""
    if not isinstance(wire, list):
        raise SnapshotError(f"{path}: field stack must be an array")
    for i, item in enumerate(wire):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not isinstance(item[0], str)
            or item[1] not in (0, 1)
        ):
            raise SnapshotError(
                f"{path}[{i}]: field-stack entry must be [field, family(0|1)]"
            )
    return wire


def _push_wire(wire):
    """The :class:`~repro.cfl.stacks.Stack` a validated wire stack names."""
    stack = EMPTY_STACK
    for field, family in wire:
        # A family equal to 0 or 1 (``true``, ``1.0``) is pushed as the
        # int it stands for: stacks are hash-consed process-wide, so the
        # first push of a token decides how every equal stack writes it.
        stack = stack.push(intern_token(field, int(family)))
    return stack


def stack_from_wire(wire, path):
    return _push_wire(_check_stack_wire(wire, path))


def _check_state(state, path):
    """A validated state, as the int it stands for: a peer's ``1.0`` or
    ``true`` equals S1, and the kernel mirror takes only ints."""
    if state not in (S1, S2):
        raise SnapshotError(f"{path}: state must be {S1} (S1) or {S2} (S2)")
    return int(state)


# ----------------------------------------------------------------------
# keys and entries — the unit the store-level wire ops move around
# ----------------------------------------------------------------------
def key_to_wire(node, field_stack, state):
    """The wire form of one store key ``(node, field_stack, state)``."""
    return {
        "node": node_to_wire(node),
        "stack": stack_to_wire(field_stack),
        "state": state,
    }


def check_key(key, path="key"):
    """Structural validation of one wire store key; returns it."""
    if not isinstance(key, dict):
        raise SnapshotError(f"{path}: key must be an object")
    for field in ("node", "stack", "state"):
        if field not in key:
            raise SnapshotError(f"{path}: missing {field!r}")
    unknown = set(key) - {"node", "stack", "state"}
    if unknown:
        raise SnapshotError(f"{path}: unknown field(s) {sorted(unknown)!r}")
    _check_node_wire(key["node"], f"{path}.node")
    _check_stack_wire(key["stack"], f"{path}.stack")
    _check_state(key["state"], f"{path}.state")
    return key


def entry_to_wire(node, field_stack, state, summary):
    """The wire form of one cache entry (a snapshot entry)."""
    wire = key_to_wire(node, field_stack, state)
    wire["objects"] = [node_to_wire(obj) for obj in summary.objects]
    wire["boundaries"] = [
        {
            "node": node_to_wire(bnode),
            "stack": stack_to_wire(bstack),
            "state": bstate,
        }
        for bnode, bstack, bstate in summary.boundaries
    ]
    wire["steps"] = summary.steps
    return wire


def resolve_wire_entry(pag, entry, path="entry"):
    """Validate one wire entry and re-anchor it against ``pag``, in one
    walk.

    Raises the :class:`SnapshotError` :func:`check_entry` would raise
    for every shape it rejects — also when the entry would not resolve
    anyway, so a malformed entry never passes as merely stale.
    Returns ``(node, field_stack, state, PptaResult)``, or ``None`` when
    any referenced entity no longer exists in this program version —
    summaries are memos, so the caller treats that as a miss.  Each
    field stack is parsed once: the walk is what a wire client pays per
    fetched entry.
    """
    _check_entry_fields(entry, path)
    node = resolve_node(pag, _check_node_wire(entry["node"], f"{path}.node"))
    stack = stack_from_wire(entry["stack"], f"{path}.stack")
    state = _check_state(entry["state"], f"{path}.state")
    steps = _check_steps(entry, path)
    _check_payload_arrays(entry, path)
    objects = []
    for i, wire in enumerate(entry["objects"]):
        _check_object_wire(wire, f"{path}.objects[{i}]")
        if node is not None:
            obj = resolve_node(pag, wire)
            if obj is None:
                node = None  # keep walking: the rest must still validate
            else:
                objects.append(obj)
    boundaries = []
    for i, boundary in enumerate(entry["boundaries"]):
        bwire, bstack, bstate = _check_boundary(boundary, f"{path}.boundaries[{i}]")
        if node is not None:
            bnode = resolve_node(pag, bwire)
            if bnode is None:
                node = None
            else:
                boundaries.append((bnode, _push_wire(bstack), bstate))
    if node is None:
        return None
    return node, stack, state, PptaResult(objects, boundaries, steps=steps)


# ----------------------------------------------------------------------
# frames — many entries, each node reference and field stack once
# (protocol 1.10's fetch-methods answers: a trie of field stacks and
# packed rows)
# ----------------------------------------------------------------------
#: The ``array`` typecode that holds a packed row of each width: signed
#: 16-, 32- and 64-bit integers (C ``short``, ``int``, ``long long``).
ROW_TYPECODES = {2: "h", 4: "i", 8: "q"}

_BIG_ENDIAN = sys.byteorder == "big"


def pack_rows(rows):
    """The packed form of frame rows: base64 of a width byte, then each
    value as a little-endian signed integer of that width, the smallest
    of 2, 4 or 8 bytes that holds every value.  A value past int64
    raises ``OverflowError``."""
    for width, typecode in ROW_TYPECODES.items():  # narrowest first
        try:
            values = array(typecode, rows)
        except OverflowError:
            if width == 8:
                raise
            continue
        break
    if _BIG_ENDIAN:
        values.byteswap()
    return base64.b64encode(bytes((width,)) + values.tobytes()).decode("ascii")


def unpack_rows(packed, path):
    """The row values a packed string holds, as one ``array`` of its
    width's typecode (:data:`ROW_TYPECODES`), in the host's byte order.
    A string that is not strict base64 (a character outside the
    alphabet, bad padding), a width other than 2, 4 or 8, or a byte
    count that is not a multiple of the width raises a
    :class:`SnapshotError` naming ``path``."""
    # ``validate`` refuses every character outside the alphabet, but
    # some Pythons take padding past a whole quantum: only the padded
    # length and at most two trailing "=" are base64 as written.
    if len(packed) % 4 or packed.find("=", 0, len(packed) - 2) >= 0:
        raise SnapshotError(f"{path}: not base64 (bad padding)")
    try:
        raw = base64.b64decode(packed, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise SnapshotError(f"{path}: not base64 ({exc})") from None
    if not raw:
        raise SnapshotError(f"{path}: missing the width byte")
    width = raw[0]
    typecode = ROW_TYPECODES.get(width)
    if typecode is None:
        raise SnapshotError(f"{path}: row width must be 2, 4 or 8 bytes, got {width}")
    if (len(raw) - 1) % width:
        raise SnapshotError(
            f"{path}: the rows take {len(raw) - 1} bytes, not a multiple of "
            f"the width {width}"
        )
    values = array(typecode)
    values.frombytes(memoryview(raw)[1:])
    if _BIG_ENDIAN:
        values.byteswap()
    return values


def frame_rows(frame, path="frame"):
    """A frame's row values: its ``packed`` string decoded by
    :func:`unpack_rows`.  A frame with values in ``rows``, or with no
    ``packed`` string, is refused with a :class:`SnapshotError` naming
    the field."""
    if frame.rows:
        raise SnapshotError(f"{path}.rows: must be empty when the rows are packed")
    if frame.packed is None:
        raise SnapshotError(f"{path}.packed: missing")
    return unpack_rows(frame.packed, f"{path}.packed")


def ref_key(ref):
    """A hashable key for one validated node reference or field stack:
    two references share a key exactly when they are equal and encode
    to the same JSON.  ``None`` for a reference the key cannot vouch
    for — a node whose keys are not exactly its kind's, or a stack whose
    family is not an integer (``true`` equals ``1`` but encodes
    differently)."""
    if isinstance(ref, dict):
        kind = ref["kind"]
        if ref.keys() != _NODE_KEYS[kind]:
            return None
        return (kind, *[ref[name] for name in _NODE_FIELDS[kind]])
    key = tuple(map(tuple, ref))
    for _field, family in key:
        if type(family) is not int:
            return None
    return key


def pack_frame(entries):
    """The :class:`~repro.api.protocol.SummaryFrame` of validated wire
    entries, in their order: a trie of field stacks, and the rows
    packed by :func:`pack_rows`.

    The node table is keyed on object identity: a reference several
    entries share (a shard store shares equal ones, see
    :meth:`~repro.cacheserver.store.WireSummaryStore.store`) is written
    once.  Equal node references held as separate objects are each
    written, so the frame stays correct without sharing; only its
    table grows.  The trie writes each distinct prefix once either way;
    sharing saves walking it again.
    """
    node_rows = {}
    nodes = []
    stack_refs = {}
    stacks = []
    children = {}  # a trie row's (parent, field, family) -> its reference

    def node_row(wire):
        row = node_rows.get(id(wire))
        if row is None:
            row = node_rows[id(wire)] = len(nodes)
            nodes.append(wire)
        return row

    def stack_ref(wire):
        ref = stack_refs.get(id(wire))
        if ref is None:
            ref = 0
            for field, family in wire:
                # A validated family may be ``true``: it finds the row of
                # the 1 it equals, and a new row carries the int.
                key = (ref, field, family)
                child = children.get(key)
                if child is None:
                    stacks.append([ref, field, int(family)])
                    child = children[key] = len(stacks)
                ref = child
            stack_refs[id(wire)] = ref
        return ref

    rows = []
    for entry in entries:
        objects = entry["objects"]
        boundaries = entry["boundaries"]
        # A validated state may be ``true`` (it equals S1); rows are
        # integers, so it travels as the int it stands for.
        rows += (
            node_row(entry["node"]),
            stack_ref(entry["stack"]),
            int(entry["state"]),
            entry.get("steps", 0),
            len(objects),
        )
        rows += [node_row(wire) for wire in objects]
        rows.append(len(boundaries))
        for boundary in boundaries:
            rows += (
                node_row(boundary["node"]),
                stack_ref(boundary["stack"]),
                int(boundary["state"]),
            )
    return SummaryFrame(
        nodes=tuple(nodes), stacks=tuple(stacks), rows=(), packed=pack_rows(rows)
    )


def _trie_stacks(table, path):
    """The stacks a trie table names, by reference: the empty stack,
    then one per row, each one interned push onto its parent."""
    stacks = [EMPTY_STACK]
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise SnapshotError(
                f"{path}.stacks[{i}]: stack row must be [parent, field, family(0|1)]"
            )
        parent, field, family = row
        if type(parent) is not int or not 0 <= parent <= i:
            raise SnapshotError(
                f"{path}.stacks[{i}]: parent must be an integer from 0 to {i}"
            )
        if type(field) is not str:
            raise SnapshotError(f"{path}.stacks[{i}]: field must be a string")
        if type(family) is not int or not 0 <= family <= 1:
            raise SnapshotError(f"{path}.stacks[{i}]: family must be the integer 0 or 1")
        stacks.append(stacks[parent].push(intern_token(field, family)))
    return stacks


def resolve_frame_tables(pag, frame, path="frame"):
    """Validate a frame's node and stack tables and resolve them against
    ``pag``, each row once: ``(nodes, is_object, stacks)``, one value
    per node row and per stack reference — the PAG node a node row
    names (``None`` when this PAG lacks it), whether the row is an
    object reference, and the :class:`~repro.cfl.stacks.Stack` a stack
    reference names (the empty stack, then one per trie row).  A
    malformed row raises a :class:`SnapshotError` naming it; a node row
    gets the nominal checks' text."""
    nodes = []
    is_object = []
    for i, wire in enumerate(frame.nodes):
        kind = _check_node_wire(wire, f"{path}.nodes[{i}]")["kind"]
        nodes.append(resolve_node(pag, wire))
        is_object.append(kind == "object")
    return nodes, is_object, _trie_stacks(frame.stacks, path)


def resolve_frame(pag, frame, path="frame", tables=None, rows=None):
    """Validate a :class:`~repro.api.protocol.SummaryFrame` and re-anchor
    its entries against ``pag``, each table row once.

    Returns one ``(node, field_stack, state, PptaResult)`` per entry, in
    frame order, or ``None`` where :func:`resolve_wire_entry` would
    return it for the entry sent nominally (a referenced entity this
    PAG lacks).  Any damage refuses the whole frame with a
    :class:`SnapshotError` naming it (``frame.rows[17]``): a malformed
    table row (see :func:`resolve_frame_tables`), an index past its table,
    a negative integer, a ``steps`` of 2**63 or more, a state other
    than S1/S2, an object index naming a non-object node, or rows that
    end mid-entry.  ``tables`` and ``rows`` are what
    :func:`resolve_frame_tables` and :func:`frame_rows` already made of
    this frame, if anything.  The rows are read by index, and a value
    names the same damage at every width.
    """
    if rows is None:
        rows = frame_rows(frame, path)
    if tables is None:
        tables = resolve_frame_tables(pag, frame, path)
    nodes, is_object, stacks = tables
    end = len(rows)
    n_nodes = len(nodes)
    n_stacks = len(stacks)
    states = (S1, S2)
    entries = []
    pos = 0
    while pos < end:
        start = pos
        if pos + 6 > end:  # the key, steps and both counts
            raise _cut_error(path, start, end)
        node, stack, state, steps, count = rows[pos:pos + 5]
        if not 0 <= node < n_nodes:
            raise _index_error(path, pos, node, "node", n_nodes)
        if not 0 <= stack < n_stacks:
            raise _index_error(path, pos + 1, stack, "stack", n_stacks)
        if state not in states:
            raise _state_error(path, pos + 2)
        if not 0 <= steps < STEPS_LIMIT:
            raise _steps_error(path, pos + 3, steps)
        if count < 0:
            raise _index_error(path, pos + 4, count, "object count")
        pos += 5
        if pos + count >= end:
            raise _cut_error(path, start, end)
        key_node = nodes[node]
        resolved = key_node is not None
        objects = []
        for at in range(pos, pos + count):
            index = rows[at]
            if not (0 <= index < n_nodes and is_object[index]):
                if 0 <= index < n_nodes:
                    raise SnapshotError(f"{path}.rows[{at}]: must be an object node")
                raise _index_error(path, at, index, "node", n_nodes)
            obj = nodes[index]
            if obj is None:
                resolved = False
            objects.append(obj)
        pos += count
        n_boundaries = rows[pos]
        if n_boundaries < 0:
            raise _index_error(path, pos, n_boundaries, "boundary count")
        pos += 1
        if pos + 3 * n_boundaries > end:
            raise _cut_error(path, start, end)
        boundaries = []
        for at in range(pos, pos + 3 * n_boundaries, 3):
            bnode, bstack, bstate = rows[at:at + 3]
            if not 0 <= bnode < n_nodes:
                raise _index_error(path, at, bnode, "node", n_nodes)
            if not 0 <= bstack < n_stacks:
                raise _index_error(path, at + 1, bstack, "stack", n_stacks)
            if bstate not in states:
                raise _state_error(path, at + 2)
            boundary_node = nodes[bnode]
            if boundary_node is None:
                resolved = False
            boundaries.append((boundary_node, stacks[bstack], bstate))
        pos += 3 * n_boundaries
        entries.append(
            (key_node, stacks[stack], state, PptaResult(objects, boundaries, steps=steps))
            if resolved
            else None
        )
    return entries


class HeldFrame:
    """Frame entries a kernel session holds, with no Python summary
    built for them yet (see ``repro.native.session.hold_frame``).

    Keeps what the kernel read: the resolved ``nodes`` and ``stacks``
    tables, the frame's rows (the ``array`` the kernel walked), and
    the row ``offsets`` of the
    ``count`` entries it accepted, which hold ``facts`` objects and
    boundaries in all.  :meth:`build` resolves those rows as
    :func:`resolve_frame` does; the kernel validated them already.
    """

    __slots__ = ("nodes", "stacks", "rows", "offsets", "count", "facts")

    def __init__(self, nodes, stacks, rows, offsets, count, facts):
        self.nodes = nodes
        self.stacks = stacks
        self.rows = rows
        self.offsets = offsets
        self.count = count
        self.facts = facts

    def build(self):
        """The held entries as ``((node, field_stack, state),
        PptaResult)`` pairs, in frame order."""
        nodes = self.nodes
        stacks = self.stacks
        rows = self.rows
        built = []
        for at in self.offsets:
            node, stack, state, steps, count = rows[at:at + 5]
            at += 5
            objects = [nodes[index] for index in rows[at:at + count]]
            at += count
            end = at + 1 + 3 * rows[at]
            boundaries = [
                (nodes[rows[k]], stacks[rows[k + 1]], rows[k + 2])
                for k in range(at + 1, end, 3)
            ]
            built.append((
                (nodes[node], stacks[stack], state),
                PptaResult(objects, boundaries, steps=steps),
            ))
        return built


def _index_error(path, at, value, what, limit=None):
    if value < 0:
        detail = f"{what} must be a non-negative integer, got {value}"
    else:
        detail = f"{what} index {value} is past its table ({limit} rows)"
    return SnapshotError(f"{path}.rows[{at}]: {detail}")


def _steps_error(path, at, steps):
    if steps < 0:
        return _index_error(path, at, steps, "steps")
    return SnapshotError(f"{path}.rows[{at}]: steps must be below 2**63, got {steps}")


def _state_error(path, at):
    return SnapshotError(f"{path}.rows[{at}]: state must be {S1} (S1) or {S2} (S2)")


def _cut_error(path, start, end):
    return SnapshotError(
        f"{path}.rows[{start}]: the entry runs past the end of the rows "
        f"({end} values)"
    )


# ----------------------------------------------------------------------
# the snapshot object
# ----------------------------------------------------------------------
class SummarySnapshot:
    """A validated, store-independent image of one summary store.

    Build with :meth:`capture` (from a live store) or :meth:`loads` /
    :meth:`from_payload` (from serialized form — both validate
    structure, version, and stats/entry reconciliation).  Turn back into
    a store with :meth:`restore` (exact store class, caps, recency and
    counters) or feed an existing store with :meth:`load_into` (warm
    start).
    """

    __slots__ = ("store_kind", "stats", "entries")

    def __init__(self, store_kind, stats, entries):
        self.store_kind = store_kind
        self.stats = stats
        self.entries = entries

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, store):
        """Snapshot a live store (any local backend).

        A remote-backed store (one exposing ``local_tier``) is captured
        as its local tier — the process-local view; the
        shard servers' contents belong to the service, not to this
        client's snapshot.
        """
        local_tier = getattr(store, "local_tier", None)
        if local_tier is not None:
            store = local_tier
        if isinstance(store, BoundedSummaryCache):
            store_kind = _STORE_BOUNDED
        elif isinstance(store, SummaryCache):
            store_kind = _STORE_UNBOUNDED
        else:
            raise SnapshotError(
                f"cannot snapshot a {type(store).__name__}; expected a "
                "SummaryCache or a BoundedSummaryCache"
            )
        # Coldest-first, so replaying store() rebuilds recency order.
        entries = [
            entry_to_wire(node, stack, state, summary)
            for (node, stack, state), summary in store.entries_by_recency(
                hottest_first=False
            )
        ]
        return cls(store_kind, store.stats_snapshot(), entries)

    # ------------------------------------------------------------------
    # serialized form
    # ------------------------------------------------------------------
    def to_payload(self):
        return {
            "kind": _KIND,
            "snapshot_version": SNAPSHOT_VERSION,
            "store": self.store_kind,
            "shards": None,  # non-null only in "sharded" files
            "stats": _stats_to_wire(self.stats),
            "entries": self.entries,
        }

    def dumps(self):
        """Canonical JSON (sorted keys, compact) of the snapshot."""
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def loads(cls, text):
        try:
            payload = json.loads(text)
        except (ValueError, TypeError, RecursionError) as exc:
            raise SnapshotError(f"snapshot is not valid JSON: {exc}") from None
        return cls.from_payload(payload)

    @classmethod
    def from_payload(cls, payload):
        """Validate a decoded payload: structure, version, and the
        stats/entries reconciliation (recorded entry and fact totals must
        equal what the entry list actually holds).  A ``"sharded"``
        payload must also carry one ``shard_stats`` record per shard,
        summing to the aggregate; it then becomes a bounded or
        unbounded snapshot with the aggregate stats.  So does a
        cost-aware file, once its ceiling and ``cost`` object pass."""
        if not isinstance(payload, dict) or payload.get("kind") != _KIND:
            raise SnapshotError(f"not a {_KIND} payload")
        _check_snapshot_version(payload.get("snapshot_version"))
        store_kind = payload.get("store")
        if store_kind not in (_STORE_UNBOUNDED, _STORE_BOUNDED, _STORE_SHARDED):
            raise SnapshotError(f"unknown store kind {store_kind!r}")
        eviction = payload.get("eviction", "lru")
        if eviction not in _EVICTIONS:
            known = ", ".join(_EVICTIONS)
            raise SnapshotError(
                f"unknown eviction policy {eviction!r}; known: {known}"
            )
        stats = _stats_from_wire(payload.get("stats"), "stats")
        if (
            eviction == "cost"
            and stats.max_entries is None
            and stats.max_facts is None
        ):
            raise SnapshotError(
                "snapshot claims eviction='cost' but records no capacity "
                "ceiling — cost-aware stores are always bounded"
            )
        shards = payload.get("shards")
        shard_stats = None
        if store_kind == _STORE_SHARDED:
            if not isinstance(shards, int) or shards < 1:
                raise SnapshotError("sharded snapshot needs a positive 'shards'")
            raw = payload.get("shard_stats")
            if not isinstance(raw, list) or len(raw) != shards:
                raise SnapshotError(
                    f"sharded snapshot needs exactly {shards} 'shard_stats'"
                )
            shard_stats = [
                _stats_from_wire(s, f"shard_stats[{i}]") for i, s in enumerate(raw)
            ]
            store_kind = _STORE_BOUNDED if stats.bounded else _STORE_UNBOUNDED
        elif shards is not None:
            raise SnapshotError("'shards' is only valid for sharded stores")
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise SnapshotError("'entries' must be an array")
        facts = 0
        for i, entry in enumerate(entries):
            facts += check_entry(entry, f"entries[{i}]")
        if stats.entries != len(entries):
            raise SnapshotError(
                f"recorded stats disagree with entries: stats.entries="
                f"{stats.entries} but {len(entries)} entries are recorded"
            )
        if stats.facts != facts:
            raise SnapshotError(
                f"recorded stats disagree with entries: stats.facts="
                f"{stats.facts} but the entries hold {facts} facts"
            )
        if shard_stats is not None:
            for name, total, per_shard in (
                ("entries", stats.entries, sum(s.entries for s in shard_stats)),
                ("facts", stats.facts, sum(s.facts for s in shard_stats)),
                ("hits", stats.hits, sum(s.hits for s in shard_stats)),
                ("misses", stats.misses, sum(s.misses for s in shard_stats)),
            ):
                if total != per_shard:
                    raise SnapshotError(
                        f"shard stats do not reconcile: aggregate {name}="
                        f"{total} but the shards sum to {per_shard}"
                    )
        _check_cost(payload.get("cost"), eviction, len(entries))
        return cls(store_kind, stats, entries)

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def make_store(self):
        """An empty store with the snapshot's caps."""
        return make_summary_store(self.stats.max_entries, self.stats.max_facts)

    def restore(self, pag, strict=True):
        """Rebuild the snapshotted store against ``pag``.

        With ``strict`` (the default) every entry must resolve and fit —
        the exact round-trip guarantee; ``strict=False`` skips entries
        whose nodes no longer exist.  Lifetime counters are restored
        either way, so ``stats_snapshot()`` of a strict round-trip equals
        the saved one.
        """
        store = self.make_store()
        loaded, skipped = self.load_into(store, pag, strict=strict)
        if strict and len(store) != loaded:
            raise SnapshotError(
                "snapshot entries exceed its own capacity policy: "
                f"{loaded} loaded but only {len(store)} resident"
            )
        store.restore_counters(self.stats)
        return store

    def load_into(self, store, pag, strict=False):
        """Replay the snapshot's entries into an existing ``store``
        (coldest-first, preserving recency), resolving node references
        against ``pag``.  Returns ``(loaded, skipped)``; counters of the
        target store are left alone — a warm start is new traffic, not
        resumed accounting."""
        loaded = skipped = 0
        for i, entry in enumerate(self.entries):
            resolved = self._resolve_entry(pag, entry)
            if resolved is None:
                if strict:
                    raise SnapshotError(
                        f"entries[{i}] does not resolve in this PAG "
                        f"(key node {entry['node']!r})"
                    )
                skipped += 1
                continue
            node, stack, state, summary = resolved
            store.store(node, stack, state, summary)
            loaded += 1
        return loaded, skipped

    @staticmethod
    def _resolve_entry(pag, entry):
        return resolve_wire_entry(pag, entry)

    def __repr__(self):
        return (
            f"SummarySnapshot({self.store_kind}, {len(self.entries)} entries, "
            f"{self.stats.facts} facts)"
        )


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------
def _check_snapshot_version(version):
    try:
        major, _minor = split_version(version)
    except ProtocolError:
        raise SnapshotError(f"bad snapshot_version {version!r}") from None
    ours, _ = split_version(SNAPSHOT_VERSION)
    if major != ours:
        raise SnapshotError(
            f"unsupported snapshot_version {version!r} "
            f"(this build reads {SNAPSHOT_VERSION})"
        )


def _check_cost(wire, eviction, n_entries):
    """Validate a cost-aware file's ``cost`` object, if it has one: an
    inflation clock and one priority per entry, each a finite
    non-negative number.  Nothing reads the values."""
    if wire is None:
        return
    if eviction != "cost":
        raise SnapshotError("'cost' is only valid for cost-aware stores")
    if not isinstance(wire, dict) or set(wire) != {"clock", "priorities"}:
        raise SnapshotError("'cost' must be an object with 'clock' and 'priorities'")
    priorities = wire["priorities"]
    if not isinstance(priorities, list) or len(priorities) != n_entries:
        raise SnapshotError(
            f"'cost.priorities' must hold one number per entry ({n_entries})"
        )
    for value in (wire["clock"], *priorities):
        number = math.nan
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int past the float range
                number = math.inf
        if not (0 <= number < math.inf):  # also rejects NaN
            raise SnapshotError(
                "'cost' values must be finite non-negative numbers, "
                f"got {type(value).__name__} {str(value)[:32]}"
            )


def _stats_to_wire(stats):
    return {
        "entries": stats.entries,
        "facts": stats.facts,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "invalidated": stats.invalidated,
        "approx_bytes": stats.approx_bytes,
        "max_entries": stats.max_entries,
        "max_facts": stats.max_facts,
    }


def _stats_from_wire(wire, path):
    """A validated :class:`CacheStats` from its wire dict — the protocol
    codec's decoder, compiled from the dataclass annotations."""
    try:
        return build_message(CacheStats, wire, path)
    except Exception as exc:
        if isinstance(exc, SnapshotError):
            raise
        raise SnapshotError(f"{path}: {exc}") from None


def check_entry(entry, path="entry"):
    """Structural validation of one wire entry; returns its fact count.
    It builds no field stack (a shard validates every entry it stores).

    :func:`resolve_wire_entry` runs the same checks, in the same order,
    from the same helpers."""
    _check_entry_fields(entry, path)
    _check_node_wire(entry["node"], f"{path}.node")
    _check_stack_wire(entry["stack"], f"{path}.stack")
    _check_state(entry["state"], f"{path}.state")
    _check_steps(entry, path)
    _check_payload_arrays(entry, path)
    for i, wire in enumerate(entry["objects"]):
        _check_object_wire(wire, f"{path}.objects[{i}]")
    for i, boundary in enumerate(entry["boundaries"]):
        _check_boundary(boundary, f"{path}.boundaries[{i}]")
    return len(entry["objects"]) + len(entry["boundaries"])


def _check_entry_fields(entry, path):
    if not isinstance(entry, dict):
        raise SnapshotError(f"{path}: entry must be an object")
    for key in ("node", "stack", "state", "objects", "boundaries"):
        if key not in entry:
            raise SnapshotError(f"{path}: missing {key!r}")


def _check_steps(entry, path):
    steps = entry.get("steps", 0)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        raise SnapshotError(f"{path}.steps: must be a non-negative integer")
    if steps >= STEPS_LIMIT:
        raise SnapshotError(f"{path}.steps: must be below 2**63, got {steps}")
    return steps


def _check_payload_arrays(entry, path):
    if not isinstance(entry["objects"], list) or not isinstance(
        entry["boundaries"], list
    ):
        raise SnapshotError(f"{path}: objects/boundaries must be arrays")


def _check_object_wire(wire, path):
    if _check_node_wire(wire, path)["kind"] != "object":
        raise SnapshotError(f"{path}: must be an object node")


def _check_boundary(boundary, path):
    """One validated boundary: ``(node wire, stack wire, state)``."""
    if not isinstance(boundary, dict):
        raise SnapshotError(f"{path}: must be an object")
    return (
        _check_node_wire(boundary.get("node"), f"{path}.node"),
        _check_stack_wire(boundary.get("stack"), f"{path}.stack"),
        _check_state(boundary.get("state"), f"{path}.state"),
    )


# ----------------------------------------------------------------------
# file convenience — what engine persistence calls
# ----------------------------------------------------------------------
#: Leading bytes of the binary snapshot container (the JSON payload
#: plus a serialized CSR image) that earlier builds wrote.  This build
#: refuses such files by name.
_WITHDRAWN_CONTAINER_MAGIC = b"RSNP"


def save_store(store, path):
    """Snapshot ``store`` and write it to ``path`` as canonical JSON
    text; returns the :class:`SummarySnapshot`."""
    snapshot = SummarySnapshot.capture(store)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(snapshot.dumps())
        handle.write("\n")
    return snapshot


def load_snapshot(path):
    """Read and validate a snapshot file."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from None
    if raw.startswith(_WITHDRAWN_CONTAINER_MAGIC):
        raise SnapshotError(
            f"snapshot {path!r} is a binary RSNP container, a format this "
            "build no longer reads; re-save it with save_cache()"
        )
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"snapshot {path!r} is not UTF-8: {exc}") from None
    return SummarySnapshot.loads(text)


def load_store(path, pag, strict=True):
    """Read a snapshot file and rebuild its store against ``pag``."""
    return load_snapshot(path).restore(pag, strict=strict)
