"""Seeded fuzz of the frame decoder, :func:`repro.api.snapshot.resolve_frame`.

Valid frames come from a shard: random entries (local, object and
global node references, both stack families, both states, any steps;
some naming entities the program lacks) are stored in a shard's
``WireSummaryStore`` and fetched through its dispatcher at protocol
1.10 (a trie of stack rows, the rows packed), and again at 1.7 for the
same entries nominally.  Damaged frames are such a frame's JSON with
one defect: an index past its table, rows cut mid-entry, a negative
count, an object index that names a local, a state of 0 or 3, a junk
node row, a junk stack row, a negative index, a value past int32, a
value at the int64 boundary, or any row value swapped for a small
integer.  A junk trie row breaks one rule of its own: a parent naming
the row itself, a later row, a row past the table, a negative parent
or ``true``; 2 or 4 items, or no array; a field that is not a string;
a family outside 0/1, or ``true``.  Each is refused with a
``SnapshotError`` naming ``frame.stacks[i]``.  Every property runs at
2, 4 and 8 bytes: its entries' steps fit the width, and the frame's
rows, valid or damaged, are packed again at it; a value past int32,
one at the int64 boundary and an overflowing count only an 8-byte row
holds.  The packed string itself is damaged alone: a character
outside the base64 alphabet, bad padding, a byte count that is not a
multiple of the width (at each width), or a width other than 2, 4 or
8.  Each of those is refused naming ``frame.packed``, before any row
reaches the kernel.

The property: ``resolve_frame`` either raises ``SnapshotError`` or
returns exactly what ``resolve_wire_entry`` returns for the same
entries sent nominally, and nothing else escapes.  An empty shard's
answer carries no frame; an empty frame still resolves to nothing.
For a damaged frame those entries are what :func:`unpack`, a plain
reference decoder, reads from it; each named defect must be refused,
also a row value of 2**31 or more, one at the int64 boundary, and a
count that would overflow ``pos + count``.

The kernel's walk of a held frame (``rk_frame_hold``, through
:func:`repro.native.session.hold_frame`) runs on the same frames: it
calls a frame damaged exactly when ``resolve_frame`` raises, and when
it holds one, the entries its tier later builds and its adopted and
skipped counts equal what per-entry adoption makes of the resolved
entries, epoch filter included; misaligned epochs are refused by both.

Runs derandomized, so tier-1 sees the same examples every time.
"""

import base64
import binascii
import dataclasses
import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import GLOBALS_SOURCE, make_pag, packed_at
from repro.api.codec import decode_response, encode
from repro.api.protocol import (
    BatchStoreRequest,
    MethodEntriesRequest,
    SnapshotError,
)
import pytest

from repro.analysis.summaries import SummaryCache
from repro.api.snapshot import (
    check_entry,
    check_key,
    entry_to_wire,
    frame_rows,
    node_to_wire,
    pack_frame,
    resolve_frame,
    resolve_frame_tables,
    resolve_wire_entry,
)
from repro.cacheserver.server import ShardDispatcher
from repro.native import availability
from repro.native.session import hold_frame

SETTINGS = dict(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

PAG = make_pag(GLOBALS_SOURCE)
REAL = [node_to_wire(n) for m in PAG.methods() for n in PAG.nodes_of_method(m)] + [
    node_to_wire(g) for g in PAG._globals.values()
]
#: References this program lacks: their entries resolve to ``None``.
MISSING = [
    {"kind": "local", "method": "Main.main", "name": "gone"},
    {"kind": "object", "id": "o1@Main.main", "class": "Z", "method": "Main.main"},
    {"kind": "global", "class": "G", "field": "gone"},
]
NODES = st.sampled_from(REAL + MISSING)
OBJECTS = st.sampled_from([ref for ref in REAL + MISSING if ref["kind"] == "object"])
STACKS = st.lists(
    st.tuples(st.sampled_from(["f", "g", "h"]), st.sampled_from([0, 1])).map(list),
    max_size=3,
)
STATES = st.sampled_from([1, 2])
BOUNDARIES = st.fixed_dictionaries({"node": NODES, "stack": STACKS, "state": STATES})


def entries_up_to(max_steps):
    """Entries whose step counts are at most ``max_steps``."""
    return st.fixed_dictionaries(
        {
            "node": NODES,
            "stack": STACKS,
            "state": STATES,
            "objects": st.lists(OBJECTS, max_size=3),
            "boundaries": st.lists(BOUNDARIES, max_size=3),
            "steps": st.integers(min_value=0, max_value=max_steps),
        }
    )


ENTRIES = entries_up_to(2**40)

#: GLOBALS_SOURCE plus loads and stores of the fields the generated
#: stacks name, so every stack token is in the CSR image and the kernel
#: can hold what the shard frames.  Every reference in REAL and MISSING
#: resolves here as it does in PAG.
FIELDS_SOURCE = """
class A { field f; field g; field h; }
class B { }
class G {
  static field slot;
}
class Main {
  static method main() {
    a = new A;
    b = new B;
    G::slot = a;
    G::slot = b;
    x = G::slot;
    a.f = b;
    y = a.f;
    a.g = b;
    y = a.g;
    a.h = b;
    y = a.h;
  }
}
"""
KERNEL_PAG = make_pag(FIELDS_SOURCE)

JUNK_NODES = [
    {"kind": "alien"}, {"kind": ["local"]}, [], "x", None, 3,
    {"kind": "local", "method": 1, "name": "a"}, {"kind": "global", "class": "G"},
    {"kind": "local", "name": "a"}, {"kind": "object", "id": "o", "class": "C", "x": 0},
]

#: The widths a packed row can take.
WIDTHS = (2, 4, 8)
#: Per width, entries whose frame packs at that width or a narrower
#: one: their steps fit it, and every index and count of a frame this
#: small fits 2 bytes.
ENTRIES_AT = {
    width: entries_up_to(min(2**40, (1 << (8 * width - 1)) - 1)) for width in WIDTHS
}


def fits(rows, width):
    limit = 1 << (8 * width - 1)
    return all(-limit <= value < limit for value in rows)


#: One broken rule of a trie row each; :func:`junk_trie_row` builds it.
TRIE_DAMAGES = [
    "parent-self", "parent-later", "parent-past-table", "parent-negative",
    "parent-true", "two-items", "four-items", "not-an-array", "field",
    "family", "family-true",
]


def junk_trie_row(damage, row, at, n_rows, data):
    """Trie row ``at`` of ``n_rows`` (``row``, valid) broken by ``damage``."""
    parent, field, family = row
    if damage == "parent-self":
        return [at + 1, field, family]
    if damage == "parent-later":
        return [data.draw(st.integers(at + 2, max(at + 2, n_rows))), field, family]
    if damage == "parent-past-table":
        return [n_rows + 1 + data.draw(st.integers(0, 3)), field, family]
    if damage == "parent-negative":
        return [data.draw(st.integers(-3, -1)), field, family]
    if damage == "parent-true":
        return [True, field, family]
    if damage == "two-items":
        return data.draw(st.sampled_from([[parent, field], [field, family]]))
    if damage == "four-items":
        return [parent, field, family, data.draw(st.sampled_from([0, family, field]))]
    if damage == "not-an-array":
        return data.draw(st.sampled_from([None, 5, "abc", {}]))
    if damage == "field":
        return [parent, data.draw(st.sampled_from([7, None, [field], True])), family]
    if damage == "family":
        return [parent, field, data.draw(st.sampled_from([2, -1, 1.0, "1", None]))]
    assert damage == "family-true"
    return [parent, field, True]


def fetched(entries):
    """``(framed answer payload, nominal entries)`` of one shard holding
    ``entries``, fetched at 1.10 and at 1.7."""
    shard = ShardDispatcher(0, 1)
    shard.handle_line(encode(BatchStoreRequest(entries=tuple(entries))))
    nominal = decode_response(
        shard.handle_line(encode(MethodEntriesRequest(protocol_version="1.7")))
    )
    framed = json.loads(
        shard.handle_line(encode(MethodEntriesRequest(protocol_version="1.10")))
    )
    assert framed["entries"] == [] and nominal.frame is None
    assert ("frame" in framed) == bool(nominal.entries)
    assert framed["protocol_version"] == "1.10"
    return framed, list(nominal.entries)


def frame_of(payload):
    """The frame of an answer payload, decoded as a client decodes it."""
    return decode_response(json.dumps(payload)).frame


KEY = ["node", "stack", "state", "steps", "count"]
BOUNDARY = ["boundary-node", "boundary-stack", "boundary-state"]
NODE_INDEX = ("node", "object", "boundary-node")
STACK_INDEX = ("stack", "boundary-stack")


def layout(rows):
    """What each value of a valid frame's rows is (a name from
    :data:`KEY`, ``object``, ``boundaries`` or one from
    :data:`BOUNDARY`), and where each entry starts."""
    kinds, starts, pos = [], [], 0
    while pos < len(rows):
        starts.append(pos)
        count = rows[pos + 4]
        kinds += KEY + ["object"] * count
        pos += 5 + count
        n_boundaries = rows[pos]
        kinds += ["boundaries"] + BOUNDARY * n_boundaries
        pos += 1 + 3 * n_boundaries
    return kinds, starts


class Damaged(Exception):
    """A frame :func:`unpack` cannot read."""


def trie_table(rows):
    """The nominal field stack each reference of a trie table names,
    read plainly: ``[]``, then one per row."""
    table = [[]]
    for i, row in enumerate(rows):
        if type(row) not in (list, tuple) or len(row) != 3:
            raise Damaged(f"stack row {i} is not [parent, field, family]")
        parent, field, family = row
        if type(parent) is not int or parent not in range(i + 1):
            raise Damaged(f"stack row {i} names no earlier stack")
        if type(field) is not str or type(family) is not int or family not in (0, 1):
            raise Damaged(f"stack row {i} is no token")
        table.append(table[parent] + [[field, family]])
    return table


def plain_rows(frame):
    """The row values of ``frame``, read plainly: its ``packed`` string
    decoded value by value; raises :class:`Damaged` where that is
    damaged."""
    if frame.rows or frame.packed is None:
        raise Damaged("a packed frame's rows are in packed, only there")
    try:
        raw = base64.b64decode(frame.packed, validate=True)
    except (binascii.Error, ValueError):
        raise Damaged("not base64") from None
    if base64.b64encode(raw).decode("ascii") != frame.packed:
        raise Damaged("not base64 as it is written")
    if not raw or raw[0] not in WIDTHS or (len(raw) - 1) % raw[0]:
        raise Damaged("no width, or not one, or a cut value")
    width = raw[0]
    return [
        int.from_bytes(raw[at:at + width], "little", signed=True)
        for at in range(1, len(raw), width)
    ]


def unpack(frame):
    """The nominal entries ``frame`` encodes, read plainly; raises
    :class:`Damaged` or :class:`SnapshotError` where it is damaged."""
    rows = plain_rows(frame)
    for row in frame.nodes:
        check_key({"node": row, "stack": [], "state": 1})
    stacks = trie_table(frame.stacks)

    def take(table=None):
        if not rows:
            raise Damaged("rows end mid-entry")
        value = rows.pop(0)
        if value < 0 or (table is not None and value >= len(table)):
            raise Damaged(f"{value} is out of range")
        return value if table is None else table[value]

    entries = []
    while rows:
        entry = {
            "node": take(frame.nodes),
            "stack": take(stacks),
            "state": take(),
            "steps": take(),
        }
        entry["objects"] = [take(frame.nodes) for _ in range(take())]
        entry["boundaries"] = [
            {"node": take(frame.nodes), "stack": take(stacks), "state": take()}
            for _ in range(take())
        ]
        check_entry(entry)
        entries.append(entry)
    return entries


REFUSED = "refused"


def tier_view(tier):
    """A tier's entries, nominally, in order (builds held ones)."""
    return [entry_to_wire(*key, summary) for key, summary in tier.entries()]


def adopt(frame, epochs=(), method_epochs=None):
    """What the per-entry path makes of ``frame`` over
    :data:`KERNEL_PAG`: ``(tier entries, adopted, skipped)`` after the
    prefetch's adoption filter, ``"misaligned"``, or :data:`REFUSED`."""
    method_epochs = method_epochs or {}
    try:
        resolved = resolve_frame(KERNEL_PAG, frame, "prefetch.frame")
    except SnapshotError:
        return REFUSED
    if epochs and len(epochs) != len(resolved):
        return "misaligned"
    tier = SummaryCache()
    adopted = skipped = 0
    for position, entry in enumerate(resolved):
        epoch = epochs[position] if epochs else 0
        if entry is None or epoch != method_epochs.get(entry[0].method, 0):
            skipped += 1
            continue
        tier.store(*entry)
        adopted += 1
    return tier_view(tier), adopted, skipped


def hold(frame, epochs=(), method_epochs=None):
    """What the held path makes of ``frame``: :data:`REFUSED` where the
    kernel calls it damaged (or the packed string or a table is, which
    the client refuses before the kernel), the reason it held nothing
    else, or ``(built entries, adopted, skipped)``."""
    tier = SummaryCache()
    try:
        rows = frame_rows(frame, "prefetch.frame")
        tables = resolve_frame_tables(KERNEL_PAG, frame, "prefetch.frame")
    except SnapshotError:
        return REFUSED
    outcome = hold_frame(
        tier, KERNEL_PAG, tables, rows, epochs, method_epochs or {}
    )
    if outcome == "damaged":
        return REFUSED
    if type(outcome) is not tuple:
        return outcome
    adopted, skipped = outcome
    # Held: counted, not built, until read.
    assert (len(tier), tier.held, tier.built) == (adopted, adopted, 0)
    assert not tier._entries
    built = tier_view(tier)
    assert tier.built == adopted == len(tier)
    return built, adopted, skipped


needs_kernel = pytest.mark.skipif(
    not availability()[0], reason=f"native kernel unavailable: {availability()[1]}"
)


def views(resolved):
    return [
        None if r is None
        else (r[0], r[1], r[2], r[3].objects, r[3].boundaries, r[3].steps)
        for r in resolved
    ]


def outcome(frame):
    """What ``resolve_frame`` makes of ``frame``: its entries' views, or
    :data:`REFUSED`.  Any exception but ``SnapshotError`` escapes."""
    try:
        return views(resolve_frame(PAG, frame, "prefetch.frame"))
    except SnapshotError:
        return REFUSED


def reference(frame):
    """What the nominal path makes of the entries ``frame`` encodes."""
    try:
        return views([resolve_wire_entry(PAG, e) for e in unpack(frame)])
    except (Damaged, SnapshotError):
        return REFUSED


def valid_frame(width, data):
    """``(frame, nominal entries)`` of a shard holding up to 8 drawn
    entries, the frame's rows packed again at ``width`` bytes (a shard
    packs at the narrowest width that holds them; a reader takes any)."""
    payload, nominal = fetched(data.draw(st.lists(ENTRIES_AT[width], max_size=8)))
    if nominal:
        payload["frame"]["packed"] = packed_at(plain_rows(frame_of(payload)), width)
        frame = frame_of(payload)
    else:  # an empty answer carries no frame; an empty one still reads
        frame = dataclasses.replace(pack_frame([]), packed=packed_at((), width))
    assert base64.b64decode(frame.packed)[0] == width
    return frame, nominal


@pytest.mark.parametrize("width", WIDTHS)
@settings(**SETTINGS)
@given(data=st.data())
def test_a_valid_frame_resolves_like_its_nominal_entries(width, data):
    frame, nominal = valid_frame(width, data)
    want = views([resolve_wire_entry(PAG, entry) for entry in nominal])
    assert outcome(frame) == want
    assert reference(frame) == want


@needs_kernel
@pytest.mark.parametrize("width", WIDTHS)
@settings(**SETTINGS)
@given(data=st.data())
def test_the_kernel_holds_a_valid_frame_like_per_entry_adoption(width, data):
    frame, nominal = valid_frame(width, data)
    method_epochs = {"Main.main": data.draw(st.integers(0, 2))}
    epochs = data.draw(
        st.one_of(
            st.just(()),
            st.lists(st.integers(0, 2), min_size=len(nominal), max_size=len(nominal)),
        )
    )
    got = hold(frame, tuple(epochs), method_epochs)
    assert got == adopt(frame, tuple(epochs), method_epochs)
    assert type(got) is tuple  # a shard's frame holds nothing the kernel refuses
    # Epochs that do not align with the entries refuse the answer, on
    # both paths.
    for wrong in ((0,) * (len(nominal) + 1), (0,) * (len(nominal) - 1)):
        if wrong:
            assert hold(frame, wrong) == "misaligned epochs"
            assert adopt(frame, wrong) == "misaligned"


DAMAGES = [
    "index", "negative", "cut", "count", "local", "state", "node-row", "stack-row",
    "swap",
]
ROW_KINDS = KEY + ["object", "boundaries"] + BOUNDARY
#: Each damage with each row kind it can hit, for the kernel's walk:
#: every check it makes gets its own examples.
TARGETS = (
    [("index", kind) for kind in NODE_INDEX + STACK_INDEX]
    + [("negative", kind) for kind in NODE_INDEX + STACK_INDEX]
    + [("count", kind) for kind in ("count", "boundaries")]
    + [("state", kind) for kind in ("state", "boundary-state")]
    # Past int32 (and every table); a step count that large is valid.
    + [("int32", kind) for kind in ROW_KINDS if kind != "steps"]
    # At the int64 boundary, the largest value a packed row holds or
    # the smallest.
    + [("int64", kind) for kind in ROW_KINDS]
    # A count whose ``pos + count`` would overflow int64.
    + [("overflow", kind) for kind in ("count", "boundaries")]
    + [(damage, None) for damage in ("cut", "local", "node-row", "stack-row", "swap")]
)


def damage_trie_row(stacks, damage, data):
    """Break one row of the trie ``stacks`` (a valid row added first
    when it has none) by ``damage``; returns the row's index."""
    if not stacks:
        stacks.append([0, "f", 0])
    at = data.draw(st.integers(0, len(stacks) - 1))
    stacks[at] = junk_trie_row(damage, stacks[at], at, len(stacks), data)
    return at


def damaged_frame(entries, damage, data, target=None, width=None):
    """A shard's frame of ``entries`` with one ``damage``, at a row of
    kind ``target`` when one is named, packed again at ``width``, or
    the next wider one when that does not hold every value; at a
    width drawn from those that do when none is named."""
    payload, _nominal = fetched(entries)
    wire = payload["frame"]
    nodes, stacks = wire["nodes"], wire["stacks"]
    rows = plain_rows(frame_of(payload))
    kinds, starts = layout(rows)
    # A trie's references: the empty stack, then one per row.
    n_stacks = len(stacks) + 1

    def position(wanted, among=range(len(rows))):
        """A position holding one of the ``wanted`` kinds, drawn kind
        first, so a rare kind (a key node, a boundary count) is hit as
        often as a common one; the ``target`` kind when one is named."""
        present = sorted({kinds[i] for i in among if kinds[i] in wanted})
        if target is None:
            kind = data.draw(st.sampled_from(present))
        else:
            assume(target in present)
            kind = target
        return data.draw(st.sampled_from([i for i in among if kinds[i] == kind]))

    if damage == "index":
        at = position(NODE_INDEX + STACK_INDEX)
        size = n_stacks if kinds[at] in STACK_INDEX else len(nodes)
        rows[at] = size + data.draw(st.integers(0, 3))
    elif damage == "negative":
        rows[position(NODE_INDEX + STACK_INDEX)] = data.draw(st.integers(-3, -1))
    elif damage == "cut":  # before any value but an entry's first
        inside = [p for p in range(1, len(rows)) if p not in starts]
        del rows[position(set(kinds), inside):]
    elif damage == "count":
        rows[position(("count", "boundaries"))] = data.draw(st.integers(-3, -1))
    elif damage == "local":
        nodes.append({"kind": "local", "method": "Main.main", "name": "a"})
        local = len(nodes) - 1
        if "object" in kinds:
            rows[position(("object",))] = local
        else:  # give the first entry an object, naming the local
            rows[starts[0] + 4] = 1
            rows.insert(starts[0] + 5, local)
    elif damage == "state":
        rows[position(("state", "boundary-state"))] = data.draw(st.sampled_from([0, 3]))
    elif damage == "node-row":
        nodes[data.draw(st.integers(0, len(nodes) - 1))] = data.draw(
            st.sampled_from(JUNK_NODES)
        )
    elif damage == "stack-row":
        damage_trie_row(stacks, data.draw(st.sampled_from(TRIE_DAMAGES)), data)
    elif damage == "int32":
        rows[position(set(kinds) - {"steps"})] = 2**31 + data.draw(st.integers(0, 3))
    elif damage == "int64":
        at = position(set(kinds))
        # A step count of 2**63 - 1 is valid; -2**63 is not.
        edges = [-(2**63)] if kinds[at] == "steps" else [2**63 - 1, -(2**63)]
        rows[at] = data.draw(st.sampled_from(edges))
    elif damage == "overflow":
        rows[position(("count", "boundaries"))] = 2**63 - 1 - data.draw(
            st.integers(0, 7)
        )
    elif damage == "swap":
        at = data.draw(st.integers(0, len(rows) - 1))
        rows[at] = data.draw(st.integers(-3, len(nodes) + 3))
    holding = [w for w in WIDTHS if fits(rows, w) and w >= (width or 0)]
    width = holding[0] if width else data.draw(st.sampled_from(holding))
    wire["packed"] = packed_at(rows, width)
    return frame_of(payload)


@pytest.mark.parametrize("width", WIDTHS)
@settings(**{**SETTINGS, "max_examples": 300})
@given(damage=st.sampled_from(DAMAGES), data=st.data())
def test_a_damaged_frame_is_refused_or_resolves_like_what_it_encodes(
    width, damage, data
):
    entries = data.draw(st.lists(ENTRIES_AT[width], min_size=1, max_size=6))
    frame = damaged_frame(entries, damage, data, width=width)
    assert base64.b64decode(frame.packed)[0] == width
    got = outcome(frame)
    assert got == reference(frame)
    if damage != "swap":
        assert got == REFUSED


#: One broken rule of a packed string each; :func:`damage_packed`
#: applies it.
PACKED_DAMAGES = ["alphabet", "padding", "length", "width"]


def damage_packed(packed, damage, data):
    """A valid packed string broken by ``damage``."""
    raw = base64.b64decode(packed)
    if damage == "alphabet":
        at = data.draw(st.integers(0, len(packed.rstrip("=")) - 1))
        junk = data.draw(st.sampled_from(["*", "-", "_", " ", "\n", "\u00e9", "."]))
        return packed[:at] + junk + packed[at + 1:]
    if damage == "padding":
        body = packed.rstrip("=")
        pads = data.draw(
            st.sampled_from([n for n in range(4) if n != len(packed) - len(body)])
        )
        return body + "=" * pads
    if damage == "length":
        width = raw[0]
        cut = data.draw(st.integers(1, width - 1))
        extra = data.draw(st.booleans())
        body = raw + bytes(cut) if extra else raw[:-cut]
        return base64.b64encode(body).decode("ascii")
    assert damage == "width"
    width = data.draw(st.sampled_from([0, 1, 3, 5, 6, 7, 9, 16, 255]))
    return base64.b64encode(bytes((width,)) + raw[1:]).decode("ascii")


#: Each packed-string damage; a value cut short at each width, since
#: the bytes it leaves over depend on it.
PACKED_CASES = [(damage, None) for damage in PACKED_DAMAGES if damage != "length"] + [
    ("length", width) for width in WIDTHS
]


@pytest.mark.parametrize(
    "damage, width",
    PACKED_CASES,
    ids=[d if w is None else f"{d}-{w}" for d, w in PACKED_CASES],
)
@settings(**{**SETTINGS, "max_examples": 40})
@given(data=st.data())
def test_a_damaged_packed_string_is_refused_naming_its_field(damage, width, data):
    entries = data.draw(
        st.lists(ENTRIES if width is None else ENTRIES_AT[width], min_size=1, max_size=6)
    )
    payload, _nominal = fetched(entries)
    wire = payload["frame"]
    if width is not None:
        wire["packed"] = packed_at(plain_rows(frame_of(payload)), width)
    wire["packed"] = damage_packed(wire["packed"], damage, data)
    frame = frame_of(payload)
    with pytest.raises(SnapshotError, match=r"^prefetch\.frame\.packed: "):
        resolve_frame(PAG, frame, "prefetch.frame")
    assert reference(frame) == REFUSED
    # The client refuses it before the kernel sees a row.
    assert hold(frame) == REFUSED


@pytest.mark.parametrize("damage", TRIE_DAMAGES)
@settings(**{**SETTINGS, "max_examples": 25})
@given(entries=st.lists(ENTRIES, min_size=1, max_size=6), data=st.data())
def test_a_damaged_trie_row_is_refused_by_its_index(damage, entries, data):
    payload, _nominal = fetched(entries)
    at = damage_trie_row(payload["frame"]["stacks"], damage, data)
    frame = frame_of(payload)
    with pytest.raises(SnapshotError, match=rf"^prefetch\.frame\.stacks\[{at}\]: "):
        resolve_frame(PAG, frame, "prefetch.frame")
    assert reference(frame) == REFUSED


#: Damages whose values only an 8-byte row holds.
WIDE = ("int32", "int64", "overflow")
#: :data:`TARGETS` at each width whose rows hold the damaged value:
#: every damage kind at 2, 4 and 8 bytes, the int32 and int64 boundary
#: values and an overflowing count at 8.
KERNEL_CASES = [
    (damage, target, width)
    for damage, target in TARGETS
    for width in WIDTHS
    if width == 8 or damage not in WIDE
]


@needs_kernel
@pytest.mark.parametrize(
    "damage, target, width",
    KERNEL_CASES,
    ids=[f"{d}-{t}-{w}" if t else f"{d}-{w}" for d, t, w in KERNEL_CASES],
)
@settings(
    **{
        **SETTINGS,
        "max_examples": 20,
        "suppress_health_check": [HealthCheck.too_slow, HealthCheck.filter_too_much],
    }
)
@given(data=st.data())
def test_the_kernel_calls_a_frame_damaged_exactly_when_resolve_frame_raises(
    damage, target, width, data
):
    entries = data.draw(st.lists(ENTRIES_AT[width], min_size=1, max_size=6))
    frame = damaged_frame(entries, damage, data, target, width)
    # The kernel walks the rows at this width.
    assert base64.b64decode(frame.packed)[0] == width
    want = adopt(frame)
    got = hold(frame)
    if damage != "swap":
        assert want == REFUSED
    assert (got == REFUSED) == (want == REFUSED)
    if type(got) is tuple:
        assert got == want
    elif got != REFUSED:
        # A swap can repeat a key; the per-entry path takes the frame.
        assert got == "repeated key" and type(want) is tuple
