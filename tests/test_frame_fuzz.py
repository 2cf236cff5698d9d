"""Seeded fuzz of the frame decoder, :func:`repro.api.snapshot.resolve_frame`.

Valid frames come from a shard: random entries (local, object and
global node references, both stack families, both states, any steps;
some naming entities the program lacks) are stored in a shard's
``WireSummaryStore`` and fetched through its dispatcher at protocol
1.8, and again at 1.7 for the same entries nominally.  Damaged frames
are such a frame's JSON with one defect: an index past its table, rows
cut mid-entry, a negative count, an object index that names a local, a
state of 0 or 3, a junk node row, a junk stack row, a negative index,
or any row value swapped for a small integer.

The property: ``resolve_frame`` either raises ``SnapshotError`` or
returns exactly what ``resolve_wire_entry`` returns for the same
entries sent nominally, and nothing else escapes.  An empty shard's
answer carries no frame; the empty frame an earlier 1.8 shard sent for
it still resolves to nothing.  For a damaged frame
those entries are what :func:`unpack`, a plain reference decoder,
reads from it; each named defect must be refused.

Runs derandomized, so tier-1 sees the same examples every time.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import GLOBALS_SOURCE, make_pag
from repro.api.codec import decode_response, encode
from repro.api.protocol import (
    BatchStoreRequest,
    MethodEntriesRequest,
    SnapshotError,
)
from repro.api.snapshot import (
    check_entry,
    check_key,
    node_to_wire,
    pack_frame,
    resolve_frame,
    resolve_wire_entry,
)
from repro.cacheserver.server import ShardDispatcher

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
ENTRIES = st.fixed_dictionaries(
    {
        "node": NODES,
        "stack": STACKS,
        "state": STATES,
        "objects": st.lists(OBJECTS, max_size=3),
        "boundaries": st.lists(BOUNDARIES, max_size=3),
        "steps": st.integers(min_value=0, max_value=2**40),
    }
)

JUNK_NODES = [
    {"kind": "alien"}, {"kind": ["local"]}, [], "x", None, 3,
    {"kind": "local", "method": 1, "name": "a"}, {"kind": "global", "class": "G"},
    {"kind": "local", "name": "a"}, {"kind": "object", "id": "o", "class": "C", "x": 0},
]
JUNK_STACKS = [{}, "x", None, [["f", 2]], [["f"]], [[1, 0]], [None], [["f", 0, 1]]]


def fetched(entries):
    """``(framed answer payload, nominal entries)`` of one shard holding
    ``entries``, fetched at 1.8 and at 1.7."""
    shard = ShardDispatcher(0, 1)
    shard.handle_line(encode(BatchStoreRequest(entries=tuple(entries))))
    nominal = decode_response(
        shard.handle_line(encode(MethodEntriesRequest(protocol_version="1.7")))
    )
    framed = json.loads(shard.handle_line(encode(MethodEntriesRequest())))
    assert framed["entries"] == [] and nominal.frame is None
    assert ("frame" in framed) == bool(nominal.entries)
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


def unpack(frame):
    """The nominal entries ``frame`` encodes, read plainly; raises
    :class:`Damaged` or :class:`SnapshotError` where it is damaged."""
    for row in frame.nodes:
        check_key({"node": row, "stack": [], "state": 1})
    for row in frame.stacks:
        check_key({"node": REAL[0], "stack": row, "state": 1})
    rows = list(frame.rows)

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
            "stack": take(frame.stacks),
            "state": take(),
            "steps": take(),
        }
        entry["objects"] = [take(frame.nodes) for _ in range(take())]
        entry["boundaries"] = [
            {"node": take(frame.nodes), "stack": take(frame.stacks), "state": take()}
            for _ in range(take())
        ]
        check_entry(entry)
        entries.append(entry)
    return entries


REFUSED = "refused"


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


@settings(**SETTINGS)
@given(st.lists(ENTRIES, max_size=8))
def test_a_valid_frame_resolves_like_its_nominal_entries(entries):
    payload, nominal = fetched(entries)
    frame = frame_of(payload) if nominal else pack_frame([])
    want = views([resolve_wire_entry(PAG, entry) for entry in nominal])
    assert outcome(frame) == want
    assert reference(frame) == want


DAMAGES = [
    "index", "negative", "cut", "count", "local", "state", "node-row", "stack-row",
    "swap",
]


@settings(**{**SETTINGS, "max_examples": 300})
@given(st.lists(ENTRIES, min_size=1, max_size=6), st.sampled_from(DAMAGES), st.data())
def test_a_damaged_frame_is_refused_or_resolves_like_what_it_encodes(
    entries, damage, data
):
    payload, _nominal = fetched(entries)
    wire = payload["frame"]
    rows, nodes, stacks = wire["rows"], wire["nodes"], wire["stacks"]
    kinds, starts = layout(rows)

    def position(wanted, among=range(len(rows))):
        """A position holding one of the ``wanted`` kinds, drawn kind
        first, so a rare kind (a key node, a boundary count) is hit as
        often as a common one."""
        present = sorted({kinds[i] for i in among if kinds[i] in wanted})
        kind = data.draw(st.sampled_from(present))
        return data.draw(st.sampled_from([i for i in among if kinds[i] == kind]))

    if damage == "index":
        at = position(NODE_INDEX + STACK_INDEX)
        table = stacks if kinds[at] in STACK_INDEX else nodes
        rows[at] = len(table) + data.draw(st.integers(0, 3))
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
        stacks[data.draw(st.integers(0, len(stacks) - 1))] = data.draw(
            st.sampled_from(JUNK_STACKS)
        )
    else:
        at = data.draw(st.integers(0, len(rows) - 1))
        rows[at] = data.draw(st.integers(-3, len(nodes) + 3))
    frame = frame_of(payload)
    got = outcome(frame)
    assert got == reference(frame)
    if damage != "swap":
        assert got == REFUSED
