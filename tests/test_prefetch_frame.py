"""Framed ``fetch-methods`` answers (protocol 1.10).

A shard answers a request of 1.10 or later with a ``SummaryFrame``:
each distinct node reference once, its field stacks as a trie of
``[parent, field, family]`` rows, and one run of integers per entry,
packed into one base64 string.  An older request gets nominal entries.
Pinned here:

* the packed rows: the width is the smallest of 2, 4 or 8 bytes that
  holds every value, the string decodes to those values, and a string
  that is not base64, has bad padding, a width other than 2, 4 or 8,
  or a byte count that is not a multiple of its width is refused
  naming ``frame.packed``; so are values in ``rows`` and a frame with
  no ``packed`` string;
* damaged rows, packed at 2, 4 and 8 bytes: the frame decoder refuses
  each with its message, and the kernel's walk of a held frame calls
  each damaged;
* the version rule: a 1.7, 1.8 or 1.9 request gets the same nominal
  entries, labelled with this build's version; a 1.10 request gets the
  trie frame with its rows packed, byte for byte as written out here;
  both resolve to the same entries, in the same order, and an empty
  answer (an unchanged delta) carries no frame;
* a peer's family written ``true`` (or ``1.0``) decodes to the int
  token on every path, so the process's canonical stack writes ``1``;
* the client: a framed warm prefetch fills the local tier exactly as
  adopting the shards' entries one by one does, held in the kernel or
  per entry on every kind of tier, and the session answers and steps
  like a local engine holding the same summaries; an answer that
  carries entries in any other form (a damaged frame, nominal entries,
  integer rows, a frame without a packed string, a frame under a label
  before 1.10) is refused whole
  and falls open, also on every batch against a shard of an earlier
  build;
* the shard store keeps one copy of each reference it holds, its
  ``lookup`` answers keep their bytes, and its table of shared copies
  stays bounded through invalidate/re-store churn.

``tests/test_frame_fuzz.py`` fuzzes the frame decoder itself.
"""

import base64
import copy
import dataclasses
import json
import random

import pytest

from conftest import packed_at
from repro import CachePolicy, EnginePolicy, PointsToEngine, build_pag
from repro.analysis.summaries import SummaryCache
from repro.api.codec import decode_response, encode
from repro.api.protocol import (
    PROTOCOL_VERSION,
    BatchStoreRequest,
    LookupRequest,
    LookupResponse,
    MethodEntriesRequest,
    SnapshotError,
    StoreRequest,
    SummaryFrame,
)
from repro.api.snapshot import (
    SummarySnapshot,
    entry_to_wire,
    frame_rows,
    pack_frame,
    pack_rows,
    ref_key,
    resolve_frame,
    resolve_frame_tables,
    resolve_wire_entry,
    stack_from_wire,
    stack_to_wire,
)
from repro.bench.generator import GeneratorConfig, generate_program
from repro.cacheserver.server import ShardServer
from repro.cacheserver.store import SHARED_SLACK, WireSummaryStore, entry_key
from repro.cfl.stacks import EMPTY_STACK, Stack, intern_token
from repro.native import availability
from repro.native.session import hold_frame

CONFIG = GeneratorConfig(seed=3, domain_classes=2, data_classes=2, layers=1)


def program_pag():
    return build_pag(generate_program(CONFIG))


def all_locals(pag):
    return sorted(
        (qname, node.name)
        for qname in pag.methods()
        for node in pag.nodes_of_method(qname)
        if node.is_local_var
    )


QUERIES = all_locals(program_pag())
FIRST = [q for q in QUERIES if q[0] < "Comp1"]
SECOND = [q for q in QUERIES if q[0] >= "Comp1"]


def canonical(result):
    return (
        result.complete,
        frozenset((str(obj.object_id), ctx.to_tuple()) for obj, ctx in result.pairs),
    )


def local_answers(queries):
    local = PointsToEngine(program_pag(), EnginePolicy())
    return [canonical(r) for r in local.query_batch(queries)]


def remote_engine(addresses):
    return PointsToEngine(
        program_pag(),
        EnginePolicy(cache=CachePolicy(remote=tuple(addresses), remote_timeout=5.0)),
    )


def publish(addresses, queries=QUERIES):
    """A client that computes ``queries`` and flushes them."""
    engine = remote_engine(addresses)
    engine.query_batch(queries)
    engine.cache.close()


def store_wire(store):
    """A store's entries, in its order, as wire entries."""
    return [
        entry_to_wire(node, stack, state, summary)
        for (node, stack, state), summary in store.entries()
    ]


def view(resolved):
    """A comparable form of one resolved entry (``None`` stays)."""
    if resolved is None:
        return None
    node, stack, state, summary = resolved
    return node, stack, state, summary.objects, summary.boundaries, summary.steps


def reference_engine(fleet, max_entries=None):
    """A local engine whose store holds what a full prefetch from
    ``fleet`` must adopt: each shard's full dump, in answer order,
    resolved one entry at a time by ``resolve_wire_entry``."""
    engine = PointsToEngine(
        program_pag(), EnginePolicy(cache=CachePolicy(max_entries=max_entries))
    )
    for server in fleet:
        for entry in server.store.fetch()[0]:
            engine.cache.store(*resolve_wire_entry(engine.pag, entry))
    return engine


@pytest.fixture
def servers():
    started = []

    def start(cls=ShardServer):
        fleet = [cls(index, 2).start() for index in range(2)]
        started.extend(fleet)
        return fleet

    yield start
    for server in started:
        server.stop()


def wire_entry(name, method="A.m", objects=("o1",), stack=(), boundaries=()):
    return {
        "node": {"kind": "local", "method": method, "name": name},
        "stack": [list(item) for item in stack],
        "state": 1,
        "objects": [
            {"kind": "object", "id": label, "class": "Thing", "method": method}
            for label in objects
        ],
        "boundaries": [
            {
                "node": {"kind": "local", "method": method, "name": bname},
                "stack": [["f", 0]],
                "state": 2,
            }
            for bname in boundaries
        ],
        "steps": 4,
    }


# ----------------------------------------------------------------------
# the format
# ----------------------------------------------------------------------
class TestFrame:
    def test_pack_writes_each_shared_reference_once(self):
        shared_object = {"kind": "object", "id": "o1", "class": "T", "method": "A.m"}
        deep = [("f", 0), ("g", 1)]
        entries = [wire_entry(name, stack=deep) for name in "abc"]
        for entry in entries:
            entry["objects"] = [shared_object]
            entry["stack"] = entries[0]["stack"]
        frame = pack_frame(entries)
        assert frame.nodes.count(shared_object) == 1
        assert len(frame.nodes) == 4
        # Equal node references held as separate objects are each
        # written.
        unshared = [wire_entry(name, stack=deep) for name in "abc"]
        assert len(pack_frame(unshared).nodes) == 6
        # A trie writes each distinct prefix once, shared or not.
        for packed in (entries, unshared):
            assert pack_frame(packed).stacks == ([0, "f", 0], [1, "g", 1])

    def test_rows_follow_the_documented_layout(self):
        entry = wire_entry("a", objects=("o1", "o2"), stack=[("g", 1)], boundaries=("b",))
        frame = pack_frame([entry])
        assert frame.rows == ()
        node, stack, state, steps, n_objects, o1, o2, n_boundaries, bn, bs, bst = (
            frame_rows(frame)
        )
        assert frame.nodes[node] is entry["node"]
        assert (state, steps, n_objects, n_boundaries, bst) == (1, 4, 2, 1, 2)
        assert [frame.nodes[o1], frame.nodes[o2]] == entry["objects"]
        assert frame.nodes[bn] is entry["boundaries"][0]["node"]
        # The stack references: 1 for row 0 (``g``), 2 for row 1 (``f``).
        assert frame.stacks == ([0, "g", 1], [0, "f", 0])
        assert (stack, bs) == (1, 2)

    def test_trie_rows_push_onto_earlier_rows(self):
        """Each stack's prefixes come first, a family written ``true``
        finds the row of the 1 it equals or is packed as 1, and the
        empty stack is reference 0, no row."""
        stacks = [
            [], [("f", 0)], [("f", 0), ("g", 1)], [("g", 1)],
            [("f", 0), ("g", True)], [("h", True)],
        ]
        entries = [wire_entry(name, stack=stack) for name, stack in zip("abcdef", stacks)]
        frame = pack_frame(entries)
        assert frame.stacks == ([0, "f", 0], [1, "g", 1], [0, "g", 1], [0, "h", 1])
        assert [frame_rows(frame)[at] for at in range(1, 42, 7)] == [0, 1, 2, 3, 2, 4]
        for i, (parent, _field, family) in enumerate(frame.stacks):
            assert 0 <= parent <= i and type(family) is int
        _nodes, _is_object, resolved = resolve_frame_tables(program_pag(), frame)
        assert [stack_to_wire(stack) for stack in resolved] == [
            [], [["f", 0]], [["f", 0], ["g", 1]], [["g", 1]], [["h", 1]],
        ]
        assert resolved[2] is Stack.of(("f", 0), ("g", 1))

    def test_resolve_equals_the_nominal_walk(self):
        pag = program_pag()
        writer = PointsToEngine(pag, EnginePolicy())
        writer.query_batch(QUERIES)
        entries = SummarySnapshot.capture(writer.cache).entries
        # An entity this PAG lacks: that entry alone is unresolved.
        stale = copy.deepcopy(entries[0])
        stale["node"]["name"] = "no_such_local"
        entries = [*entries, stale]
        reader = program_pag()
        framed = resolve_frame(reader, pack_frame(entries))
        nominal = [resolve_wire_entry(reader, entry) for entry in entries]
        assert [view(r) for r in framed] == [view(r) for r in nominal]
        assert framed[-1] is None and all(r is not None for r in framed[:-1])

    def test_table_rows_are_checked_with_the_nominal_texts(self):
        frame = pack_frame([wire_entry("a")])
        junk_node = dataclasses.replace(frame, nodes=({"kind": "alien"}, *frame.nodes[1:]))
        with pytest.raises(SnapshotError, match=r"^p\.nodes\[0\]: unknown node kind 'alien'$"):
            resolve_frame(program_pag(), junk_node, "p")
        # A node missing a field of its kind is refused, by the frame
        # and by the nominal walk alike, never read as a KeyError.
        pag = program_pag()
        for missing in (
            {"kind": "local", "name": "a"},
            {"kind": "object", "id": "o1", "class": "Thing", "x": 0},
        ):
            text = "missing node field 'method'"
            with pytest.raises(SnapshotError, match=rf"^p\.nodes\[1\]: {text}$"):
                resolve_frame(pag, dataclasses.replace(
                    frame, nodes=(frame.nodes[0], missing),
                ), "p")
            entry = wire_entry("a")
            entry["objects"] = [missing]
            with pytest.raises(SnapshotError, match=rf"^e\.objects\[0\]: {text}$"):
                resolve_wire_entry(pag, entry, "e")

    #: A valid trie table: ``f``, ``f.g`` and ``f.g.h``.
    TRIE = ([0, "f", 0], [1, "g", 1], [2, "h", 0])

    @pytest.mark.parametrize(
        "row, message",
        [
            ([2, "g", 1], r"parent must be an integer from 0 to 1"),
            ([3, "g", 1], r"parent must be an integer from 0 to 1"),
            ([9, "g", 1], r"parent must be an integer from 0 to 1"),
            ([-1, "g", 1], r"parent must be an integer from 0 to 1"),
            ([True, "g", 1], r"parent must be an integer from 0 to 1"),
            ([1.0, "g", 1], r"parent must be an integer from 0 to 1"),
            ([1, "g"], r"stack row must be \[parent, field, family\(0\|1\)\]"),
            ([1, "g", 1, 0], r"stack row must be \[parent, field, family\(0\|1\)\]"),
            (None, r"stack row must be \[parent, field, family\(0\|1\)\]"),
            (5, r"stack row must be \[parent, field, family\(0\|1\)\]"),
            ({"parent": 1}, r"stack row must be \[parent, field, family\(0\|1\)\]"),
            ([1, 7, 1], r"field must be a string"),
            ([1, None, 1], r"field must be a string"),
            ([1, "g", 2], r"family must be the integer 0 or 1"),
            ([1, "g", -1], r"family must be the integer 0 or 1"),
            ([1, "g", True], r"family must be the integer 0 or 1"),
            ([1, "g", 1.0], r"family must be the integer 0 or 1"),
        ],
        ids=[
            "parent-self", "parent-later", "parent-past-table", "parent-negative",
            "parent-true", "parent-float", "two-items", "four-items", "null",
            "number", "object", "field-number", "field-null", "family-2",
            "family-negative", "family-true", "family-float",
        ],
    )
    def test_a_damaged_trie_row_is_refused_by_its_index(self, row, message):
        frame = pack_frame([wire_entry("a", stack=[("f", 0), ("g", 1), ("h", 0)])])
        assert frame.stacks == self.TRIE and frame_rows(frame)[1] == 3
        resolve_frame(program_pag(), frame, "p")
        damaged = dataclasses.replace(frame, stacks=(self.TRIE[0], row, self.TRIE[2]))
        with pytest.raises(SnapshotError, match=rf"^p\.stacks\[1\]: {message}$"):
            resolve_frame(program_pag(), damaged, "p")

    @pytest.mark.parametrize(
        "rows, width",
        [
            ((), 2),
            ((0, 1, 2), 2),
            ((-(2**15), 2**15 - 1), 2),
            ((2**15,), 4),
            ((-(2**15) - 1,), 4),
            ((-(2**31), 2**31 - 1), 4),
            ((2**31,), 8),
            ((0, -(2**63), 2**63 - 1), 8),
        ],
    )
    def test_packed_rows_take_the_narrowest_width(self, rows, width):
        packed = pack_rows(rows)
        assert packed == packed_at(rows, width)
        assert base64.b64decode(packed)[0] == width
        values = frame_rows(SummaryFrame((), (), (), packed))
        assert values.itemsize == width and list(values) == list(rows)

    @pytest.mark.parametrize(
        "packed, message",
        [
            (packed_at((1, 2), 2)[:-1] + "*", r"not base64"),
            (packed_at((1, 2), 2)[:-1] + "\u00e9", r"not base64"),
            (packed_at((1, 2), 2).rstrip("="), r"not base64 \(bad padding\)"),
            (packed_at((1, 2), 2) + "==", r"not base64 \(bad padding\)"),
            (packed_at((1, 2, 3), 2) + "=", r"not base64 \(bad padding\)"),
            ("A=" + packed_at((1, 2), 2)[2:], r"not base64 \(bad padding\)"),
            ("", r"missing the width byte"),
            (packed_at((1, 2), 3), r"row width must be 2, 4 or 8 bytes, got 3"),
            (packed_at((1, 2), 16), r"row width must be 2, 4 or 8 bytes, got 16"),
            (packed_at((1, 2), 2)[:0] + base64.b64encode(b"\x04abcdef").decode(),
             r"the rows take 6 bytes, not a multiple of the width 4"),
            (base64.b64encode(b"\x08" + bytes(12)).decode(),
             r"the rows take 12 bytes, not a multiple of the width 8"),
        ],
        ids=[
            "outside-alphabet", "non-ascii", "no-padding", "extra-padding",
            "padding-past-a-quantum", "padding-inside",
            "empty", "width-3", "width-16", "cut-at-4", "cut-at-8",
        ],
    )
    def test_a_damaged_packed_string_is_refused_naming_its_field(self, packed, message):
        frame = pack_frame([wire_entry("a")])
        damaged = dataclasses.replace(frame, packed=packed)
        with pytest.raises(SnapshotError, match=rf"^p\.packed: {message}"):
            resolve_frame(program_pag(), damaged, "p")

    def test_rows_travel_only_packed(self):
        pag = program_pag()
        frame = pack_frame([wire_entry("a")])
        values = tuple(frame_rows(frame))
        assert frame.rows == () and frame.packed == pack_rows(values) == packed_at(values, 2)
        assert values == self.ROWS
        # Integer rows, beside the packed string or instead of it (a 1.9
        # shard's frame), and no packed string at all are refused.
        for damaged, message in (
            (dataclasses.replace(frame, rows=values),
             r"^p\.rows: must be empty when the rows are packed$"),
            (dataclasses.replace(frame, rows=values, packed=None),
             r"^p\.rows: must be empty when the rows are packed$"),
            (dataclasses.replace(frame, packed=None), r"^p\.packed: missing$"),
        ):
            with pytest.raises(SnapshotError, match=message):
                resolve_frame(pag, damaged, "p")

    #: One entry, ``wire_entry("a")``: key node 0 ("a"), stack 0, S1,
    #: 4 steps, one object (node 1), no boundary.
    ROWS = (0, 0, 1, 4, 1, 1, 0)
    #: The same with one boundary: node 0, stack 0, S2.
    BOUNDED = (0, 0, 1, 4, 1, 1, 1, 0, 0, 2)

    #: Damaged forms of :data:`ROWS` and :data:`BOUNDED`, each with the
    #: message ``resolve_frame`` refuses it with.
    DAMAGED_ROWS = [
        ((2, *ROWS[1:]), r"rows\[0\]: node index 2 is past its table \(2 rows\)"),
        ((-1, *ROWS[1:]), r"rows\[0\]: node must be a non-negative integer, got -1"),
        ((0, 1, *ROWS[2:]), r"rows\[1\]: stack index 1 is past its table \(1 rows\)"),
        ((0, -1, *ROWS[2:]), r"rows\[1\]: stack must be a non-negative integer"),
        ((0, 0, 3, *ROWS[3:]), r"rows\[2\]: state must be 1 \(S1\) or 2 \(S2\)"),
        ((0, 0, 0, *ROWS[3:]), r"rows\[2\]: state must be 1 \(S1\) or 2 \(S2\)"),
        ((0, 0, 1, -1, *ROWS[4:]), r"rows\[3\]: steps must be a non-negative integer, got -1"),
        ((0, 0, 1, 4, -1, 1, 0), r"rows\[4\]: object count must be a non-negative integer"),
        ((0, 0, 1, 4, 1, 0, 0), r"rows\[5\]: must be an object node"),
        ((0, 0, 1, 4, 1, 2, 0), r"rows\[5\]: node index 2 is past its table"),
        ((0, 0, 1, 4, 1, -1, 0), r"rows\[5\]: node must be a non-negative integer"),
        ((0, 0, 1, 4, 1, 1, -2), r"rows\[6\]: boundary count must be a non-negative integer"),
        (BOUNDED[:7] + (2, 0, 2), r"rows\[7\]: node index 2 is past its table"),
        (BOUNDED[:7] + (0, -1, 2), r"rows\[8\]: stack must be a non-negative integer"),
        (BOUNDED[:9] + (3,), r"rows\[9\]: state must be 1 \(S1\) or 2 \(S2\)"),
        (ROWS[:5], r"rows\[0\]: the entry runs past the end of the rows \(5 values\)"),
        (ROWS[:6], r"rows\[0\]: the entry runs past the end of the rows \(6 values\)"),
        ((0, 0, 1, 4, 5, 1, 0), r"rows\[0\]: the entry runs past the end of the rows"),
        (BOUNDED[:9], r"rows\[0\]: the entry runs past the end of the rows \(9 values\)"),
        (ROWS + ROWS[:3], r"rows\[7\]: the entry runs past the end of the rows"),
    ]
    DAMAGED_ROW_IDS = [
        "node-past-table", "negative-node", "stack-past-table", "negative-stack",
        "state-3", "state-0", "negative-steps", "negative-count", "local-as-object",
        "object-past-table", "negative-object", "negative-boundaries",
        "boundary-node-past-table", "negative-boundary-stack", "boundary-state",
        "cut-after-key", "cut-after-objects", "count-past-rows",
        "cut-in-boundary", "cut-second-entry",
    ]

    @pytest.mark.parametrize("rows, message", DAMAGED_ROWS, ids=DAMAGED_ROW_IDS)
    @pytest.mark.parametrize("layout", ["packed-2", "packed-4", "packed-8"])
    def test_damaged_rows_refuse_the_frame(self, rows, message, layout):
        # The empty stack is reference 0 of a trie with no rows.  The
        # rows are packed at each width: the same values, the same
        # damage.
        frame = pack_frame([wire_entry("a")])
        assert tuple(frame_rows(frame)) == self.ROWS
        width = int(layout.split("-")[1])

        def resolve(values):
            damaged = dataclasses.replace(frame, packed=packed_at(values, width))
            return resolve_frame(program_pag(), damaged)

        with pytest.raises(SnapshotError, match=message):
            resolve(rows)
        # The undamaged forms resolve.
        for good in (self.ROWS, self.BOUNDED, self.ROWS + self.BOUNDED):
            resolve(good)

    @pytest.mark.parametrize(
        "rows", [rows for rows, _message in DAMAGED_ROWS], ids=DAMAGED_ROW_IDS
    )
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_the_kernel_calls_the_damaged_rows_damaged(self, rows, width):
        """``rk_frame_hold`` walks the rows at the width they arrive in
        and refuses each damaged form the frame decoder refuses; it
        holds the undamaged ones, skipping their entries, whose ``A.m``
        this program lacks."""
        if not availability()[0]:
            pytest.skip(f"native kernel unavailable: {availability()[1]}")
        pag = program_pag()
        frame = pack_frame([wire_entry("a")])
        tables = resolve_frame_tables(pag, frame)

        def hold(values):
            packed = frame_rows(dataclasses.replace(frame, packed=packed_at(values, width)))
            assert packed.itemsize == width
            return hold_frame(SummaryCache(), pag, tables, packed, (), {})

        assert hold(rows) == "damaged"
        for good, entries in ((self.ROWS, 1), (self.BOUNDED, 1), (self.ROWS + self.BOUNDED, 2)):
            assert hold(good) == (0, entries)


# ----------------------------------------------------------------------
# a peer's family written ``true``
# ----------------------------------------------------------------------
class TestFamilies:
    """Stacks are hash-consed process-wide, so whichever decode pushes a
    token first decides how every equal stack is written.  Each case
    uses a field name of its own, which nothing else in the process
    pushes."""

    @staticmethod
    def peer_entry(field):
        method, name = QUERIES[0]
        entry = wire_entry(name, method=method, objects=())
        entry["stack"] = [[field, True], ["g", 1.0]]
        return entry

    @staticmethod
    def canonical_stack(field):
        return EMPTY_STACK.push(intern_token(field, 1)).push(intern_token("g", 1))

    def decoded(self, path, field):
        entry = self.peer_entry(field)
        pag = program_pag()
        if path == "stack":
            return stack_from_wire(entry["stack"], "s")
        if path == "entry":
            return resolve_wire_entry(pag, entry)[1]
        if path == "snapshot":
            text = json.dumps({
                "kind": "summary-snapshot", "snapshot_version": "1.2",
                "store": "unbounded", "shards": None,
                "stats": dict(
                    entries=1, facts=0, hits=0, misses=0, evictions=0,
                    invalidated=0, approx_bytes=0, max_entries=None, max_facts=None,
                ),
                "entries": [entry],
            })
            store = SummarySnapshot.loads(text).restore(pag)
            [((_node, stack, _state), _summary)] = store.entries()
            # Saved again, the stack writes the ints.
            assert f'[["{field}",1],["g",1]]' in SummarySnapshot.capture(store).dumps()
            return stack
        return resolve_frame(pag, pack_frame([entry]))[0][1]

    @pytest.mark.parametrize("path", ["stack", "entry", "snapshot", "trie-frame"])
    def test_a_peers_true_family_decodes_to_the_int_token(self, path):
        field = f"peer_true_family_{path.replace('-', '_')}"
        stack = self.decoded(path, field)
        assert stack_to_wire(stack) == [[field, 1], ["g", 1]]
        assert [type(family) for _field, family in stack.to_tuple()] == [int, int]
        # The stack the analysis pushes is that one, and writes ints.
        assert self.canonical_stack(field) is stack


# ----------------------------------------------------------------------
# the version rule, at the dispatcher
# ----------------------------------------------------------------------
class TestVersionRule:
    def make_server(self):
        server = ShardServer(0, 1)
        server.stop()  # dispatch only
        return server

    def fetch(self, server, **fields):
        return decode_response(server.handle_line(encode(MethodEntriesRequest(**fields))))

    def test_one_store_answers_each_version_in_its_form(self):
        server = self.make_server()
        entries = [
            wire_entry("a", objects=("o1", "o2"), boundaries=("b",)),
            wire_entry("b", method="B.n", objects=("o1",), stack=[("f", 0)]),
            wire_entry("c", objects=("o2",), stack=[("f", 0), ("g", 1)], boundaries=("b", "a")),
        ]
        server.handle_line(encode(BatchStoreRequest(entries=tuple(entries))))
        # A request older than 1.10 gets nominal entries, the same for
        # each, labelled with this build's version.
        assert PROTOCOL_VERSION == "1.10"
        nominal = [
            server.handle_line(encode(MethodEntriesRequest(protocol_version=version)))
            for version in ("1.7", "1.8", "1.9")
        ]
        assert nominal[0] == nominal[1] == nominal[2]
        old = decode_response(nominal[0])
        assert old.frame is None and list(old.entries) == entries
        assert old.protocol_version == PROTOCOL_VERSION
        line = server.handle_line(encode(MethodEntriesRequest(protocol_version="1.10")))
        framed = decode_response(line)
        assert framed.entries == () and framed.frame is not None
        assert (framed.incarnation, framed.cursor) == (old.incarnation, old.cursor)
        # The 1.10 answer, written out: shared on store, A.m's "o1",
        # "o2" and "b", and "a" as a key and as a boundary, are each
        # one node row; the trie holds [f] and [f, g], the empty stack
        # is reference 0; the rows are packed at 2 bytes.
        nodes = [
            {"kind": "local", "method": "A.m", "name": "a"},
            {"kind": "object", "id": "o1", "class": "Thing", "method": "A.m"},
            {"kind": "object", "id": "o2", "class": "Thing", "method": "A.m"},
            {"kind": "local", "method": "A.m", "name": "b"},
            {"kind": "local", "method": "B.n", "name": "b"},
            {"kind": "object", "id": "o1", "class": "Thing", "method": "B.n"},
            {"kind": "local", "method": "A.m", "name": "c"},
        ]
        rows = (
            0, 0, 1, 4, 2, 1, 2, 1, 3, 1, 2,
            4, 1, 1, 4, 1, 5, 0,
            6, 2, 1, 4, 1, 2, 2, 3, 1, 2, 0, 1, 2,
        )
        assert line == (
            '{"cursor":3,"entries":[],"epochs":[],"frame":{"nodes":'
            + json.dumps(nodes, sort_keys=True, separators=(",", ":"))
            + f',"packed":"{packed_at(rows, 2)}","rows":[],'
            '"stacks":[[0,"f",0],[1,"g",1]]},'
            f'"incarnation":{server.store.incarnation},'
            '"kind":"fetch-methods-result","protocol_version":"1.10"}'
        )
        pag = program_pag()
        want = [view(resolve_wire_entry(pag, e)) for e in old.entries]
        assert [view(r) for r in resolve_frame(pag, framed.frame)] == want

    def test_a_delta_is_framed_oldest_stamp_first(self):
        server = self.make_server()
        server.handle_line(encode(StoreRequest(entry=wire_entry("a"))))
        first = self.fetch(server)
        for name in "cb":
            server.handle_line(encode(StoreRequest(entry=wire_entry(name))))
        delta = self.fetch(server, incarnation=first.incarnation, since=first.cursor)
        frame = delta.frame
        rows = frame_rows(frame)
        # Each entry is 7 values: a key, steps, one object, no boundary.
        assert len(rows) == 14
        assert [frame.nodes[rows[at]]["name"] for at in (0, 7)] == ["c", "b"]

    def test_an_unchanged_delta_carries_no_frame(self):
        server = self.make_server()
        server.handle_line(encode(StoreRequest(entry=wire_entry("a"))))
        first = self.fetch(server)
        assert first.frame is not None
        line = server.handle_line(
            encode(MethodEntriesRequest(incarnation=first.incarnation, since=first.cursor))
        )
        assert line == (
            f'{{"cursor":{first.cursor},"entries":[],"epochs":[],'
            f'"incarnation":{first.incarnation},'
            f'"kind":"fetch-methods-result","protocol_version":"{PROTOCOL_VERSION}"}}'
        )
        # The unchanged delta's cursor still yields exactly what is
        # stored after it, framed.
        server.handle_line(encode(StoreRequest(entry=wire_entry("b"))))
        unchanged = decode_response(line)
        delta = self.fetch(
            server, incarnation=unchanged.incarnation, since=unchanged.cursor
        )
        assert delta.entries == () and delta.cursor == first.cursor + 1
        frame = delta.frame
        rows = frame_rows(frame)
        assert len(rows) == 7 and frame.nodes[rows[0]]["name"] == "b"

    def test_lookup_and_nominal_answers_keep_their_bytes(self):
        """Sharing swaps an entry's references for equal shared copies;
        every answer that carries entries keeps the bytes the stored
        entries encode to, also after a refused batch."""
        server = self.make_server()
        originals = [
            wire_entry("a", objects=("o1",), stack=[("f", 1)]),
            wire_entry("b", objects=("o1",), boundaries=("a",)),
        ]
        # The same "o1" with a field beyond its kind's, and the same
        # stack with its family written ``true`` (equal to 1 in Python,
        # not on the wire): neither may be swapped for a shared copy.
        odd = wire_entry("c", objects=("o1",))
        odd["objects"][0]["note"] = 1
        odd["stack"] = [["f", True]]
        originals.append(odd)
        server.handle_line(
            encode(BatchStoreRequest(entries=tuple(copy.deepcopy(originals))))
        )
        # An object reference without its ``method`` is refused before
        # anything of its batch is stored; the answers below are as if
        # it was never sent.
        bad = wire_entry("d")
        bad["objects"] = [{"kind": "object", "id": "o1", "class": "Thing", "x": 0}]
        answer = json.loads(
            server.handle_line(encode(BatchStoreRequest(entries=(wire_entry("e"), bad))))
        )
        assert answer["code"] == "snapshot-invalid", answer
        assert "entries[1].objects[0]: missing node field 'method'" in answer["message"]
        for entry in originals:
            key = {k: entry[k] for k in ("node", "stack", "state")}
            line = server.handle_line(encode(LookupRequest(key=key)))
            assert line == encode(LookupResponse(found=True, entry=entry))
        line = server.handle_line(
            encode(MethodEntriesRequest(protocol_version="1.7"))
        )
        entries = ",".join(
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
            for entry in originals
        )
        assert line == (
            f'{{"cursor":3,"entries":[{entries}],"epochs":[],'
            f'"incarnation":{server.store.incarnation},'
            f'"kind":"fetch-methods-result","protocol_version":"{PROTOCOL_VERSION}"}}'
        )


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
class DamagedFrameShard(ShardServer):
    """Answers a framed ``fetch-methods`` in a form this build's client
    refuses while ``damage`` names it: ``"index"``, a first row that
    indexes past the node table; ``"base64"``, a packed string with a
    character outside the base64 alphabet; ``"width"``, rows packed at
    a width of 3 bytes; ``"label"``, the frame as sent under a 1.9
    label; ``"integer-rows"``, the frame's rows as JSON integers under
    a 1.9 label, as a 1.9 shard sends it; ``"unpacked"``, the same
    under this build's label; ``"no-packed"``, the frame with no rows
    at all; ``"nominal"``, the same entries nominally, labelled with
    this build's version.  Records the version of every
    ``fetch-methods`` request."""

    damage = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.versions = []

    def _dispatch(self, request):
        if isinstance(request, MethodEntriesRequest):
            self.versions.append(request.protocol_version)
        response = super()._dispatch(request)
        frame = getattr(response, "frame", None)
        if self.damage is None or frame is None:
            return response
        if self.damage == "nominal":
            return super()._dispatch(dataclasses.replace(request, protocol_version="1.7"))
        rows = list(frame_rows(frame))
        if self.damage == "label":
            return dataclasses.replace(response, protocol_version="1.9")
        if self.damage == "integer-rows":
            return dataclasses.replace(
                response,
                protocol_version="1.9",
                frame=dataclasses.replace(frame, rows=tuple(rows), packed=None),
            )
        if self.damage in ("unpacked", "no-packed"):
            unpacked = tuple(rows) if self.damage == "unpacked" else ()
            return dataclasses.replace(
                response, frame=dataclasses.replace(frame, rows=unpacked, packed=None)
            )
        if self.damage == "index":
            rows[0] = len(frame.nodes)
            packed = packed_at(rows, 2)
        elif self.damage == "base64":
            packed = "*" + frame.packed[1:]
        else:
            packed = packed_at(rows, 3)
        return dataclasses.replace(response, frame=dataclasses.replace(frame, packed=packed))


#: Every :class:`DamagedFrameShard` damage.
DAMAGES = [
    "index", "base64", "width", "label", "integer-rows", "unpacked", "no-packed", "nominal",
]


class TestClient:
    def test_framed_prefetch_fills_the_tier_like_a_nominal_one(self, servers):
        fleet = servers()
        addresses = [server.address for server in fleet]
        publish(addresses)
        framed = remote_engine(addresses)
        framed.cache.begin_batch()
        framed.cache.end_batch()
        local = reference_engine(fleet)
        stats = framed.stats().remote
        assert stats.prefetched == len(local.cache) > 0
        assert stats.unresolved == 0
        # The same entries sent nominally take more than twice the bytes.
        nominal_bytes = sum(
            len(server.handle_line(encode(MethodEntriesRequest(protocol_version="1.7")))) + 1
            for server in fleet
        )
        assert 0 < stats.prefetch_bytes < nominal_bytes / 2
        # Same keys, summaries and order in the local tier.
        assert store_wire(framed.cache.local_tier) == store_wire(local.cache)
        # The session answers and steps like the local engine.
        want = [canonical(r) for r in local.query_batch(QUERIES)]
        assert want == local_answers(QUERIES)
        assert [canonical(r) for r in framed.query_batch(QUERIES)] == want
        assert framed.stats().steps == local.stats().steps
        framed.cache.close()

    @pytest.mark.parametrize("tier", ["held", "array", "bounded", "no-kernel"])
    def test_a_framed_prefetch_reads_alike_on_every_tier(self, servers, monkeypatch, tier):
        """Held in the kernel or adopted per entry, over a plain or a
        bounded tier, with or without a kernel: the tier holds what the
        shards' entries resolve to, and the session answers and steps
        like a local engine holding them."""
        if tier == "held" and not availability()[0]:
            pytest.skip(f"native kernel unavailable: {availability()[1]}")
        if tier == "no-kernel":
            from repro.native import session as native_session

            monkeypatch.setattr(native_session, "graph_for", lambda pag: None)
        fleet = servers()
        addresses = tuple(server.address for server in fleet)
        publish(addresses)
        max_entries = 10_000 if tier == "bounded" else None
        local = reference_engine(fleet, max_entries)
        prefetched = len(local.cache)
        engine = PointsToEngine(
            program_pag(),
            EnginePolicy(
                traversal_impl="array" if tier == "array" else None,
                cache=CachePolicy(
                    remote=addresses, remote_timeout=5.0, max_entries=max_entries
                ),
            ),
        )
        try:
            answers = [canonical(r) for r in engine.query_batch(QUERIES)]
            assert answers == [canonical(r) for r in local.query_batch(QUERIES)]
            assert answers == local_answers(QUERIES)
            assert engine.stats().steps == local.stats().steps
            remote = engine.stats().remote
            assert remote.prefetched == prefetched > 0
            assert (remote.unresolved, remote.degraded, remote.remote_errors) == (0, 0, 0)
            held = engine.cache.local_tier.held
            assert held == (prefetched if tier == "held" else 0)
            assert store_wire(engine.cache.local_tier) == store_wire(local.cache)
        finally:
            engine.cache.close()

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_a_damaged_frame_is_refused_whole(self, servers, damage):
        fleet = servers(DamagedFrameShard)
        addresses = [server.address for server in fleet]
        publish(addresses, FIRST)
        reader = remote_engine(addresses)
        assert [canonical(r) for r in reader.query_batch(FIRST)] == local_answers(FIRST)
        publish(addresses, SECOND)
        cursors = list(reader.cache._cursors)
        incarnation, since = cursors[1]
        healthy_delta = len(fleet[1].store.fetch(incarnation=incarnation, since=since)[0])
        incarnation, since = cursors[0]
        assert fleet[0].store.fetch(incarnation=incarnation, since=since)[0]
        fleet[0].damage = damage
        before = reader.stats().remote
        assert [canonical(r) for r in reader.query_batch(SECOND)] == local_answers(SECOND)
        after = reader.stats().remote
        assert after.remote_errors == before.remote_errors + 1
        assert after.degraded == before.degraded + 1
        assert after.unresolved == before.unresolved
        # Shard 0 adopted nothing and kept its cursor; shard 1 moved on.
        assert after.prefetched - before.prefetched == healthy_delta > 0
        assert reader.cache._cursors[0] == cursors[0]
        assert reader.cache._cursors[1] != cursors[1]
        reader.cache.close()

    @pytest.mark.parametrize("damage", ["integer-rows", "nominal"])
    def test_a_shard_of_an_earlier_build_is_refused_on_every_batch(self, servers, damage):
        """Against shards that answer as a 1.9 shard (integer rows) or
        answer nominally, every batch asks again for a full dump and
        refuses it whole: the client computes locally, with unchanged
        answers, until the shards answer with a frame again."""
        fleet = servers(DamagedFrameShard)
        addresses = [server.address for server in fleet]
        publish(addresses)
        for server in fleet:
            server.damage = damage
        reader = remote_engine(addresses)
        try:
            for batch in range(1, 4):
                assert [canonical(r) for r in reader.query_batch(FIRST)] == local_answers(
                    FIRST
                )
                remote = reader.stats().remote
                assert remote.remote_errors == remote.degraded == 2 * batch
                assert remote.prefetched == 0
                assert reader.cache._cursors == [None, None]
            # This build's client asks at this build's version.
            assert {v for server in fleet for v in server.versions} == {PROTOCOL_VERSION}
            for server in fleet:
                server.damage = None
            reader.query_batch(FIRST[:1])
            remote = reader.stats().remote
            assert remote.prefetched == sum(len(server.store) for server in fleet)
            assert remote.remote_errors == 6 and None not in reader.cache._cursors
        finally:
            reader.cache.close()


# ----------------------------------------------------------------------
# one shared copy per reference, on the shard
# ----------------------------------------------------------------------
def resident_refs(store):
    """Every node reference and field stack the residents hold."""
    refs = []
    for entry in store.entries_for_methods():
        refs += [entry["node"], entry["stack"], *entry["objects"]]
        for boundary in entry["boundaries"]:
            refs += [boundary["node"], boundary["stack"]]
    return refs


class TestSharing:
    def test_residents_hold_one_copy_of_each_reference(self):
        store = WireSummaryStore()
        for name in "abcd":
            store.store(wire_entry(name, objects=("o1", "o2"), boundaries=("a",)))
        refs = resident_refs(store)
        assert len({id(ref) for ref in refs}) == len({ref_key(ref) for ref in refs}) == 8
        frame = pack_frame(store.entries_for_methods())
        assert len(frame.nodes) == 6
        # The trie writes only the non-empty stack, ``[["f", 0]]``.
        assert frame.stacks == ([0, "f", 0],)

    @pytest.mark.parametrize(
        "capacity",
        [{}, {"max_entries": 12}, {"max_facts": 30}],
        ids=["unbounded", "lru", "lru-facts"],
    )
    def test_the_table_stays_bounded_through_churn(self, capacity):
        """Invalidate/re-store churn with payloads that change every
        round, payload replacements and (bounded) evictions: the table
        never holds more than twice the residents' distinct references
        plus the slack, the residents hold only shared copies, and
        lookups answer the bytes that were stored."""
        rng = random.Random(11)
        store = WireSummaryStore(**capacity)
        methods = [f"M{i}.m" for i in range(4)]
        stored = {}  # canonical key -> the entry as it was sent
        ever = set()  # the key of every reference a resident ever held
        for step in range(600):
            method = rng.choice(methods)
            epoch = store.method_epoch(method)
            roll = rng.random()
            if roll < 0.1:
                store.invalidate_method(method)
            else:
                labels = tuple(f"o{rng.randrange(step // 4 + 2)}" for _ in range(2))
                entry = wire_entry(
                    f"v{rng.randrange(6)}", method, objects=labels,
                    stack=[(f"f{rng.randrange(3)}", rng.randrange(2))],
                    boundaries=(f"b{rng.randrange(step // 8 + 2)}",),
                )
                if roll > 0.95:
                    # A stored reference whose keys are not its kind's
                    # (no ``method``, one extra) is never shared.
                    entry["objects"][0] = {
                        "kind": "object", "id": labels[0], "class": "Thing", "x": 0,
                    }
                sent = copy.deepcopy(entry)
                if store.store(entry, epoch=epoch):
                    stored[entry_key(sent)] = sent
            refs = [ref for ref in resident_refs(store) if ref_key(ref) is not None]
            distinct = {ref_key(ref) for ref in refs}
            ever |= distinct
            assert len(store._shared) <= 2 * len(distinct) + SHARED_SLACK
            assert all(store._shared[ref_key(ref)] is ref for ref in refs)
        # Far more references passed through than the bound admits, so
        # the table was rebuilt along the way.
        assert len(ever) > 2 * (2 * len(distinct) + SHARED_SLACK)
        assert store.invalidated > 0
        assert (store.evictions > 0) == bool(capacity)
        for entry in store.entries_for_methods():
            key = {k: entry[k] for k in ("node", "stack", "state")}
            found = store.lookup(key, epoch=store.method_epoch(entry["node"]["method"]))
            assert encode(LookupResponse(found=True, entry=found)) == encode(
                LookupResponse(found=True, entry=stored[entry_key(entry)])
            )
