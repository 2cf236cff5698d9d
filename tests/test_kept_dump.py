"""The kept full dump: a shard answers a repeated framed full
``fetch-methods`` with the line it already encoded, while its store's
version stands.

Pinned here:

* a seeded differential over unbounded stores and LRU stores under an
  entry cap or a fact cap: after every store-level op (store,
  equal-payload re-store with more ``steps``, replace, lookup hit and
  miss, lookup at a newer epoch, fingerprint pin, invalidate with and
  without residents, ``clear``, blank restart) the dispatcher's full
  dump, at 1.9 (nominal entries, never kept) and 1.10 (a frame), with
  and without a method filter and a fingerprint, equals byte for byte
  a fresh scan, pack and encode of the store, and a repeated 1.10 dump
  is answered from the kept line;
* full dumps of an unchanged store at 1.7, 1.8 or 1.9 interleaved
  with 1.10 ones neither get nor evict the kept 1.10 line: every older
  dump is scanned, and every 1.10 dump after the first is kept;
* writers alongside full-dump readers on one dispatcher: no answer is
  older than the store the request found, and once the writers stop
  the next dump equals a fresh one;
* ``truncate``/``corrupt`` faults damage the outgoing line only;
* a shard server answers a repeated dump from the kept line.
"""

import copy
import random
import sys
import threading

import pytest

from repro.api.codec import decode_response, encode
from repro.api.protocol import (
    PROTOCOL_VERSION,
    MethodEntriesRequest,
    MethodEntriesResponse,
    StoreRequest,
)
from repro.api.snapshot import frame_rows, pack_frame
from repro.cacheserver.client import ShardLink
from repro.cacheserver.server import ShardDispatcher, ShardServer
from repro.cacheserver.store import StaleEpochRejection, entry_method

METHODS = ("A.m", "B.n", "C.o")
FINGERPRINTS = (11, 22)


#: The request versions: 1.9, like every version before 1.10, gets
#: nominal entries; 1.10 a frame.
VERSIONS = ("1.9", "1.10")


def stack_of(name):
    """A field stack of 0-2 tokens, fixed per name, so the two frames'
    stack tables differ."""
    return [["f", 0], ["g", 1]][: sum(map(ord, name)) % 3]


def wire_entry(name, method="A.m", objects=("o1",), steps=4):
    return {
        "node": {"kind": "local", "method": method, "name": name},
        "stack": stack_of(name),
        "state": 1,
        "objects": [
            {"kind": "object", "id": label, "class": "Thing", "method": method}
            for label in objects
        ],
        "boundaries": [],
        "steps": steps,
    }


def key_of(entry):
    return {k: entry[k] for k in ("node", "stack", "state")}


def dump_request(methods=None, fingerprint=None, version=PROTOCOL_VERSION):
    return encode(
        MethodEntriesRequest(
            methods=methods, fingerprint=fingerprint, protocol_version=version
        )
    )


def fresh_line(store, methods=None, fingerprint=None, version=PROTOCOL_VERSION):
    """What a shard sends for a full dump of ``store`` as it stands:
    a fresh scan, pack and encode.  A requester older than 1.10 gets
    nominal entries."""
    entries, epochs, incarnation, cursor, _version = store.fetch(methods, fingerprint)
    epochs = tuple(epochs) if any(epochs) else ()
    if version == PROTOCOL_VERSION and entries:
        response = MethodEntriesResponse(
            entries=(),
            epochs=epochs,
            incarnation=incarnation,
            cursor=cursor,
            frame=pack_frame(entries),
        )
    else:
        response = MethodEntriesResponse(
            entries=tuple(entries),
            epochs=epochs,
            incarnation=incarnation,
            cursor=cursor,
        )
    return encode(response)


# ----------------------------------------------------------------------
# the seeded differential
# ----------------------------------------------------------------------
class StoreOps:
    """Seeded store-level ops against one dispatcher's store; each picks
    its operands from what the store holds, so every op kind changes
    (or, for a plain miss, deliberately leaves) a full dump."""

    NAMES = "abcdef"
    OBJECTS = ("o1", "o2", "o3")

    def __init__(self, store, rng):
        self.store = store
        self.rng = rng
        self.counts = {}

    def residents(self, method=None):
        return self.store.entries_for_methods(None if method is None else (method,))

    def epoch(self, method):
        return self.store.method_epoch(method)

    def payload(self):
        return tuple(self.rng.sample(self.OBJECTS, self.rng.randint(1, 2)))

    def store_entry(self, entry, fingerprint=None):
        try:
            self.store.store(
                entry, epoch=self.epoch(entry_method(entry)), fingerprint=fingerprint
            )
        except StaleEpochRejection:
            pass  # another program's fingerprint: refused, nothing changed

    # -- the ops -------------------------------------------------------
    def op_store(self):
        method = self.rng.choice(METHODS)
        entry = wire_entry(
            self.rng.choice(self.NAMES), method, self.payload(), self.rng.randint(1, 50)
        )
        fingerprint = self.rng.choice((None, None, *FINGERPRINTS))
        self.store_entry(entry, fingerprint)

    def op_restore_more_steps(self):
        residents = self.residents()
        if residents:
            resident = self.rng.choice(residents)
            entry = copy.deepcopy(resident)
            entry["steps"] = resident.get("steps", 0) + self.rng.randint(1, 9)
            self.store_entry(entry)

    def op_restore_equal(self):
        # The same payload and steps: only the recency moves.
        residents = self.residents()
        if residents:
            self.store_entry(copy.deepcopy(residents[0]))

    def op_replace(self):
        residents = self.residents()
        if residents:
            resident = self.rng.choice(residents)
            objects = [obj["id"] for obj in resident["objects"]]
            fresh = [label for label in self.OBJECTS if label not in objects]
            entry = wire_entry(
                resident["node"]["name"],
                entry_method(resident),
                (fresh[0],),
                resident.get("steps", 0),
            )
            self.store_entry(entry)

    def op_lookup_hit(self):
        residents = self.residents()
        if residents:
            resident = residents[0] if self.rng.random() < 0.5 else self.rng.choice(residents)
            method = entry_method(resident)
            assert self.store.lookup(key_of(resident), epoch=self.epoch(method))

    def op_lookup_miss(self):
        method = self.rng.choice(METHODS)
        key = key_of(wire_entry("zz", method))
        assert self.store.lookup(key, epoch=self.epoch(method)) is None

    def op_lookup_newer_epoch(self):
        method = self.rng.choice(METHODS)
        key = key_of(wire_entry(self.rng.choice(self.NAMES), method))
        self.store.lookup(
            key,
            epoch=self.epoch(method) + 1,
            fingerprint=self.rng.choice((None, *FINGERPRINTS)),
        )

    def op_pin(self):
        # A miss that pins the method's fingerprint, if none is recorded.
        method = self.rng.choice(METHODS)
        key = key_of(wire_entry("zz", method))
        self.store.lookup(
            key, epoch=self.epoch(method), fingerprint=self.rng.choice(FINGERPRINTS)
        )

    def op_invalidate_resident(self):
        residents = self.residents()
        if residents:
            method = entry_method(self.rng.choice(residents))
            self.store.invalidate_method(method, epoch=self.epoch(method) + 1)

    def op_invalidate_absent(self):
        absent = [m for m in (*METHODS, "Z.z") if not self.residents(m)]
        if absent:
            self.store.invalidate_method(self.rng.choice(absent))

    def op_clear(self):
        self.store.clear()

    def op_blank_restart(self):
        self.store.restart_blank()

    #: ``(op, weight)``: stores dominate so the store keeps residents.
    WEIGHTS = (
        ("op_store", 8),
        ("op_restore_more_steps", 3),
        ("op_restore_equal", 2),
        ("op_replace", 2),
        ("op_lookup_hit", 4),
        ("op_lookup_miss", 2),
        ("op_lookup_newer_epoch", 1),
        ("op_pin", 3),
        ("op_invalidate_resident", 1),
        ("op_invalidate_absent", 1),
        ("op_clear", 0.5),
        ("op_blank_restart", 0.5),
    )

    def step(self):
        names, weights = zip(*self.WEIGHTS)
        name = self.rng.choices(names, weights)[0]
        self.counts[name] = self.counts.get(name, 0) + 1
        getattr(self, name)()


DUMPS = [
    (methods, fingerprint, version)
    for methods in (None, ("A.m",), ("A.m", "B.n"))
    for fingerprint in (None, *FINGERPRINTS)
    for version in VERSIONS
]

CAPACITIES = {
    "unbounded": {},
    "lru": {"max_entries": 8},
    "lru-facts": {"max_facts": 4},
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("capacity", sorted(CAPACITIES))
def test_a_full_dump_equals_a_fresh_one_after_every_op(capacity, seed):
    """Each step runs one op, then asks for the current dump (the one
    the previous step asked for, unless it switched), so a version that
    an op failed to move serves the line kept before the op.  A
    repeated 1.10 dump is kept; a repeated 1.9 one is scanned again."""
    rng = random.Random(f"{capacity}-{seed}")
    dispatcher = ShardDispatcher(0, 1, **CAPACITIES[capacity])
    ops = StoreOps(dispatcher.store, rng)
    dump = rng.choice(DUMPS)
    for _ in range(500):
        if rng.random() < 0.2:
            dump = rng.choice(DUMPS)
        ops.step()
        line = dispatcher.handle_line(dump_request(*dump))
        assert line == fresh_line(dispatcher.store, *dump), (ops.counts, dump)
        if rng.random() < 0.25:
            counts = (dispatcher.dumps_packed, dispatcher.dumps_kept)
            assert dispatcher.handle_line(dump_request(*dump)) == line
            framed = dump[2] == PROTOCOL_VERSION
            assert (dispatcher.dumps_packed, dispatcher.dumps_kept) == (
                counts[0] + (not framed), counts[1] + framed,
            )
    assert set(ops.counts) == {name for name, _weight in StoreOps.WEIGHTS}
    assert dispatcher.dumps_kept > 50 and dispatcher.dumps_packed > 50


def test_a_delta_is_never_kept_and_never_served_the_kept_line():
    dispatcher = ShardDispatcher(0, 1)
    dispatcher.store.store(wire_entry("a"))
    full = decode_response(dispatcher.handle_line(dump_request()))
    delta_line = encode(
        MethodEntriesRequest(incarnation=full.incarnation, since=0)
    )
    # A cursor from this incarnation asks for a delta: never the kept
    # full dump, even while the version stands.
    delta = decode_response(dispatcher.handle_line(delta_line))
    assert delta.frame is not None and delta.cursor == full.cursor
    assert (dispatcher.dumps_packed, dispatcher.dumps_kept) == (1, 0)
    # A cursor past the store's, or from another incarnation, asks for
    # a full dump again: the kept one.
    for incarnation, since in ((full.incarnation, full.cursor + 1), (1, 0)):
        line = dispatcher.handle_line(
            encode(MethodEntriesRequest(incarnation=incarnation, since=since))
        )
        assert line == fresh_line(dispatcher.store)
    assert (dispatcher.dumps_packed, dispatcher.dumps_kept) == (1, 2)


def test_each_filter_and_framing_is_its_own_dump():
    dispatcher = ShardDispatcher(0, 1)
    dispatcher.store.store(wire_entry("a"))
    dispatcher.store.store(wire_entry("b", method="B.n"), fingerprint=11)
    for dump in DUMPS:
        assert dispatcher.handle_line(dump_request(*dump)) == fresh_line(
            dispatcher.store, *dump
        )
    assert (dispatcher.dumps_packed, dispatcher.dumps_kept) == (len(DUMPS), 0)


@pytest.mark.parametrize("older", ["1.7", "1.8", "1.9"])
def test_older_full_dumps_neither_get_nor_evict_the_kept_line(older):
    """Each minor before 1.10, whether its shards once framed (1.8,
    1.9) or not (1.7), gets nominal entries beside the kept line."""
    dispatcher = ShardDispatcher(0, 1)
    for name in "abc":
        dispatcher.store.store(wire_entry(name))
    # Nothing is kept until a 1.10 full dump.
    dispatcher.handle_line(dump_request(version=older))
    assert dispatcher._kept is None
    lines = {}
    for version in ("1.10", older) * 3:
        line = dispatcher.handle_line(dump_request(version=version))
        assert line == fresh_line(dispatcher.store, version=version)
        lines.setdefault(version, line)
        assert line == lines[version]
    assert lines[older] != lines["1.10"]
    assert decode_response(lines[older]).frame is None
    # The 1.10 dump packs once and every later one is kept; every older
    # dump is scanned, and none replaces the kept line.
    assert (dispatcher.dumps_packed, dispatcher.dumps_kept) == (5, 2)
    assert dispatcher._kept.line == lines["1.10"]
    # A store op moves the version: the next 1.10 dump packs again,
    # and older dumps in between still leave its line kept.
    dispatcher.store.store(wire_entry("d"))
    for version in (older, "1.10", older, "1.10"):
        assert dispatcher.handle_line(
            dump_request(version=version)
        ) == fresh_line(dispatcher.store, version=version)
    assert (dispatcher.dumps_packed, dispatcher.dumps_kept) == (8, 3)


# ----------------------------------------------------------------------
# writers alongside readers
# ----------------------------------------------------------------------
def test_writers_alongside_full_dump_readers():
    """Writers store their own keys in order and look earlier ones up
    (hits reorder the dump); readers ask for full dumps throughout,
    two per version, so a 1.10 reader can find the other's answer
    kept.  An
    unbounded store stamps each new key once, so a consistent dump holds
    exactly ``cursor`` entries, a prefix of each writer's keys.  No
    answer may be older than the store the request found, or than an
    answer the same reader already had, and every dump is counted once,
    packed or kept."""
    dispatcher = ShardDispatcher(0, 1)
    store = dispatcher.store
    n_writers, per_writer = 3, 60
    errors = []
    stop = threading.Event()

    def writer(index):
        rng = random.Random(index)
        try:
            for i in range(per_writer):
                method = METHODS[index]
                store.store(wire_entry(f"w{index}k{i}", method))
                if i:
                    earlier = wire_entry(f"w{index}k{rng.randrange(i)}", method)
                    assert store.lookup(key_of(earlier)) is not None
        except Exception as exc:  # surfaced below
            errors.append(exc)

    def reader(version, seen):
        try:
            last = -1
            while not stop.is_set():
                found = store.fetch()[3]
                response = decode_response(
                    dispatcher.handle_line(dump_request(version=version))
                )
                assert response.cursor >= max(found, last), (response.cursor, found, last)
                last = response.cursor
                if response.frame is not None:
                    rows = frame_rows(response.frame)
                    names = [response.frame.nodes[rows[at]]["name"] for at in range(0, len(rows), 7)]
                else:
                    names = [entry["node"]["name"] for entry in response.entries]
                assert len(names) == response.cursor
                for w in range(n_writers):
                    held = sorted(
                        int(name.split("k")[1]) for name in names if name.startswith(f"w{w}k")
                    )
                    assert held == list(range(len(held))), (w, held)
                seen.append(response.cursor)
        except Exception as exc:
            errors.append(exc)

    versions = ("1.9", "1.9", "1.10", "1.10")
    seen = [[] for _ in versions]
    readers = [
        threading.Thread(target=reader, args=(version, seen[i]))
        for i, version in enumerate(versions)
    ]
    writers = [threading.Thread(target=writer, args=(i,)) for i in range(n_writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + writers)
    assert not errors, errors
    assert all(seen), "a reader never completed a dump"
    assert dispatcher.dumps_packed + dispatcher.dumps_kept == sum(map(len, seen))
    for version in VERSIONS:
        line = dispatcher.handle_line(dump_request(version=version))
        assert line == fresh_line(store, version=version)
    kept = dispatcher.dumps_kept
    assert dispatcher.handle_line(dump_request()) == fresh_line(store)
    assert dispatcher.dumps_kept == kept + 1


# ----------------------------------------------------------------------
# faults damage the outgoing line only
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["truncate", "corrupt"])
@pytest.mark.parametrize("damaged", [1, 2], ids=["packed", "kept"])
def test_a_damaged_full_dump_leaves_the_next_answer_intact(kind, damaged):
    """Op 0 stores, ops 1-3 ask for the same full dump; op ``damaged``
    (the dump that packs, or the first one the kept line answers) is
    damaged on its way out."""
    dispatcher = ShardDispatcher(0, 1, faults=f"rule={kind}:0:{damaged}")
    dispatcher.handle_line(encode(StoreRequest(entry=wire_entry("a"))))
    lines = [dispatcher.handle_line(dump_request()) for _ in range(3)]
    clean = fresh_line(dispatcher.store)
    assert lines[damaged - 1] != clean
    assert [line for i, line in enumerate(lines) if i != damaged - 1] == [clean, clean]
    assert (dispatcher.dumps_packed, dispatcher.dumps_kept) == (1, 2)


# ----------------------------------------------------------------------
# over the socket
# ----------------------------------------------------------------------
def test_a_shard_answers_a_repeated_dump_from_the_kept_line():
    server = ShardServer(0, 1).start()
    link = ShardLink(server.address, timeout=5.0)
    try:
        link.request(encode(StoreRequest(entry=wire_entry("a"))))
        first = link.request(dump_request(methods=None))
        second = link.request(dump_request(methods=None))
        assert first == second == fresh_line(server.store) + "\n"
        assert (server.dumps_packed, server.dumps_kept) == (1, 1)
        link.request(encode(StoreRequest(entry=wire_entry("b"))))
        third = decode_response(link.request(dump_request(methods=None)))
        assert third.cursor == 2 and len(frame_rows(third.frame)) == 14
        assert (server.dumps_packed, server.dumps_kept) == (2, 1)
    finally:
        link.close()
        server.stop()
