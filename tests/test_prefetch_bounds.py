"""Bounds a prefetched or loaded entry must meet before the kernel sees it.

* **Steps below 2**63.**  The kernel mirror keeps a summary's ``steps``
  as int64, so every validator refuses 2**63 or more with a typed
  ``SnapshotError`` naming the field: a nominal wire entry (a shard
  refuses such a store), a frame row and a snapshot entry; packed rows
  have no form for it.  At 2**63 - 1 each loads, and a batch over it,
  prefetched in a frame or warm-started from a snapshot, runs on the
  kernel.  A summary stored through the Python API past int64 makes
  the kernel refuse the store, and the query reruns on the ``array``
  loop.
* **Epochs aligned with the entries.**  A framed ``fetch-methods``
  answer whose non-empty ``epochs`` is shorter or longer than its
  entries is refused whole: ``remote_errors`` and ``degraded`` count
  it, nothing is adopted and the shard's cursor stays.
"""

import dataclasses
import json

import pytest

from repro import CachePolicy, EnginePolicy, PointsToEngine, build_pag
from repro.analysis.ppta import PptaResult
from repro.api.codec import decode_response, encode
from repro.analysis.summaries import shard_for_method
from repro.api.protocol import (
    BatchStoreRequest,
    BatchStoreResponse,
    SnapshotError,
    StoreRequest,
)
from repro.api.snapshot import (
    SummarySnapshot,
    check_entry,
    frame_rows,
    pack_frame,
    resolve_frame,
    resolve_wire_entry,
)
from repro.bench.generator import GeneratorConfig, generate_program
from repro.cacheserver.server import ShardServer
from repro.cfl.stacks import EMPTY_STACK
from repro.native import availability

CONFIG = GeneratorConfig(seed=3, domain_classes=2, data_classes=2, layers=1)
LARGEST = 2**63 - 1


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


def computed_entries():
    """Every summary a local engine computes for :data:`QUERIES`, as
    wire entries in store order."""
    engine = PointsToEngine(program_pag(), EnginePolicy())
    engine.query_batch(QUERIES)
    return SummarySnapshot.capture(engine.cache).entries


def with_steps(entries, steps):
    """``entries`` with the first one's ``steps`` set to ``steps``."""
    entries = [dict(entry) for entry in entries]
    entries[0]["steps"] = steps
    return entries


def canonical(results):
    return [
        (r.complete, sorted((str(o.object_id), c.to_tuple()) for o, c in r.pairs))
        for r in results
    ]


def remote_engine(addresses, impl=None):
    return PointsToEngine(
        program_pag(),
        EnginePolicy(
            traversal_impl=impl,
            cache=CachePolicy(remote=tuple(addresses), remote_timeout=5.0),
        ),
    )


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


def publish(fleet, entries, **fields):
    """Store ``entries`` in their owning shards of ``fleet``."""
    for index, server in enumerate(fleet):
        mine = tuple(
            entry for entry in entries
            if shard_for_method(entry["node"]["method"], len(fleet)) == index
        )
        answer = decode_response(
            server.handle_line(encode(BatchStoreRequest(entries=mine, **fields)))
        )
        assert isinstance(answer, BatchStoreResponse), answer


def snapshot_of(entries):
    """A validated snapshot of an unbounded store holding ``entries``."""
    payload = SummarySnapshot.capture(
        PointsToEngine(program_pag(), EnginePolicy()).cache
    ).to_payload()
    payload["entries"] = entries
    payload["stats"]["entries"] = len(entries)
    payload["stats"]["facts"] = sum(
        len(entry["objects"]) + len(entry["boundaries"]) for entry in entries
    )
    return SummarySnapshot.from_payload(json.loads(json.dumps(payload)))


def require_kernel():
    ok, reason = availability()
    if not ok:
        pytest.skip(f"native kernel unavailable: {reason}")


def on_the_kernel(engine):
    """The engine's tier has a live kernel mirror holding all of it."""
    tier = engine.cache.local_tier if hasattr(engine.cache, "local_tier") else engine.cache
    memo = tier._native_memo
    assert memo is not None and memo[1] is not None, "kernel refused the store"
    assert memo[1].live() == len(tier) > 0
    assert engine.stats().native_unavailable is None


# ----------------------------------------------------------------------
# steps
# ----------------------------------------------------------------------
class TestSteps:
    def test_every_validator_refuses_steps_of_2_63(self):
        entries = with_steps(computed_entries(), 2**63)
        text = r"steps: must be below 2\*\*63, got 9223372036854775808"
        with pytest.raises(SnapshotError, match=rf"^entry\.{text}$"):
            check_entry(entries[0])
        with pytest.raises(SnapshotError, match=rf"^e\.{text}$"):
            resolve_wire_entry(program_pag(), entries[0], "e")
        # Packed rows have no form for it; rows that hold it are refused.
        with pytest.raises(OverflowError):
            pack_frame(entries)
        frame = pack_frame(with_steps(entries, LARGEST))
        rows = list(frame_rows(frame))
        assert rows[3] == LARGEST and frame_rows(frame).itemsize == 8
        rows[3] = 2**63
        with pytest.raises(
            SnapshotError, match=r"^f\.rows\[3\]: steps must be below 2\*\*63"
        ):
            resolve_frame(program_pag(), frame, "f", rows=rows)
        with pytest.raises(SnapshotError, match=rf"^entries\[0\]\.{text}$"):
            snapshot_of(entries)
        # 2**63 - 1 passes every one of them.
        check_entry(with_steps(entries, LARGEST)[0])
        resolve_frame(program_pag(), frame)

    def test_a_shard_refuses_a_store_past_the_bound(self):
        server = ShardServer(0, 1)
        server.stop()  # dispatch only
        entry = with_steps(computed_entries(), 2**63)[0]
        for request, path in (
            (StoreRequest(entry=entry), "store.entry"),
            (BatchStoreRequest(entries=(entry,)), "batch-store.entries[0]"),
        ):
            answer = json.loads(server.handle_line(encode(request)))
            assert answer["kind"] == "error" and answer["code"] == "snapshot-invalid"
            assert answer["message"].startswith(f"{path}.steps: must be below 2**63")
        assert len(server.store) == 0

    @pytest.mark.parametrize("path", ["frame", "snapshot"])
    def test_steps_just_below_the_bound_load_and_run_on_the_kernel(
        self, servers, path
    ):
        require_kernel()
        entries = with_steps(computed_entries(), LARGEST)
        want = canonical(
            PointsToEngine(program_pag(), EnginePolicy()).query_batch(QUERIES)
        )
        if path == "snapshot":
            engine = PointsToEngine(program_pag(), EnginePolicy())
            snapshot_of(entries).load_into(engine.cache, engine.pag)
        else:
            fleet = servers()
            publish(fleet, entries)
            engine = remote_engine([server.address for server in fleet])
        try:
            assert canonical(engine.query_batch(QUERIES)) == want
            on_the_kernel(engine)
            steps = {memo.steps for _key, memo in engine.cache.entries()}
            assert LARGEST in steps
        finally:
            close = getattr(engine.cache, "close", None)
            if close is not None:
                close()

    def test_a_store_past_int64_reruns_on_the_array_loop(self):
        """A summary stored through the Python API with ``steps`` past
        int64 cannot enter the kernel mirror: the kernel refuses the
        store and the query is answered on the array loop."""
        engine = PointsToEngine(program_pag(), EnginePolicy())
        want = PointsToEngine(program_pag(), EnginePolicy(traversal_impl="array"))
        method, name = QUERIES[0]
        for e in (engine, want):
            node = e.pag.find_local(method, name)
            e.cache.store(node, EMPTY_STACK, 1, PptaResult((), (), steps=2**64))
        got = engine.query_name(method, name)
        expect = want.query_name(method, name)
        assert canonical([got]) == canonical([expect]) and got.steps == expect.steps
        memo = engine.cache._native_memo
        assert memo is None or memo[1] is None  # refused, not crashed


# ----------------------------------------------------------------------
# epochs
# ----------------------------------------------------------------------
class MisalignedShard(ShardServer):
    """Answers every framed ``fetch-methods`` with ``epochs`` one
    shorter or one longer than its entries (``shift``)."""

    shift = 0

    def _dispatch(self, request):
        response = super()._dispatch(request)
        frame = getattr(response, "frame", None)
        if frame is None or not self.shift:
            return response
        count = len(resolve_frame(program_pag(), frame))
        return dataclasses.replace(response, epochs=(0,) * (count + self.shift))


@pytest.mark.parametrize("shift", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("impl", ["native", "array"])
def test_misaligned_epochs_refuse_the_answer_whole(servers, shift, impl):
    fleet = servers(MisalignedShard)
    publish(fleet, computed_entries())
    reader = remote_engine([server.address for server in fleet], impl)
    try:
        for server in fleet:
            server.shift = shift
        want = canonical(
            PointsToEngine(program_pag(), EnginePolicy()).query_batch(QUERIES)
        )
        assert canonical(reader.query_batch(QUERIES)) == want
        remote = reader.stats().remote
        # Both shards' full dumps refused: nothing adopted, no cursor.
        assert remote.remote_errors == remote.degraded == 2
        assert (remote.prefetched, remote.unresolved) == (0, 0)
        assert reader.cache._cursors == [None, None]
        assert reader.cache.local_tier.held == 0
        # Aligned again, the next prefetch is a full dump and adopts.
        for server in fleet:
            server.shift = 0
        reader.query_batch(QUERIES[:1])
        assert reader.stats().remote.prefetched > 0
        assert None not in reader.cache._cursors
    finally:
        reader.cache.close()
