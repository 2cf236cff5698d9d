"""Wire codec and snapshot format: adversarial decodes and round trips.

Two properties anchor the wire layer:

* **no traceback is reachable** — truncated JSON, wrong major version,
  unknown kinds, missing/unknown/ill-typed fields, and corrupt
  snapshots (including stats that disagree with the recorded entries)
  each raise exactly one typed error;
* **round-trip fidelity** — ``loads(dumps(store))`` preserves answers,
  LRU recency order, capacity policy and ``CacheStats`` for every store
  variant, over a real program's query traffic.
"""

import dataclasses
import json
import sys
import threading
import typing

import pytest

from repro import (
    CachePolicy,
    DynSum,
    EnginePolicy,
    PointsToEngine,
    ProtocolError,
    SnapshotError,
    SummarySnapshot,
    build_pag,
    parse_program,
)
from repro.analysis.summaries import (
    BoundedSummaryCache,
    CacheStats,
    SummaryCache,
    shard_for_method,
)
from repro.api import (
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    RESPONSE_KINDS,
    AliasRequest,
    BatchRequest,
    InvalidateRequest,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    WireObject,
    WireVerdict,
    decode_request,
    decode_response,
    encode,
)
from repro.api import codec, protocol
from repro.engine.scheduler import BatchStats
from repro.bench.runner import bench_engine_policy

from conftest import FIGURE2_SOURCE


@pytest.fixture(scope="module")
def pag():
    return build_pag(parse_program(FIGURE2_SOURCE))


# ----------------------------------------------------------------------
# adversarial decode paths — each one a typed error, never a traceback
# ----------------------------------------------------------------------
class TestAdversarialDecode:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{",
            '{"kind":"query","method":"Main.main"',  # truncated JSON
            "\x00\x01",
            "null",
        ],
    )
    def test_malformed_or_non_object_json(self, text):
        with pytest.raises(ProtocolError) as info:
            decode_request(text)
        assert info.value.code in ("malformed-json", "invalid-request")

    def test_pathological_nesting_is_malformed_not_a_crash(self):
        depth = 100_000
        with pytest.raises(ProtocolError) as info:
            decode_request("[" * depth + "]" * depth)
        assert info.value.code == "malformed-json"
        with pytest.raises(SnapshotError):
            SummarySnapshot.loads("[" * depth + "]" * depth)

    def test_wrong_major_version_rejected(self):
        line = '{"kind":"stats","protocol_version":"2.0"}'
        with pytest.raises(ProtocolError) as info:
            decode_request(line)
        assert info.value.code == "unsupported-version"

    def test_minor_version_drift_accepted(self):
        request = decode_request('{"kind":"stats","protocol_version":"1.9"}')
        assert isinstance(request, StatsRequest)

    @pytest.mark.parametrize(
        "version", ["", "one.zero", "1", "1.2.3", 7, None, [1, 0]]
    )
    def test_junk_version_rejected(self, version):
        payload = {"kind": "stats", "protocol_version": version}
        with pytest.raises(ProtocolError) as info:
            decode_request(json.dumps(payload))
        assert info.value.code == "invalid-request"

    def test_unknown_kind(self):
        with pytest.raises(ProtocolError) as info:
            decode_request('{"kind":"frobnicate","protocol_version":"1.0"}')
        assert info.value.code == "unknown-kind"

    @pytest.mark.parametrize(
        "decode, direction",
        [(decode_request, "request"), (decode_response, "response")],
        ids=["request", "response"],
    )
    @pytest.mark.parametrize("kind", [["query"], {}], ids=["array", "object"])
    def test_non_string_kind_is_unknown(self, decode, direction, kind):
        # An unhashable kind once escaped the registry lookup as a
        # TypeError; it is an unknown kind like any other.
        line = json.dumps({"kind": kind, "protocol_version": PROTOCOL_VERSION})
        with pytest.raises(ProtocolError) as info:
            decode(line)
        assert info.value.code == "unknown-kind"
        assert str(info.value).startswith(f"unknown {direction} kind {kind!r};")

    def test_integer_past_the_float_range_is_ill_typed(self):
        # A float field fed a JSON integer too large for a float is a
        # typed error, not an OverflowError from the conversion.
        stats = dict(
            n_requests=1, n_unique=1, reordered=False, steps=1,
            time_sec=10**400, complete=1, incomplete=0,
        )
        line = json.dumps({
            "kind": "batch-result", "results": [], "stats": stats,
            "protocol_version": PROTOCOL_VERSION,
        })
        with pytest.raises(ProtocolError) as info:
            decode_response(line)
        assert info.value.code == "invalid-request"
        assert str(info.value).startswith("batch-result.stats.time_sec: ")

    def test_missing_kind_and_missing_version(self):
        with pytest.raises(ProtocolError):
            decode_request('{"protocol_version":"1.0"}')
        with pytest.raises(ProtocolError):
            decode_request('{"kind":"stats"}')

    def test_missing_required_field(self):
        line = '{"kind":"query","method":"Main.main","protocol_version":"1.0"}'
        with pytest.raises(ProtocolError) as info:
            decode_request(line)
        assert info.value.code == "invalid-request"
        assert "var" in str(info.value)

    def test_unknown_field_rejected(self):
        line = (
            '{"kind":"query","method":"M.m","var":"v","shoes":2,'
            '"protocol_version":"1.0"}'
        )
        with pytest.raises(ProtocolError) as info:
            decode_request(line)
        assert "shoes" in str(info.value)

    def test_responses_ignore_unknown_fields_for_forward_compat(self):
        # The versioning policy's client half: a same-major server that
        # added response fields (a minor revision) must stay decodable
        # by this build.  Known fields are still validated strictly.
        line = (
            '{"kind":"stats-result","analysis":"DYNSUM","queries":1,'
            '"executed":1,"batches":0,"deduped":0,"steps":3,'
            '"incomplete":0,"edits":0,"from_the_future":{"x":1},'
            '"protocol_version":"1.7"}'
        )
        decoded = decode_response(line)
        assert decoded.analysis == "DYNSUM"
        assert not hasattr(decoded, "from_the_future")
        with pytest.raises(ProtocolError):
            decode_response(line.replace('"queries":1', '"queries":"one"'))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("method", 7),
            ("var", None),
            ("context", "c1"),
            ("context", ["not-an-int"]),
            ("context", [True]),
            ("client", 3),
            ("payload", [1]),
        ],
    )
    def test_ill_typed_fields_rejected(self, field, value):
        payload = {
            "kind": "query",
            "method": "M.m",
            "var": "v",
            "protocol_version": PROTOCOL_VERSION,
        }
        payload[field] = value
        with pytest.raises(ProtocolError) as info:
            decode_request(json.dumps(payload))
        assert info.value.code == "invalid-request"
        assert field in str(info.value)

    def test_nested_batch_queries_validated(self):
        payload = {
            "kind": "batch",
            "queries": [{"method": "M.m"}],  # missing var
            "protocol_version": PROTOCOL_VERSION,
        }
        with pytest.raises(ProtocolError) as info:
            decode_request(json.dumps(payload))
        assert "queries[0]" in str(info.value)


# ----------------------------------------------------------------------
# request/response round trips through canonical JSON
# ----------------------------------------------------------------------
class TestCanonicalRoundTrip:
    REQUESTS = [
        QueryRequest("Main.main", "s1"),
        QueryRequest("Main.main", "s1", context=(3, 1), client="SafeCast",
                     payload=("String",)),
        BatchRequest(queries=(QueryRequest("A.m", "x"), QueryRequest("B.n", "y")),
                     dedupe=False, reorder=None),
        AliasRequest("A.m", "x", "B.n", "y", context1=(2,)),
        InvalidateRequest("Vector.get"),
        StatsRequest(),
    ]

    @pytest.mark.parametrize("request_obj", REQUESTS, ids=lambda r: type(r).__name__)
    def test_request_round_trip(self, request_obj):
        line = encode(request_obj)
        assert decode_request(line) == request_obj
        # Canonical form: re-encoding the decode is byte-identical.
        assert encode(decode_request(line)) == line

    def test_encoding_is_canonical(self):
        line = encode(StatsRequest())
        payload = json.loads(line)
        assert list(payload) == sorted(payload)
        assert " " not in line

    ENTRY = {"node": {"kind": "local", "method": "A.m", "name": "x"},
             "stack": [], "state": 1, "objects": [], "boundaries": []}
    CACHE_STATS = CacheStats(entries=1, facts=2, hits=3, misses=4, evictions=0,
                             invalidated=0, approx_bytes=64, max_entries=8)
    #: One instance of every registered kind, non-default fields set.
    SAMPLES = {
        "query": QueryRequest("Main.main", "s1", context=(3, 1), client="SafeCast",
                              payload=("String",)),
        "batch": BatchRequest(queries=(QueryRequest("A.m", "x"),), dedupe=True),
        "alias": AliasRequest("A.m", "x", "B.n", "y", context2=(4,)),
        "invalidate": InvalidateRequest("A.m", epoch=3, fingerprint=-7),
        "stats": StatsRequest(protocol_version="1.0"),
        "lookup": protocol.LookupRequest(key={"node": ENTRY["node"], "stack": [],
                                              "state": 1}, epoch=2),
        "store": protocol.StoreRequest(entry=ENTRY, fingerprint=11),
        "store-stats": protocol.StoreStatsRequest(),
        "batch-lookup": protocol.BatchLookupRequest(keys=({"state": 2}, None),
                                                    epochs=(1, 2)),
        "batch-store": protocol.BatchStoreRequest(entries=(ENTRY,), epochs=(5,)),
        "batch-invalidate": protocol.BatchInvalidateRequest(methods=("A.m", "B.n")),
        "fetch-methods": protocol.MethodEntriesRequest(methods=("A.m",),
                                                      incarnation=9, since=4),
        "query-result": QueryResponse(
            objects=(WireObject("o1", "Vector", contexts=((1, 2), ())),),
            complete=False, steps=42,
            verdict=WireVerdict("SafeCast", "violation", offenders=("o1",)),
        ),
        "batch-result": protocol.BatchResponse(
            results=(QueryResponse(objects=(), complete=True, steps=1),),
            stats=BatchStats(n_requests=2, n_unique=1, reordered=True, steps=1,
                             time_sec=0.25, complete=1, incomplete=0, evictions=3),
        ),
        "alias-result": protocol.AliasResponse(verdict=None, witnesses=("o2",),
                                               steps=9),
        "invalidated": protocol.InvalidateResponse(method="A.m", dropped=2),
        "stats-result": protocol.StatsResponse(
            analysis="DYNSUM", queries=3, executed=2, batches=1, deduped=1,
            steps=50, incomplete=0, edits=1, cache=CACHE_STATS, warm_loaded=4,
            remote=protocol.RemoteStoreStats(shards=2, round_trips=6,
                                             breaker_state=("closed", "open")),
            traversal_impl="native", native_unavailable="no compiler",
        ),
        "lookup-result": protocol.LookupResponse(found=True, entry=ENTRY),
        "stored": protocol.StoreResponse(stored=False),
        "store-stats-result": protocol.StoreStatsResponse(shard=1, shards=2,
                                                          stats=CACHE_STATS),
        "batch-lookup-result": protocol.BatchLookupResponse(entries=(ENTRY, None)),
        "batch-stored": protocol.BatchStoreResponse(stored=(True, False),
                                                    stale=(False, True)),
        "batch-invalidated": protocol.BatchInvalidateResponse(dropped=(0, 3)),
        "fetch-methods-result": protocol.MethodEntriesResponse(
            entries=(ENTRY,), epochs=(1,), incarnation=77, cursor=12),
        "stale-epoch": protocol.StaleEpochResponse(method="A.m", sent=1, current=2),
        "error": protocol.ErrorResponse(code="unknown-kind", message="no"),
    }

    def test_samples_cover_every_registered_kind(self):
        assert set(self.SAMPLES) == set(REQUEST_KINDS) | set(RESPONSE_KINDS)

    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_every_registered_kind_round_trips(self, kind):
        message = self.SAMPLES[kind]
        decode = decode_request if kind in REQUEST_KINDS else decode_response
        line = encode(message)
        assert json.loads(line)["kind"] == kind
        assert decode(line) == message
        assert encode(decode(line)) == line

    def test_response_round_trip(self):
        response = QueryResponse(
            objects=(
                WireObject(id="o1", class_name="Vector", contexts=((1, 2), ())),
            ),
            complete=True,
            steps=42,
            verdict=WireVerdict(client="SafeCast", status="safe"),
        )
        assert decode_response(encode(response)) == response


# ----------------------------------------------------------------------
# the compiled codec: what it builds, and what it refuses to build
# ----------------------------------------------------------------------
def _wire_classes():
    """Every dataclass reachable from the kind registries, plus the
    snapshot's ``CacheStats``."""
    found, todo = set(), [*REQUEST_KINDS.values(), *RESPONSE_KINDS.values(), CacheStats]
    while todo:
        cls = todo.pop()
        if cls in found:
            continue
        found.add(cls)
        for annotation in typing.get_type_hints(cls).values():
            todo.extend(
                arg for arg in (annotation, *_nested_args(annotation))
                if dataclasses.is_dataclass(arg)
            )
    return sorted(found, key=lambda cls: cls.__name__)


def _nested_args(annotation):
    for arg in typing.get_args(annotation):
        yield arg
        yield from _nested_args(arg)


class TestCompiledCodec:
    @pytest.mark.parametrize("cls", _wire_classes(), ids=lambda cls: cls.__name__)
    def test_every_wire_class_compiles(self, cls):
        compiled = codec._codec(cls)
        assert callable(compiled.decode) and callable(compiled.encode)

    def test_nested_classes_are_reached(self):
        names = {cls.__name__ for cls in _wire_classes()}
        assert {"WireObject", "WireVerdict", "BatchStats", "CacheStats",
                "RemoteStoreStats"} <= names

    @pytest.mark.parametrize(
        "annotation",
        [typing.Dict[str, int], bytes, typing.Tuple[int, str],
         typing.Union[int, str], typing.Tuple[int]],
        ids=["dict", "bytes", "fixed-tuple", "union", "one-tuple"],
    )
    def test_uncompilable_annotation_names_the_field(self, annotation):
        drifted = dataclasses.make_dataclass(
            "Drifted", [("ok", int), ("value", annotation)], frozen=True
        )
        with pytest.raises(TypeError, match=r"Drifted\.value"):
            codec.build_message(drifted, {"ok": 1, "value": None}, "drifted")

    def test_concurrent_first_use_sees_only_whole_codecs(self):
        """The shard tiers decode on several threads: threads racing to
        compile the same classes must each see complete codecs."""
        samples = [
            (decode_request if kind in REQUEST_KINDS else decode_response,
             encode(message), message)
            for kind, message in TestCanonicalRoundTrip.SAMPLES.items()
        ]
        codec._CODECS.clear()
        barrier = threading.Barrier(8)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=10)
                for decode, line, message in samples:
                    assert decode(line) == message
                    assert encode(message) == line
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_failure_paths_name_the_value(self):
        line = json.dumps({
            "kind": "batch", "protocol_version": PROTOCOL_VERSION,
            "queries": [{"method": "M.m", "var": "v"},
                        {"method": "M.m", "var": "v", "context": [1, "x"]}],
        })
        with pytest.raises(ProtocolError) as info:
            decode_request(line)
        assert str(info.value) == (
            "batch.queries[1].context[1]: expected an integer, got str"
        )


# ----------------------------------------------------------------------
# snapshot: adversarial loads
# ----------------------------------------------------------------------
def _snapshot_payload(pag):
    engine = PointsToEngine(pag, bench_engine_policy())
    engine.query_name("Main.main", "s1")
    engine.query_name("Main.main", "s2")
    return SummarySnapshot.capture(engine.cache).to_payload()


def _split(total, shards):
    """``total`` spread over ``shards`` (remainder on the first ones)."""
    if total is None:
        return [None] * shards
    base, extra = divmod(total, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _as_sharded(payload, shards=2):
    """A captured payload rewritten in the snapshot-1.1 ``"sharded"``
    form: entries partitioned by their key node's method, one
    ``shard_stats`` record per shard, summing to the aggregate."""
    stats = payload["stats"]
    per_shard = [dict(stats, entries=0, facts=0) for _ in range(shards)]
    for entry in payload["entries"]:
        record = per_shard[shard_for_method(entry["node"].get("method"), shards)]
        record["entries"] += 1
        record["facts"] += len(entry["objects"]) + len(entry["boundaries"])
    for field in ("hits", "misses", "evictions", "invalidated", "approx_bytes",
                  "max_entries", "max_facts"):
        for record, part in zip(per_shard, _split(stats[field], shards)):
            record[field] = part
    return dict(payload, store="sharded", shards=shards, shard_stats=per_shard)


class TestAdversarialSnapshot:
    def test_truncated_json(self):
        with pytest.raises(SnapshotError):
            SummarySnapshot.loads('{"kind":"summary-snapshot"')

    def test_wrong_payload_kind(self):
        with pytest.raises(SnapshotError):
            SummarySnapshot.from_payload({"kind": "query"})

    @pytest.mark.parametrize("version", ["2.0", "x.y", "", None, "1"])
    def test_unsupported_snapshot_version(self, pag, version):
        payload = _snapshot_payload(pag)
        payload["snapshot_version"] = version
        with pytest.raises(SnapshotError):
            SummarySnapshot.from_payload(payload)

    def test_stats_disagreeing_with_entries_entries(self, pag):
        payload = _snapshot_payload(pag)
        payload["stats"]["entries"] += 1
        with pytest.raises(SnapshotError) as info:
            SummarySnapshot.from_payload(payload)
        assert "disagree" in str(info.value)

    def test_stats_disagreeing_with_entries_facts(self, pag):
        payload = _snapshot_payload(pag)
        payload["stats"]["facts"] -= 1
        with pytest.raises(SnapshotError) as info:
            SummarySnapshot.from_payload(payload)
        assert "disagree" in str(info.value)

    def test_unknown_store_kind(self, pag):
        payload = _snapshot_payload(pag)
        payload["store"] = "quantum"
        with pytest.raises(SnapshotError):
            SummarySnapshot.from_payload(payload)

    def test_ill_typed_stats_block(self, pag):
        payload = _snapshot_payload(pag)
        payload["stats"]["hits"] = "many"
        with pytest.raises(SnapshotError):
            SummarySnapshot.from_payload(payload)

    def test_damaged_entry(self, pag):
        payload = _snapshot_payload(pag)
        payload["entries"][0]["state"] = 9
        with pytest.raises(SnapshotError):
            SummarySnapshot.from_payload(payload)
        payload = _snapshot_payload(pag)
        del payload["entries"][0]["node"]
        with pytest.raises(SnapshotError):
            SummarySnapshot.from_payload(payload)

    def test_sharded_needs_reconciling_shard_stats(self, pag):
        SummarySnapshot.from_payload(_as_sharded(_snapshot_payload(pag)))
        payload = _as_sharded(_snapshot_payload(pag))
        del payload["shard_stats"]
        with pytest.raises(SnapshotError):
            SummarySnapshot.from_payload(payload)
        payload = _as_sharded(_snapshot_payload(pag))
        payload["shard_stats"][0]["hits"] += 1
        with pytest.raises(SnapshotError) as info:
            SummarySnapshot.from_payload(payload)
        assert "reconcile" in str(info.value)

    DAMAGE = {
        "not-an-object": lambda e: [e],
        "missing-node": lambda e: {k: v for k, v in e.items() if k != "node"},
        "missing-boundaries": lambda e: {
            k: v for k, v in e.items() if k != "boundaries"
        },
        "unknown-node-kind": lambda e: dict(e, node={"kind": "alien"}),
        "unhashable-node-kind": lambda e: dict(e, node={"kind": [1]}),
        "node-field-not-a-string": lambda e: dict(
            e, node=dict(e["node"], name=3)
        ),
        "node-method-missing": lambda e: dict(
            e, node={k: v for k, v in e["node"].items() if k != "method"}
        ),
        "object-method-missing": lambda e: dict(
            e,
            objects=[
                {**{k: v for k, v in o.items() if k != "method"}, "x": 0}
                for o in e["objects"]
            ],
        ),
        "stack-not-an-array": lambda e: dict(e, stack="f"),
        "bad-stack-item": lambda e: dict(e, stack=[["f", 7]]),
        "bad-state": lambda e: dict(e, state=9),
        "negative-steps": lambda e: dict(e, steps=-1),
        "boolean-steps": lambda e: dict(e, steps=True),
        "objects-not-an-array": lambda e: dict(e, objects={}),
        "local-as-object": lambda e: dict(e, objects=e["objects"] + [e["node"]]),
        "boundary-not-an-object": lambda e: dict(e, boundaries=[1]),
        "boundary-bad-stack": lambda e: dict(
            e, boundaries=[{"node": e["node"], "stack": [1], "state": 1}]
        ),
        "boundary-bad-state": lambda e: dict(
            e, boundaries=[{"node": e["node"], "stack": [], "state": 0}]
        ),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_resolve_rejects_what_check_entry_rejects(self, pag, damage):
        """``resolve_wire_entry`` validates while it resolves: each
        damaged shape raises exactly ``check_entry``'s error, also when
        the entry's key would not resolve in this PAG anyway."""
        from repro.api.snapshot import check_entry, resolve_wire_entry

        entries = _snapshot_payload(pag)["entries"]
        good = next(e for e in entries if e["objects"])
        assert resolve_wire_entry(pag, good) is not None
        ghost = dict(good, node=dict(good["node"], name="ghost"))
        assert resolve_wire_entry(pag, ghost) is None
        for base in (good, ghost):
            bad = self.DAMAGE[damage](json.loads(json.dumps(base)))
            with pytest.raises(SnapshotError) as expected:
                check_entry(bad, "e")
            with pytest.raises(SnapshotError) as got:
                resolve_wire_entry(pag, bad, "e")
            assert str(got.value) == str(expected.value)

    def test_strict_restore_rejects_foreign_program(self, pag):
        snapshot = SummarySnapshot.from_payload(_snapshot_payload(pag))
        other = build_pag(
            parse_program(
                "class W { }\n"
                "class Main { static method main() { a = new W; } }"
            )
        )
        with pytest.raises(SnapshotError):
            snapshot.restore(other, strict=True)
        # Non-strict restore skips instead, and skipping is total here.
        store = snapshot.restore(other, strict=False)
        assert len(store) == 0


# ----------------------------------------------------------------------
# snapshot: the round-trip property over every store variant
# ----------------------------------------------------------------------
STORE_POLICIES = {
    "unbounded": CachePolicy(),
    "bounded": CachePolicy(max_entries=12),
    "facts-bounded": CachePolicy(max_facts=20),
}


@pytest.mark.parametrize("policy_name", sorted(STORE_POLICIES))
def test_snapshot_round_trip_preserves_everything(pag, policy_name):
    """``loads(dumps(store))`` preserves answers, recency order, policy
    and stats for every store variant, after real query traffic."""
    engine = PointsToEngine(
        pag, bench_engine_policy(cache=STORE_POLICIES[policy_name])
    )
    for var in ("s1", "s2", "v1", "c2", "s1"):
        engine.query_name("Main.main", var)
    store = engine.cache
    restored = SummarySnapshot.loads(
        SummarySnapshot.capture(store).dumps()
    ).restore(pag)

    assert type(restored) is type(store)
    assert restored.stats_snapshot() == store.stats_snapshot()
    original = list(store.entries_by_recency(hottest_first=True))
    round_tripped = list(restored.entries_by_recency(hottest_first=True))
    assert [key for key, _ in round_tripped] == [key for key, _ in original]
    for (_, a), (_, b) in zip(original, round_tripped):
        assert a.objects == b.objects
        assert a.boundaries == b.boundaries
        assert a.steps == b.steps
    assert any(memo.steps > 0 for _, memo in round_tripped)

    # Answers are preserved: a fresh DYNSUM over the restored store
    # answers identically to one over the original store — and entirely
    # from warm summaries (no new entries).
    config = engine.analysis.config
    warm = DynSum(pag, config, cache=restored)
    cold = DynSum(
        pag, config, cache=bench_engine_policy(cache=STORE_POLICIES[policy_name]).make_store()
    )
    for var in ("s1", "s2", "v1", "c2"):
        warm_result = warm.points_to_name("Main.main", var)
        cold_result = cold.points_to_name("Main.main", var)
        assert warm_result.pairs == cold_result.pairs
        assert warm_result.complete == cold_result.complete
        assert warm_result.steps <= cold_result.steps


@pytest.mark.parametrize("policy_name", ["bounded", "facts-bounded"])
def test_a_restored_bounded_store_evicts_like_the_original(pag, policy_name):
    """A restored LRU store carries the original's recency order, so
    once its cap bites it evicts the same victims: the next queries
    cost the same steps and leave the same residents on both.  (These
    queries cost other steps when the order is reversed.)"""
    engine = PointsToEngine(
        pag, bench_engine_policy(cache=STORE_POLICIES[policy_name])
    )
    for var in ("s1", "s2", "v1", "c2", "s1"):
        engine.query_name("Main.main", var)
    store = engine.cache
    restored = SummarySnapshot.loads(
        SummarySnapshot.capture(store).dumps()
    ).restore(pag)
    config = engine.analysis.config

    def replay(cache):
        evictions = cache.evictions
        analysis = DynSum(pag, config, cache=cache)
        steps = [
            analysis.points_to_name("Main.main", var).steps
            for var in ("v2", "s1", "s2")
        ]
        residents = [key for key, _ in cache.entries_by_recency(hottest_first=False)]
        return steps, cache.evictions - evictions, residents

    want = replay(store)
    assert want[1] > 0
    assert replay(restored) == want


#: A cost-aware snapshot-1.2 file as an earlier build wrote it: Figure 2
#: (the test module's program) under ``CachePolicy(max_entries=4,
#: eviction="cost")`` after queries of ``s1``, ``s2``, ``v1``, ``c2`` and
#: ``s1`` again.  Its four entries are coldest-first.
COST_AWARE_1_2 = (
    '{"cost":{"clock":0.08452380952380951,"priorities":[0.0863095238095'
    '2381,0.08452380952380951,0.08750000000000002,0.09345238095238093]}'
    ',"entries":[{"boundaries":[{"node":{"kind":"local","method":"Main.'
    'main","name":"c1"},"stack":[["arr",0],["elems",1],["vec",1]],"stat'
    'e":2}],"node":{"kind":"local","method":"Main.main","name":"c1"},"o'
    'bjects":[],"stack":[["arr",0],["elems",1],["vec",1]],"state":1,"st'
    'eps":2},{"boundaries":[],"node":{"kind":"local","method":"Client.i'
    'nitWith","name":"this"},"objects":[],"stack":[["arr",0],["elems",1'
    '],["vec",1]],"state":2,"steps":1},{"boundaries":[{"node":{"kind":"'
    'local","method":"Client.retrieve","name":"t"},"stack":[["arr",0],['
    '"elems",1]],"state":2}],"node":{"kind":"local","method":"Client.re'
    'trieve","name":"this"},"objects":[],"stack":[["arr",0],["elems",1]'
    ',["vec",1]],"state":2,"steps":2},{"boundaries":[{"node":{"kind":"l'
    'ocal","method":"Vector.get","name":"r"},"stack":[],"state":2}],"no'
    'de":{"kind":"local","method":"Vector.get","name":"this"},"objects"'
    ':[],"stack":[["arr",0],["elems",1]],"state":2,"steps":3}],"evictio'
    'n":"cost","kind":"summary-snapshot","shards":null,"snapshot_versio'
    'n":"1.2","stats":{"approx_bytes":1248,"entries":4,"evictions":64,"'
    'facts":3,"hits":0,"invalidated":0,"max_entries":4,"max_facts":null'
    ',"misses":68},"store":"bounded"}'
)


def _cost_aware_payload(pag):
    """A bounded payload marked as a cost-aware file."""
    source = PointsToEngine(
        pag, bench_engine_policy(cache=CachePolicy(max_entries=12))
    )
    source.query_name("Main.main", "s1")
    payload = SummarySnapshot.capture(source.cache).to_payload()
    return dict(payload, eviction="cost")


@pytest.mark.parametrize(
    "make_cost, error",
    [
        (
            lambda n: {"clock": 0.0},
            "'cost' must be an object with 'clock' and 'priorities'",
        ),
        (
            lambda n: {"clock": 0.0, "priorities": "all"},
            "'cost.priorities' must hold one number per entry ({n})",
        ),
        (
            lambda n: {"clock": 0.0, "priorities": [0.0] * (n + 1)},
            "'cost.priorities' must hold one number per entry ({n})",
        ),
        (
            lambda n: {"clock": -1.0, "priorities": [0.0] * n},
            "'cost' values must be finite non-negative numbers, got float -1.0",
        ),
        (
            lambda n: {"clock": "x", "priorities": [0.0] * n},
            "'cost' values must be finite non-negative numbers, got str x",
        ),
        (
            lambda n: {"clock": True, "priorities": [0.0] * n},
            "'cost' values must be finite non-negative numbers, got bool True",
        ),
        (
            lambda n: {"clock": 0.0, "priorities": [float("nan")] * n},
            "'cost' values must be finite non-negative numbers, got float nan",
        ),
        (
            lambda n: {"clock": 10**400, "priorities": [0.0] * n},
            "'cost' values must be finite non-negative numbers, got int "
            + "1" + "0" * 31,
        ),
    ],
    ids=[
        "missing", "not-array", "misaligned", "negative", "string", "bool",
        "nan", "huge",
    ],
)
def test_malformed_cost_state_is_a_typed_error(pag, make_cost, error):
    """A cost-aware file's ``cost`` object is still validated, with the
    texts earlier builds gave, though nothing reads it any more."""
    payload = _cost_aware_payload(pag)
    n = len(payload["entries"])
    with pytest.raises(SnapshotError) as refused:
        SummarySnapshot.from_payload(dict(payload, cost=make_cost(n)))
    assert str(refused.value) == error.format(n=n)
    # Well formed, it loads (and is ignored).
    snapshot = SummarySnapshot.from_payload(
        dict(payload, cost={"clock": 1.5, "priorities": [2.0] * n})
    )
    assert "cost" not in snapshot.to_payload()


def test_a_cost_aware_file_needs_a_ceiling(pag):
    payload = _cost_aware_payload(pag)
    for version in ("1.1", "1.2"):
        unbounded = dict(
            payload,
            snapshot_version=version,
            stats=dict(payload["stats"], max_entries=None, max_facts=None),
        )
        with pytest.raises(SnapshotError) as refused:
            SummarySnapshot.from_payload(unbounded)
        assert str(refused.value) == (
            "snapshot claims eviction='cost' but records no capacity "
            "ceiling — cost-aware stores are always bounded"
        )
    for eviction in ("fifo", "LRU", None):
        with pytest.raises(SnapshotError) as refused:
            SummarySnapshot.from_payload(dict(payload, eviction=eviction))
        assert str(refused.value) == (
            f"unknown eviction policy {eviction!r}; known: lru, cost"
        )


def test_a_cost_aware_file_from_an_earlier_build_restores_as_lru(pag, tmp_path):
    """The file restores as an LRU store with its caps, entries, order
    (coldest first) and counters; written back, it is the same file
    without ``eviction`` and ``cost``.  An engine warm-started from it
    answers like a cold one."""
    payload = json.loads(COST_AWARE_1_2)
    assert (payload["eviction"], payload["snapshot_version"]) == ("cost", "1.2")
    store = SummarySnapshot.loads(COST_AWARE_1_2).restore(pag)
    assert type(store) is BoundedSummaryCache
    assert (store.max_entries, store.max_facts) == (4, None)
    assert [
        (node.method, node.name)
        for (node, _stack, _state), _summary in store.entries_by_recency(
            hottest_first=False
        )
    ] == [
        ("Main.main", "c1"),
        ("Client.initWith", "this"),
        ("Client.retrieve", "this"),
        ("Vector.get", "this"),
    ]
    rewritten = SummarySnapshot.capture(store).to_payload()
    assert rewritten == {
        key: value
        for key, value in payload.items()
        if key not in ("eviction", "cost")
    }

    path = tmp_path / "cost-aware.json"
    path.write_text(COST_AWARE_1_2, encoding="utf-8")
    warm = PointsToEngine(
        pag,
        EnginePolicy(
            max_field_depth=16,
            warm_start=str(path),
            cache=CachePolicy(max_entries=4),
        ),
    )
    cold = PointsToEngine(
        pag, EnginePolicy(max_field_depth=16, cache=CachePolicy(max_entries=4))
    )
    assert warm.warm_loaded == 4
    for var in ("s1", "s2", "v1", "v2", "c1", "c2"):
        warm_result = warm.query_name("Main.main", var)
        cold_result = cold.query_name("Main.main", var)
        assert warm_result.pairs == cold_result.pairs
        assert warm_result.complete == cold_result.complete


def test_a_1_1_cost_aware_file_restores_as_lru_too(pag):
    """A 1.1 file never had a ``cost`` object: a cost-aware one restores
    as the same LRU store as its 1.2 counterpart, steps included."""
    legacy = json.loads(COST_AWARE_1_2)
    del legacy["cost"]
    legacy["snapshot_version"] = "1.1"
    want = SummarySnapshot.loads(COST_AWARE_1_2).restore(pag)
    store = SummarySnapshot.from_payload(legacy).restore(pag)
    assert type(store) is BoundedSummaryCache
    assert (store.max_entries, store.max_facts) == (4, None)
    assert [
        (key, memo.steps)
        for key, memo in store.entries_by_recency(hottest_first=False)
    ] == [
        (key, memo.steps)
        for key, memo in want.entries_by_recency(hottest_first=False)
    ]
    assert [memo.steps for _key, memo in store.entries()] == [2, 1, 2, 3]
    assert store.stats_snapshot() == want.stats_snapshot()


@pytest.mark.parametrize(
    "caps, hottest",
    [
        ({"max_entries": 2}, [("Client.retrieve", "this"), ("Vector.get", "this")]),
        ({"max_facts": 1}, [("Vector.get", "this")]),
    ],
    ids=["entries", "facts"],
)
def test_a_cost_aware_file_warm_starts_a_smaller_store(pag, tmp_path, caps, hottest):
    """Warm-started from the cost-aware file, an engine whose store is
    smaller than the file keeps its own caps: the replay, coldest
    first, evicts the file's coldest entries, and the answers equal a
    cold engine's."""
    path = tmp_path / "cost-aware.json"
    path.write_text(COST_AWARE_1_2, encoding="utf-8")
    warm = PointsToEngine(
        pag,
        EnginePolicy(
            max_field_depth=16, warm_start=str(path), cache=CachePolicy(**caps)
        ),
    )
    cold = PointsToEngine(
        pag, EnginePolicy(max_field_depth=16, cache=CachePolicy(**caps))
    )
    store = warm.cache
    assert type(store) is BoundedSummaryCache
    assert warm.warm_loaded == 4
    assert store.evictions == 4 - len(hottest)
    assert [
        (node.method, node.name)
        for (node, _stack, _state), _memo in store.entries_by_recency(
            hottest_first=False
        )
    ] == hottest
    for var in ("s1", "s2", "v1", "v2", "c1", "c2"):
        warm_result = warm.query_name("Main.main", var)
        cold_result = cold.query_name("Main.main", var)
        assert warm_result.pairs == cold_result.pairs
        assert warm_result.complete == cold_result.complete


def test_cost_state_requires_a_cost_aware_snapshot(pag):
    source = PointsToEngine(
        pag, bench_engine_policy(cache=CachePolicy(max_entries=12))
    )
    source.query_name("Main.main", "s1")
    payload = SummarySnapshot.capture(source.cache).to_payload()
    assert "cost" not in payload
    priorities = [0.0] * len(payload["entries"])
    bad = dict(payload, cost={"clock": 0.0, "priorities": priorities})
    with pytest.raises(SnapshotError, match="only valid for cost-aware"):
        SummarySnapshot.from_payload(bad)


# ----------------------------------------------------------------------
# snapshot: "sharded" files from earlier builds load as one store
# ----------------------------------------------------------------------
#: name -> (source policy, restored class, what the file says beyond
#: the capture); "bounded-cost" is an earlier cost-aware store's file.
SHARDED_SOURCE_POLICIES = {
    "unbounded": (CachePolicy(), SummaryCache, {}),
    "bounded-lru": (CachePolicy(max_entries=12), BoundedSummaryCache, {}),
    "bounded-cost": (
        CachePolicy(max_entries=12),
        BoundedSummaryCache,
        {"eviction": "cost"},
    ),
}


@pytest.mark.parametrize("policy_name", sorted(SHARDED_SOURCE_POLICIES))
def test_sharded_snapshot_restores_as_one_store(pag, policy_name, tmp_path):
    """A snapshot-1.1 ``"store": "sharded"`` payload restores as one
    store of the matching class (a cost-aware one as LRU), with the
    shards' summed caps and the aggregate counters, and warm-starts an
    engine that answers like a cold one."""
    policy, store_class, legacy = SHARDED_SOURCE_POLICIES[policy_name]
    source = PointsToEngine(pag, bench_engine_policy(cache=policy))
    for var in ("s1", "s2", "v1", "c2", "s1"):
        source.query_name("Main.main", var)
    payload = dict(
        _as_sharded(SummarySnapshot.capture(source.cache).to_payload()), **legacy
    )

    snapshot = SummarySnapshot.loads(json.dumps(payload))
    store = snapshot.restore(pag)
    assert type(store) is store_class
    caps = [record["max_entries"] for record in payload["shard_stats"]]
    assert store.max_entries == (None if None in caps else sum(caps))
    assert store.stats_snapshot() == source.cache.stats_snapshot()
    rewritten = snapshot.to_payload()
    assert rewritten["store"] != "sharded"
    assert "shard_stats" not in rewritten
    assert "eviction" not in rewritten

    path = tmp_path / "sharded.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    warm = PointsToEngine(
        pag, EnginePolicy(max_field_depth=16, warm_start=str(path))
    )
    cold = PointsToEngine(pag, EnginePolicy(max_field_depth=16))
    assert warm.warm_loaded == len(payload["entries"]) > 0
    for var in ("s1", "s2", "v1", "v2", "c1", "c2"):
        warm_result = warm.query_name("Main.main", var)
        cold_result = cold.query_name("Main.main", var)
        assert warm_result.pairs == cold_result.pairs
        assert warm_result.complete == cold_result.complete
