"""Tests for the CSR-compiled traversal core (:mod:`repro.pag.csr`).

Covers the image lifecycle (lazy compile, edge-insert invalidation,
counters), the program fingerprint staying off the compile path (only
the remote tier computes it, once per ``bind_pag``), the token intern
pool's stability across graph rebuilds, and
the snapshot files a warm start reads: JSON snapshots load, and every
malformed file — including the binary container earlier builds wrote
beside the JSON form — surfaces as a typed
:class:`~repro.api.protocol.SnapshotError`, never a crash.
"""

import io
import json
import struct
import zlib

import pytest

from repro import PointsToEngine, build_pag, parse_program
from repro.api.protocol import SnapshotError
from repro.api.service import main as serve_main
from repro.api.snapshot import load_snapshot, load_store
from repro.bench.runner import bench_engine_policy
from repro.cfl.rsm import FAM_LOAD, FAM_STORE
from repro.cfl.stacks import field_id, token_id
from repro.engine.policy import CachePolicy, EnginePolicy
from repro.pag import csr as csr_module
from repro.pag.csr import _ARRAY_NAMES, compile_csr, pag_fingerprint
from repro.pag.graph import PAG

SOURCE = """
class Animal { }
class Dog extends Animal { }
class Cat extends Animal { }

class Kennel {
  field occupant;
  method put(a) { this.occupant = a; }
  method get() {
    r = this.occupant;
    return r;
  }
}

class Main {
  static method main() {
    dogHouse = new Kennel;
    catHouse = new Kennel;
    rex = new Dog;
    tom = new Cat;
    dogHouse.put(rex);
    catHouse.put(tom);
    d = dogHouse.get();
    c = catHouse.get();
    sure = (Dog) d;
    oops = (Dog) c;
  }
}
"""


@pytest.fixture
def pag():
    return build_pag(parse_program(SOURCE))


class TestCompileAndInvalidation:
    def test_image_mirrors_the_pag(self, pag):
        image = compile_csr(pag)
        assert image.n_nodes == sum(pag.node_counts().values())
        assert image.edge_counts == pag.edge_counts()
        assert image.node_counts == pag.node_counts()
        assert pag_fingerprint(pag) == pag_fingerprint(build_pag(parse_program(SOURCE)))
        # Offsets are proper CSR: n+1 entries, monotone, flags sized n+1
        # with a zero sentinel byte.
        assert len(image.as_off) == image.n_nodes + 1
        assert list(image.as_off) == sorted(image.as_off)
        assert len(image.flags) == image.n_nodes + 1
        assert image.flags[image.n_nodes] == 0

    def test_node_index_is_dense_and_total(self, pag):
        image = pag.csr()
        everything = (
            set(pag.local_var_nodes())
            | set(pag.global_var_nodes())
            | set(pag.object_nodes())
        )
        assert set(image.node_index) == everything
        assert sorted(image.node_index.values()) == list(range(image.n_nodes))
        for node, index in image.node_index.items():
            assert image.nodes[index] is node

    def test_lazy_compile_and_counters(self, pag):
        assert pag.csr_compiles == 0
        first = pag.csr()
        assert pag.csr_compiles == 1
        assert pag.csr() is first  # cached, no recompile
        assert pag.csr_compiles == 1

    def test_edge_insert_invalidates(self, pag):
        first = pag.csr()
        before = pag_fingerprint(pag)
        lhs = pag.local_var("Main.main", "d")
        rhs = pag.local_var("Main.main", "extra")
        pag.add_assign(lhs, rhs)
        second = pag.csr()
        assert second is not first
        assert pag.csr_compiles == 2
        assert pag_fingerprint(pag) != before

    def test_fingerprint_covers_per_node_edge_order(self):
        """Same edges, same value-flow-forward lists: only the order of
        ``v``'s incoming assigns differs, and the fingerprint with it.
        A compile and a fresh graph's fingerprint agree."""

        def build(order):
            graph = PAG()
            a, b, v, w = (graph.local_var("M.m", name) for name in "abvw")
            edges = {"av": (a, v), "bv": (b, v), "aw": (a, w)}
            for name in order:
                graph.add_assign(*edges[name])
            return graph

        def forward(graph):
            return [
                (kind, src.sort_key, label, tgt.sort_key)
                for kind, src, label, tgt in graph.iter_edges()
            ]

        first, second = ["aw", "bv", "av"], ["aw", "av", "bv"]
        assert forward(build(first)) == forward(build(second))
        assert pag_fingerprint(build(first)) != pag_fingerprint(build(second))
        for order in (first, second):
            assert pag_fingerprint(build(order)) == pag_fingerprint(build(order))

    def test_compile_leaves_the_fingerprint_unset(self, pag):
        image = pag.csr()
        assert pag._fingerprint is None
        assert not hasattr(image, "fingerprint")

    def test_remote_tier_fingerprints_once_per_bind(self, monkeypatch):
        """The remote tier is the fingerprint's only reader: binding a
        PAG hashes it once, compiles and patches never do, and an edit
        (which rebinds) hashes the edited graph once more."""
        hashed = []
        real = csr_module._fingerprint

        def counting(*args):
            hashed.append(args[0])
            return real(*args)

        monkeypatch.setattr(csr_module, "_fingerprint", counting)
        engine = PointsToEngine.for_program(
            parse_program(SOURCE),
            EnginePolicy(cache=CachePolicy(remote=("127.0.0.1:1",), remote_timeout=0.2)),
        )
        pag = engine.pag
        assert hashed == [pag]
        pag.csr()
        assert hashed == [pag]
        engine.edit_session().edit(
            "Main.main", lambda method: method.statements.pop()
        )
        assert hashed == [pag, pag]
        pag.csr()
        assert pag.csr_patches == 1
        assert hashed == [pag, pag]


class TestTokenPoolStability:
    def test_token_ids_survive_graph_rebuilds(self, pag):
        pag.csr()
        before = {
            (field, family): token_id(field, family)
            for field in ("occupant",)
            for family in (FAM_LOAD, FAM_STORE)
        }
        fid_before = field_id("occupant")
        # Force a full recompile of both substrates.
        pag.add_assign(
            pag.local_var("Main.main", "d"), pag.local_var("Main.main", "x2")
        )
        pag.adjacency()
        image = pag.csr()
        for (field, family), tid in before.items():
            assert token_id(field, family) == tid
        assert field_id("occupant") == fid_before
        # The recompiled image's token table resolves to the same ids.
        for token in image.tokens:
            assert image.tokens[token_id(*token)] is token

    def test_token_ids_survive_an_edit_session(self):
        engine = PointsToEngine.for_program(parse_program(SOURCE))
        engine.query_name("Main.main", "d")
        pinned = {
            (field, family): token_id(field, family)
            for field in ("occupant",)
            for family in (FAM_LOAD, FAM_STORE)
        }
        engine.edit_session().edit("Kennel.put", lambda method: None)
        engine.query_name("Main.main", "d")  # rebuild + requery
        for (field, family), tid in pinned.items():
            assert token_id(field, family) == tid


@pytest.fixture
def snapshot_path(pag, tmp_path):
    """A JSON snapshot of a store that answered every ``Main.main``
    local."""
    path = tmp_path / "cache.snap"
    engine = PointsToEngine(pag, bench_engine_policy())
    for node in pag.local_var_nodes():
        if node.method == "Main.main":
            engine.query(node)
    engine.save_cache(path)
    return path


def _pad16(blob):
    return blob + bytes(-len(blob) % 16)


def _withdrawn_container(json_text):
    """A snapshot file in the binary container format earlier builds
    wrote beside the JSON form: a big-endian header (magic, version
    1.0, JSON length, CSR offset and length), the JSON payload, zero
    padding to 16 bytes, and a well-formed CSR section describing an
    empty image (native-order header, meta JSON, padding, payload)."""
    arrays = {name: [0, int(name.endswith("_off"))] for name in _ARRAY_NAMES}
    arrays["flags"] = [0, 1]
    meta = json.dumps(
        {
            "n_nodes": 0,
            "nodes": [],
            "tokens": [],
            "fields": [],
            "edge_counts": {},
            "node_counts": {},
            "fingerprint": 0,
            "itemsize": struct.calcsize("i"),
            "arrays": arrays,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    payload = bytes(16)
    section = _pad16(
        struct.pack(
            "=4sIHHIIQI", b"RCSR", 0x01020304, 1, 2, len(meta), 0,
            len(payload), zlib.crc32(payload),
        )
        + meta
    ) + payload
    header = struct.Struct("!4sHHQQQ")
    body = json_text.encode("utf-8")
    csr_offset = len(_pad16(bytes(header.size) + body))
    return (
        _pad16(
            header.pack(b"RSNP", 1, 0, len(body), csr_offset, len(section)) + body
        )
        + section
    )


class TestSnapshotRoundTrip:
    def test_legacy_json_snapshot_still_loads(self, pag, tmp_path):
        path = tmp_path / "legacy.snap"
        engine = PointsToEngine(pag, bench_engine_policy())
        engine.query_name("Main.main", "d")
        engine.save_cache(path)
        snapshot = load_snapshot(path)
        warm = PointsToEngine(
            build_pag(parse_program(SOURCE)),
            EnginePolicy(warm_start=str(path)),
        )
        assert warm.warm_loaded == len(snapshot.entries) > 0


class TestCorruptionBattery:
    """Every way a snapshot file can be malformed must raise
    :class:`SnapshotError` — no decode errors, no silent misreads."""

    def test_round_trips_before_mutation(self, snapshot_path):
        assert load_snapshot(snapshot_path).entries

    @pytest.mark.parametrize("keep", [0, 3, 4, 17, 40])
    def test_truncated_header_or_json(self, snapshot_path, keep):
        snapshot_path.write_bytes(snapshot_path.read_bytes()[:keep])
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"\xfe\xed\xfa\xce" * 64)
        with pytest.raises(SnapshotError):
            load_snapshot(path)


class TestWithdrawnContainer:
    """The binary container (JSON plus a serialized CSR image) is no
    longer read: every path that opens a snapshot file refuses it with
    a typed error naming the format and the way out."""

    @pytest.fixture
    def container_path(self, snapshot_path, tmp_path):
        path = tmp_path / "cache.rsnp"
        path.write_bytes(_withdrawn_container(snapshot_path.read_text()))
        return path

    def test_load_snapshot_names_the_withdrawn_format(self, container_path):
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(container_path)
        message = str(excinfo.value)
        assert "RSNP container" in message
        assert "re-save it with save_cache()" in message

    def test_load_store_refuses_it(self, container_path, pag):
        with pytest.raises(SnapshotError, match="RSNP container"):
            load_store(container_path, pag)

    def test_engine_warm_start_refuses_it(self, container_path, pag):
        with pytest.raises(SnapshotError, match="RSNP container"):
            PointsToEngine(pag, EnginePolicy(warm_start=str(container_path)))

    def test_repro_serve_exits_2_with_one_line(
        self, container_path, tmp_path, monkeypatch, capsys
    ):
        source = tmp_path / "prog.pir"
        source.write_text(SOURCE)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = serve_main(
            ["--program", str(source), "--warm-start", str(container_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-serve: ")
        assert "RSNP container" in lines[0]
