"""Tests for the CSR-compiled traversal core (:mod:`repro.pag.csr`).

Covers the image lifecycle (lazy compile, edge-insert invalidation,
counters), the token intern pool's stability across graph rebuilds, the
binary snapshot container (mmap round trip, zero-recompile warm starts)
and its corruption battery — every malformed file must surface as a
typed :class:`~repro.api.protocol.SnapshotError`, never a crash.
"""

import json
import struct
import zlib

import pytest

from repro import PointsToEngine, build_pag, parse_program
from repro.analysis.ppta import traversal_impl
from repro.api.protocol import SnapshotError
from repro.api.snapshot import load_snapshot
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.runner import bench_analysis_config, bench_engine_policy
from repro.cfl.rsm import FAM_LOAD, FAM_STORE
from repro.cfl.stacks import field_id, token_id
from repro.engine.policy import EnginePolicy
from repro.pag import csr as csr_module
from repro.pag.csr import (
    CSR_FORMAT_VERSION,
    KERNEL_ABI_VERSION,
    CsrSection,
    compile_csr,
    pag_fingerprint,
    serialize_csr,
)
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


def generated_pag(seed=5, **knobs):
    config = GeneratorConfig(seed=seed, domain_classes=4, data_classes=3, **knobs)
    return build_pag(generate_program(config))


class TestCompileAndInvalidation:
    def test_image_mirrors_the_pag(self, pag):
        image = compile_csr(pag)
        assert image.source == "compiled"
        assert image.n_nodes == sum(pag.node_counts().values())
        assert image.edge_counts == pag.edge_counts()
        assert image.fingerprint == pag_fingerprint(pag)
        assert image.matches(pag)
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
        lhs = pag.local_var("Main.main", "d")
        rhs = pag.local_var("Main.main", "extra")
        pag.add_assign(lhs, rhs)
        second = pag.csr()
        assert second is not first
        assert pag.csr_compiles == 2
        assert second.matches(pag) and not first.matches(pag)

    def test_install_rejects_a_foreign_image(self, pag):
        other = generated_pag()
        with pytest.raises(SnapshotError):
            pag.install_csr(other.csr())

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
            assert compile_csr(build(order)).fingerprint == pag_fingerprint(build(order))

    def test_install_adopts_a_matching_image(self, pag):
        image = compile_csr(pag)
        pag.install_csr(image)
        assert pag.csr() is image
        assert pag.csr_compiles == 0


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


class TestSnapshotRoundTrip:
    def query_nodes(self, pag):
        return [node for node in pag.local_var_nodes() if node.method == "Main.main"]

    def test_mmap_round_trip_is_byte_equal(self, pag, tmp_path):
        image = pag.csr()
        payload = serialize_csr(image)
        loaded = CsrSection(memoryview(payload), 0, len(payload)).image_for(pag)
        assert loaded.source == "mmap"
        assert loaded.fingerprint == image.fingerprint
        for name in ("as_off", "as_val", "cb_op", "cb_site", "cb_tgt", "flags"):
            assert bytes(getattr(loaded, name)) == bytes(getattr(image, name))
        assert loaded.tokens == image.tokens
        assert loaded.nodes == image.nodes

    def test_warm_start_answers_without_recompiling(self, pag, tmp_path, monkeypatch):
        path = tmp_path / "warm.snap"
        with traversal_impl("array"):
            cold = PointsToEngine(pag, bench_engine_policy())
            cold_answers = [
                sorted(map(repr, cold.query(node).pairs))
                for node in self.query_nodes(pag)
            ]
            cold.save_cache(path, csr=True)

            # Not even the fingerprint check may lower the fresh graph.
            def refuse(_pag):
                raise AssertionError("the warm path lowered the PAG")

            monkeypatch.setattr(csr_module, "_lower", refuse)

            fresh = build_pag(parse_program(SOURCE))
            policy = bench_engine_policy()
            policy = EnginePolicy(
                analysis=policy.analysis,
                max_field_depth=policy.max_field_depth,
                warm_start=str(path),
            )
            warm = PointsToEngine(fresh, policy)
            warm_answers = [
                sorted(map(repr, warm.query(node).pairs))
                for node in self.query_nodes(fresh)
            ]
        assert warm_answers == cold_answers
        assert warm.stats().csr_warm
        assert fresh.csr_compiles == 0
        assert fresh.adjacency_compiles == 0

    def test_legacy_json_snapshot_still_loads(self, pag, tmp_path):
        path = tmp_path / "legacy.snap"
        engine = PointsToEngine(pag, bench_engine_policy())
        engine.query(self.query_nodes(pag)[0])
        engine.save_cache(path)  # csr=False: the JSON text format
        snapshot = load_snapshot(path)
        assert snapshot.csr is None
        warm = PointsToEngine(
            build_pag(parse_program(SOURCE)),
            EnginePolicy(warm_start=str(path)),
        )
        assert not warm.stats().csr_warm


class TestCorruptionBattery:
    """Every way a snapshot file can be malformed must raise
    :class:`SnapshotError` — no struct errors, no silent misreads."""

    @pytest.fixture
    def snapshot_path(self, pag, tmp_path):
        path = tmp_path / "cache.snap"
        engine = PointsToEngine(pag, bench_engine_policy())
        for node in pag.local_var_nodes():
            if node.method == "Main.main":
                engine.query(node)
        engine.save_cache(path, csr=True)
        return path

    def _mutated(self, path, mutate):
        blob = bytearray(path.read_bytes())
        mutate(blob)
        path.write_bytes(bytes(blob))
        return path

    def test_round_trips_before_mutation(self, snapshot_path):
        snapshot = load_snapshot(snapshot_path)
        assert snapshot.csr is not None

    @pytest.mark.parametrize("keep", [0, 3, 4, 17, 40])
    def test_truncated_header_or_json(self, snapshot_path, keep):
        snapshot_path.write_bytes(snapshot_path.read_bytes()[:keep])
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)

    def test_truncated_csr_payload(self, snapshot_path):
        blob = snapshot_path.read_bytes()
        snapshot_path.write_bytes(blob[:-16])
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)

    def test_bad_container_magic(self, snapshot_path):
        self._mutated(snapshot_path, lambda blob: blob.__setitem__(0, 0x58))
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)

    def test_unsupported_container_major(self, snapshot_path):
        def bump(blob):
            blob[4:6] = struct.pack("!H", 99)

        self._mutated(snapshot_path, bump)
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)

    def _csr_offset(self, path):
        header = struct.Struct("!4sHHQQQ")
        fields = header.unpack_from(path.read_bytes(), 0)
        return fields[4]

    def test_corrupt_csr_crc(self, snapshot_path):
        offset = self._csr_offset(snapshot_path)

        def flip(blob):
            blob[offset + 96] ^= 0xFF  # inside the payload

        self._mutated(snapshot_path, flip)
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)

    def test_foreign_endian_tag(self, snapshot_path):
        offset = self._csr_offset(snapshot_path)

        def swap(blob):
            tag = bytes(blob[offset + 4 : offset + 8])
            blob[offset + 4 : offset + 8] = tag[::-1]

        self._mutated(snapshot_path, swap)
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(snapshot_path)
        assert "endian" in str(excinfo.value)

    def test_unsupported_csr_major(self, snapshot_path):
        offset = self._csr_offset(snapshot_path)

        def bump(blob):
            blob[offset + 8 : offset + 10] = struct.pack(
                "=H", CSR_FORMAT_VERSION[0] + 1
            )

        self._mutated(snapshot_path, bump)
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)

    def test_image_with_an_older_fingerprint_is_refused(self, snapshot_path, pag):
        """Format 1.2 redefined the fingerprint: a 1.1 image loads, but
        installing it fails the typed check instead of comparing
        fingerprints of two different definitions."""
        offset = self._csr_offset(snapshot_path)

        def downgrade(blob):
            blob[offset + 10 : offset + 12] = struct.pack("=H", 1)

        self._mutated(snapshot_path, downgrade)
        snapshot = load_snapshot(snapshot_path)
        with pytest.raises(SnapshotError, match="predates"):
            snapshot.csr.image_for(pag)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"\xfe\xed\xfa\xce" * 64)
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_mismatched_pag_is_rejected_on_adoption(self, snapshot_path, pag):
        snapshot = load_snapshot(snapshot_path)
        other = generated_pag()
        with pytest.raises(SnapshotError):
            snapshot.csr.image_for(other)

    # ------------------------------------------------------------------
    # value corruption the CRC alone cannot describe: these rows restamp
    # the checksum after mutating, so only the range validation (added
    # with the native kernel, which indexes these arrays without
    # Python's bounds checks) stands between the corrupt image and a
    # segfault / silent misread.
    # ------------------------------------------------------------------
    _CSR_HEADER = struct.Struct("=4sIHHIIQI")
    _CSR_CRC_OFFSET = 28  # 4s + I + H + H + I + I + Q

    def _section_layout(self, path):
        blob = bytearray(path.read_bytes())
        csr = self._csr_offset(path)
        _m, _e, _maj, _min, meta_len, _r, payload_len, _crc = (
            self._CSR_HEADER.unpack_from(blob, csr)
        )
        meta_end = self._CSR_HEADER.size + meta_len
        payload_start = csr + meta_end + (
            16 - meta_end % 16 if meta_end % 16 else 0
        )
        meta = json.loads(
            bytes(blob[csr + self._CSR_HEADER.size : csr + meta_end]).decode(
                "utf-8"
            )
        )
        return blob, csr, payload_start, payload_len, meta

    def _patch_value(self, path, pick):
        """Overwrite one payload int chosen by ``pick(meta)`` (as
        ``(array_name, index, value)``) and restamp the payload CRC."""
        blob, csr, payload_start, payload_len, meta = self._section_layout(path)
        name, index, value = pick(meta)
        off, count = meta["arrays"][name]
        assert index < count, f"fixture image's {name!r} is too small"
        struct.pack_into("=i", blob, payload_start + off + index * 4, value)
        crc = zlib.crc32(bytes(blob[payload_start : payload_start + payload_len]))
        struct.pack_into("=I", blob, csr + self._CSR_CRC_OFFSET, crc)
        path.write_bytes(bytes(blob))

    @staticmethod
    def _first_nonempty(meta, names):
        for name in names:
            if meta["arrays"][name][1]:
                return name
        raise AssertionError(f"fixture image has none of {names}")

    def test_out_of_range_node_index_is_rejected(self, snapshot_path):
        def pick(meta):
            name = self._first_nonempty(
                meta, ("as_val", "new_val", "li_val", "cb_tgt")
            )
            return name, 0, meta["n_nodes"]

        self._patch_value(snapshot_path, pick)
        with pytest.raises(SnapshotError, match="out-of-range node index"):
            load_snapshot(snapshot_path)

    def test_out_of_range_token_id_is_rejected(self, snapshot_path):
        def pick(meta):
            name = self._first_nonempty(meta, ("li_tok", "sf_tok"))
            return name, 0, len(meta["tokens"])

        self._patch_value(snapshot_path, pick)
        with pytest.raises(SnapshotError, match="out-of-range token id"):
            load_snapshot(snapshot_path)

    def test_out_of_range_op_code_is_rejected(self, snapshot_path):
        def pick(meta):
            name = self._first_nonempty(meta, ("cb_op", "cf_op"))
            return name, 0, 9

        self._patch_value(snapshot_path, pick)
        with pytest.raises(SnapshotError, match="crossing op code"):
            load_snapshot(snapshot_path)

    def test_negative_value_is_rejected(self, snapshot_path):
        def pick(meta):
            name = self._first_nonempty(meta, ("as_val", "new_val"))
            return name, 0, -3

        self._patch_value(snapshot_path, pick)
        with pytest.raises(SnapshotError, match="out-of-range node index"):
            load_snapshot(snapshot_path)

    def test_nonmonotone_offsets_are_rejected(self, snapshot_path):
        self._patch_value(snapshot_path, lambda meta: ("as_off", 0, 7))
        with pytest.raises(SnapshotError, match="offsets"):
            load_snapshot(snapshot_path)

    def test_kernel_abi_mismatch_degrades_native_to_array(
        self, snapshot_path, pag
    ):
        """A stamped-but-mismatched kernel ABI is not corruption: the
        image loads, the pure-Python impls consume it as ever, and the
        ``native`` impl refuses it and silently falls back to ``array``
        with identical answers (the meta is outside the payload CRC, so
        the stamp can be rewritten in place)."""
        old = f'"kernel_abi":{KERNEL_ABI_VERSION}'.encode()
        blob = snapshot_path.read_bytes()
        assert old in blob
        snapshot_path.write_bytes(blob.replace(old, b'"kernel_abi":9', 1))
        image = load_snapshot(snapshot_path).csr.image_for(pag)
        assert image.kernel_abi == 9
        pag.install_csr(image)

        from repro.analysis.dynsum import DynSum

        def answers(impl):
            analysis = DynSum(pag, bench_analysis_config())
            with traversal_impl(impl):
                return [
                    sorted(map(repr, analysis.points_to(node).pairs))
                    for node in pag.local_var_nodes()
                ], analysis.total_steps

        assert answers("native") == answers("array")
        from repro.native import available
        from repro.native.session import native_unavailable_reason

        if available():
            assert "kernel ABI" in native_unavailable_reason(pag)


class TestArrayImplOverCsr:
    """The array loop consumes whatever image the PAG carries —
    compiled or mmapped — and answers identically either way."""

    def test_answers_match_across_image_sources(self, pag):
        from repro.analysis.dynsum import DynSum

        def answers():
            analysis = DynSum(pag, bench_analysis_config())
            with traversal_impl("array"):
                return [
                    sorted(map(repr, analysis.points_to(node).pairs))
                    for node in pag.local_var_nodes()
                ], analysis.total_steps

        compiled = answers()
        payload = serialize_csr(pag.csr())
        pag.install_csr(
            CsrSection(memoryview(payload), 0, len(payload)).image_for(pag)
        )
        assert pag.csr().source == "mmap"
        assert answers() == compiled
