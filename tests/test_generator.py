"""Tests for the synthetic benchmark generator and the named suite."""

import pytest

from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.suite import BENCHMARK_NAMES, benchmark_config, load_benchmark
from repro.clients import FactoryMethodClient, NullDerefClient, SafeCastClient
from repro.ir.pretty import pretty_print
from repro.ir.validate import validate_program

SMALL = GeneratorConfig(
    seed=7,
    domain_classes=4,
    data_classes=3,
    workers_per_class=2,
    stmts_per_worker=6,
    driver_rounds=1,
)


class TestDeterminism:
    def test_same_seed_same_program(self):
        a = pretty_print(generate_program(SMALL))
        b = pretty_print(generate_program(SMALL))
        assert a == b

    def test_different_seed_different_program(self):
        from dataclasses import replace

        a = pretty_print(generate_program(SMALL))
        b = pretty_print(generate_program(replace(SMALL, seed=8)))
        assert a != b


class TestStructure:
    @pytest.fixture(scope="class")
    def program(self):
        return generate_program(SMALL)

    def test_validates(self, program):
        validate_program(program)

    def test_entry_is_main(self, program):
        assert program.entry == "Main.main"

    def test_domain_classes_present(self, program):
        for index in range(SMALL.domain_classes):
            assert f"Comp{index}" in program.classes

    def test_data_hierarchy_present(self, program):
        assert "Data0" in program.classes
        assert program.classes["Data0_1"].superclass == "Data0"

    def test_library_present(self, program):
        for name in ("Vec", "Arr", "Registry", "Box0"):
            assert name in program.classes

    def test_factories_emitted(self, program):
        factories = [
            m for m in program.methods() if m.name == "create" and m.is_static
        ]
        assert factories

    def test_casts_emitted(self, program):
        kinds = [stmt.kind for _m, stmt in program.statements()]
        assert "cast" in kinds

    def test_nulls_emitted(self, program):
        kinds = [stmt.kind for _m, stmt in program.statements()]
        assert "null" in kinds

    def test_scaled_config(self):
        bigger = SMALL.scaled(2.0)
        assert bigger.domain_classes == 8
        assert bigger.seed == SMALL.seed


class TestNamedSuite:
    def test_all_names_have_configs(self):
        for name in BENCHMARK_NAMES:
            assert benchmark_config(name) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            benchmark_config("quake3")

    def test_load_benchmark_small_scale(self):
        instance = load_benchmark("avrora", scale=0.5)
        assert instance.name == "avrora"
        assert instance.pag.node_counts()["V"] > 0
        assert instance.stats.methods > 0

    def test_clients_find_queries(self):
        instance = load_benchmark("avrora", scale=0.5)
        for client_cls in (SafeCastClient, NullDerefClient, FactoryMethodClient):
            assert len(client_cls(instance.pag).queries()) > 0

    def test_locality_in_realistic_band(self):
        """Table 3 reports 80-90% locality; the synthetic suite should
        land in a comparable band (we accept 60-95%)."""
        instance = load_benchmark("jack")
        assert 0.60 <= instance.pag.locality() <= 0.95

    def test_stats_row_matches_pag(self):
        instance = load_benchmark("luindex", scale=0.5)
        stats = instance.stats
        assert stats.total_nodes == sum(instance.pag.node_counts().values())
        assert stats.total_edges == sum(instance.pag.edge_counts().values())

    def test_query_volume_ordering(self):
        """xalan issues more SafeCast queries than jack (Table 3)."""
        xalan = load_benchmark("xalan")
        jack = load_benchmark("jack")
        assert len(SafeCastClient(xalan.pag).queries()) > len(
            SafeCastClient(jack.pag).queries()
        )


class TestStressKnobs:
    """The deep-recursion / megamorphic / field-chain knobs from the perf
    harness: off by default, deterministic, and analysis-neutral (all
    three traversal impls agree on every knobbed program)."""

    def test_knobs_default_off(self):
        from dataclasses import replace

        base = pretty_print(generate_program(SMALL))
        zeroed = replace(
            SMALL, recursion_depth=0, megamorphic_degree=0, field_chain_depth=0
        )
        assert pretty_print(generate_program(zeroed)) == base

    def test_knobs_do_not_perturb_seeded_core(self):
        """Stress shapes are appended after the rng-driven emission, so
        turning a knob must not reshuffle the seeded classes."""
        from dataclasses import replace

        base = pretty_print(generate_program(SMALL))
        knobbed = pretty_print(
            generate_program(replace(SMALL, recursion_depth=4))
        )
        for line in base.splitlines():
            if line.startswith("class ") and "Rec" not in line:
                assert line in knobbed

    def test_knobbed_programs_validate(self):
        from dataclasses import replace

        for knob in ("recursion_depth", "megamorphic_degree", "field_chain_depth"):
            program = generate_program(replace(SMALL, **{knob: 5}))
            validate_program(program)

    def test_recursion_knob_creates_recursive_sites(self):
        from dataclasses import replace

        from repro.pag.builder import build_pag

        pag = build_pag(generate_program(replace(SMALL, recursion_depth=6)))
        assert len(pag.recursive_sites()) >= 6

    def test_megamorphic_knob_fans_out_dispatch(self):
        from dataclasses import replace

        program = generate_program(replace(SMALL, megamorphic_degree=8))
        names = set(program.classes)
        assert {f"Poly{k}" for k in range(8)} <= names
        assert "PolyHub" in names

    def test_field_chain_knob_emits_deep_chain(self):
        from dataclasses import replace

        program = generate_program(replace(SMALL, field_chain_depth=7))
        names = set(program.classes)
        assert {"Link", "DeepWalk"} <= names

    def test_impls_agree_on_knobbed_programs(self):
        from dataclasses import replace

        from repro.analysis.dynsum import DynSum
        from repro.analysis.ppta import traversal_impl
        from repro.bench.runner import bench_analysis_config
        from repro.pag.builder import build_pag

        config = replace(
            SMALL, recursion_depth=4, megamorphic_degree=6, field_chain_depth=5
        )
        pag = build_pag(generate_program(config))
        nodes = sorted(pag.local_var_nodes(), key=repr)[:30]
        results = {}
        for impl in ("array", "native", "reference"):
            analysis = DynSum(pag, bench_analysis_config())
            with traversal_impl(impl):
                answers = [
                    sorted(map(repr, analysis.points_to(n).pairs)) for n in nodes
                ]
            results[impl] = (answers, analysis.total_steps)
        assert results["array"] == results["reference"]
        assert results["native"] == results["reference"]
