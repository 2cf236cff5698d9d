"""The ``repro-perf`` harness: structure, invariants, CLI plumbing.

Wall-clock values are host-dependent, so these tests assert the
harness's *shape* and its correctness gates (identical answers, equal
steps, eviction counts), never absolute times — the same stance the CI
``perf-smoke`` job takes.
"""

import json

import pytest

from repro.perf.harness import (
    MIN_GATED_REPS,
    PerfCheckError,
    _check_report,
    main,
    run_eviction,
    run_figure4,
    run_perf,
)


@pytest.fixture(scope="module")
def quick_report():
    """One tiny in-process sweep shared by the structural tests."""
    return run_perf(
        quick=True,
        check=True,
        rounds=1,
        reps=1,
        scale=0.4,
        benchmarks=("jython",),
        clients=("SafeCast",),
    )


class TestReportShape:
    def test_figure4_rows_and_aggregate(self, quick_report):
        from repro.native import availability

        section = quick_report["figure4"]
        assert section["workloads"], "sweep produced no workloads"
        # native joins the sweep only where the kernel loads.
        impls = ("array", "native") if availability()[0] else ("array",)
        ratios = {f"speedup_{impl}" for impl in impls}
        if len(impls) == 2:
            ratios.add("native_vs_array")
        # Exact key sets: the array/native columns and their ratios,
        # and nothing for a loop the sweep no longer runs.
        row_keys = {"benchmark", "client", "queries", "rounds", "steps"}
        row_keys |= {"reference", *impls} | ratios
        for row in section["workloads"]:
            assert set(row) == row_keys
            assert row["steps"] > 0
            for impl in ("reference", *impls):
                assert row[impl]["steps_per_sec"] > 0
            assert all(row[ratio] > 0 for ratio in ratios)
        aggregate = section["aggregate"]
        times = {f"time_sec_{impl}" for impl in ("reference", *impls)}
        assert set(aggregate) == times | ratios
        assert all(aggregate[ratio] > 0 for ratio in ratios)
        # The generator microbenchmark rides along with the figure
        # benchmarks.
        assert any(
            row["benchmark"] == "generator" for row in section["workloads"]
        )

    def test_eviction_section_counts_and_flatness(self, quick_report):
        section = quick_report["eviction"]
        assert [row["entries"] for row in section["sizes"]] == [1000, 5000]
        assert all(row["per_eviction_us"] > 0 for row in section["sizes"])
        assert section["flatness_ratio"] is not None

    def test_profile_section(self, quick_report):
        assert quick_report["profile"]
        top = quick_report["profile"][0]
        assert set(top) == {"function", "ncalls", "tottime_sec", "cumtime_sec"}

    def test_chaos_section_identical_and_injecting(self, quick_report):
        section = quick_report["chaos"]
        assert len(section["schedules"]) == 2  # the quick seed pair
        for row in section["schedules"]:
            assert row["identical"] is True
            assert row["faults"] > 0
            assert row["spec"].startswith("seed=")

    def test_warmstart_section_runs_the_default_impl(self, quick_report):
        from repro.analysis.ppta import active_traversal_impl
        from repro.native import availability

        section = quick_report["warmstart"]
        assert set(section) == {
            "queries", "cold_sec", "warm_sec", "warm_load_sec",
            "warm_query_sec", "speedup", "query_speedup", "snapshot_bytes",
            "warm_loaded", "traversal_impl", "native_unavailable",
            "adjacency_compiles", "csr_compiles",
        }
        assert section["traversal_impl"] == active_traversal_impl()
        native_ok, native_reason = availability()
        assert section["native_unavailable"] == (None if native_ok else native_reason)
        assert section["warm_loaded"] > 0
        assert section["csr_compiles"] == 1
        assert section["adjacency_compiles"] == 0
        assert section["speedup"] > 0 and section["query_speedup"] > 0

    def test_edits_section_reports_the_cycle(self, quick_report):
        from repro.analysis.ppta import active_traversal_impl

        section = quick_report["edits"]
        from repro.native import availability

        assert set(section) == {
            "edits", "target", "edit_ms", "batch_ms", "cold_for_program_ms",
            "rebuilt", "csr_compiles_per_edit", "csr_patches_per_edit",
            "mirror_imported_per_edit", "migrated", "dropped", "traversal_impl",
        }
        assert section["edits"] == 6  # --quick: three edit/revert rounds
        assert section["target"].startswith("Main.main:")
        assert section["rebuilt"] == 0
        assert section["csr_compiles_per_edit"] == [0]
        assert section["csr_patches_per_edit"] == [1]
        native = section["traversal_impl"] == "native" and availability()[0]
        assert section["mirror_imported_per_edit"] == ([0] if native else None)
        assert section["migrated"] > 0 and section["dropped"] > 0
        assert section["edit_ms"] > 0 and section["batch_ms"] > 0
        assert section["cold_for_program_ms"] > 0
        assert section["traversal_impl"] == active_traversal_impl()
        assert quick_report["version"] == 15

    def test_remote_section_sends_no_lookups(self, quick_report):
        from repro.analysis.ppta import active_traversal_impl
        from repro.native import availability

        section = quick_report["remote"]
        assert set(section) == {
            "workload", "client", "queries", "batches", "shards",
            "local_cold_sec", "traversal_impl", "cold", "warm", "rewarm",
        }
        assert section["batches"] == 10 and section["shards"] == 2
        assert section["traversal_impl"] == active_traversal_impl()
        native_ok, native_reason = availability()
        for name in ("cold", "warm", "rewarm"):
            row = section[name]
            assert set(row) == {
                "sec", "first_prefetch_sec", "round_trips", "lookups", "prefetched",
                "prefetch_bytes", "stores", "steps", "native_unavailable", "held",
                "built", "dumps_packed", "dumps_kept",
            } | ({"sessions"} if name == "rewarm" else set())
            assert row["sec"] > 0 and row["lookups"] == 0
            # The first batch's prefetch is part of the session.
            assert 0 < row["first_prefetch_sec"] < row["sec"]
            assert row["native_unavailable"] == (None if native_ok else native_reason)
        # Per batch, one prefetch per shard plus at most one flush
        # flight per shard.
        assert section["warm"]["round_trips"] <= 2 * 2 * section["batches"]
        assert section["cold"]["stores"] > 0 and section["warm"]["stores"] == 0
        assert section["warm"]["prefetched"] > 0
        assert section["warm"]["steps"] < section["cold"]["steps"]
        # Trie frames: the warm full dump is under the gate's bytes per
        # entry.
        assert section["cold"]["prefetch_bytes"] > 0
        warm = section["warm"]
        assert 0 < warm["prefetch_bytes"] <= 48 * warm["prefetched"]
        # Each session's first prefetch is its one full dump per shard:
        # the cold and warm ones find a changed store and pack, the
        # rewarm one finds the warm one's store and its kept line.
        for name in ("cold", "warm"):
            assert section[name]["dumps_packed"] == [1, 1]
            assert section[name]["dumps_kept"] == [0, 0]
        rewarm = section["rewarm"]
        # The median of five sessions, each of which did this work.
        assert rewarm["sessions"] == 5
        assert (rewarm["dumps_packed"], rewarm["dumps_kept"]) == ([0, 0], [1, 1])
        for field in ("prefetched", "prefetch_bytes", "round_trips", "steps"):
            assert rewarm[field] == warm[field], field
        # A warm prefetch lands in an empty tier and stays in the kernel;
        # the cold session's deltas arrive in a tier that is not empty.
        assert section["cold"]["held"] == 0
        for row in (warm, rewarm):
            assert row["held"] == (row["prefetched"] if native_ok else 0)
            assert row["built"] == 0

    def test_codec_section_times_each_call_beside_json(self, quick_report):
        section = quick_report["codec"]
        ops = ("decode_request", "encode_response", "decode_response",
               "encode_request")
        assert set(section) == {
            "workload", "clients", "lines", "invalidates", "request_bytes",
            "response_bytes", "reps", "passes", "measured_sec", *ops,
        }
        assert section["lines"] == 2000
        # serve-ide's 5% invalidate share, seeded.
        assert 50 < section["invalidates"] < 150
        assert section["response_bytes"] > section["request_bytes"] > 0
        for op in ops:
            row = section[op]
            assert set(row) == {"codec_us", "json_us", "ratio"}
            assert row["codec_us"] > 0 and row["json_us"] > 0 and row["ratio"] > 0

    def test_check_flag_recorded(self, quick_report):
        assert quick_report["checked"] is True
        assert json.dumps(quick_report)  # JSON-serializable end to end


class TestInvariants:
    def test_eviction_bench_requires_real_evictions(self):
        # Tiny insert count still must evict once per insert.
        section = run_eviction((64,), inserts=16)
        assert section["sizes"][0]["per_eviction_us"] > 0

    def test_figure4_asserts_step_identity(self):
        # Sanity: the sweep itself raises PerfCheckError on divergence;
        # a healthy run must NOT raise.
        section = run_figure4(
            ("jython",), ("SafeCast",), rounds=1, reps=1, scale=0.4
        )
        assert section["workloads"][0]["steps"] > 0

    @pytest.mark.parametrize(
        "compiles", [(0, 0), (2, 0), (1, 1)], ids=["none", "twice", "adjacency"]
    )
    def test_warmstart_gate_wants_one_csr_compile(self, compiles):
        report = TestRatioGates._report(1, 2.0)
        csr, adjacency = compiles
        report["warmstart"] = {"csr_compiles": csr, "adjacency_compiles": adjacency}
        with pytest.raises(PerfCheckError, match="warm start"):
            _check_report(report)
        report["warmstart"] = {"csr_compiles": 1, "adjacency_compiles": 0}
        _check_report(report)

    PATCHED = {
        "edits": 4, "rebuilt": 0, "csr_compiles_per_edit": [0],
        "csr_patches_per_edit": [1], "traversal_impl": "native",
        "mirror_imported_per_edit": [0],
    }

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"rebuilt": 1}, "full solve"),
            ({"csr_compiles_per_edit": [1]}, "want 0"),
            ({"csr_compiles_per_edit": [0, 1]}, "want 0"),
            ({"csr_patches_per_edit": [0]}, "exactly 1"),
            ({"csr_patches_per_edit": [1, 2]}, "exactly 1"),
        ],
        ids=["rebuilt", "compiled", "sometimes-compiled", "no-patch", "two-patches"],
    )
    def test_edits_gate(self, change, message):
        report = TestRatioGates._report(1, 2.0)
        report["edits"] = {**self.PATCHED, **change}
        with pytest.raises(PerfCheckError, match=message):
            _check_report(report)
        report["edits"] = dict(self.PATCHED)
        _check_report(report)

    @pytest.mark.parametrize("imported", [[1843], [0, 12], None])
    def test_edits_gate_wants_the_mirror_kept(self, imported):
        from repro.native import availability

        report = TestRatioGates._report(1, 2.0)
        report["edits"] = {**self.PATCHED, "mirror_imported_per_edit": imported}
        if availability()[0]:
            with pytest.raises(PerfCheckError, match="summary mirror"):
                _check_report(report)
        else:
            _check_report(report)  # no kernel loaded: no mirror to keep
        report["edits"]["traversal_impl"] = "array"
        _check_report(report)

    REMOTE_ROW = {
        "lookups": 0, "native_unavailable": None,
        "prefetched": 100, "prefetch_bytes": 4_800, "held": 100, "built": 0,
        "dumps_packed": [1, 1], "dumps_kept": [0, 0],
    }
    REWARM_ROW = {**REMOTE_ROW, "dumps_packed": [0, 0], "dumps_kept": [1, 1]}

    @pytest.mark.parametrize("session", ["cold", "warm", "rewarm"])
    @pytest.mark.parametrize(
        "change, message, native_only, gated",
        [
            ({"lookups": 3}, "lookups", False, ("cold", "warm", "rewarm")),
            ({"native_unavailable": "RemoteSummaryCache"}, "off the kernel", True,
             ("cold", "warm", "rewarm")),
            # Bytes per entry gate only the warm session's full dump.
            ({"prefetch_bytes": 4_801}, "not framed", False, ("warm",)),
            ({"prefetched": 0, "prefetch_bytes": 110, "held": 0}, "not framed", False,
             ("warm",)),
            # Every shard answers the rewarm session's full dump from its
            # kept line.
            ({"dumps_packed": [0, 1], "dumps_kept": [1, 0]}, "kept line", False,
             ("rewarm",)),
            ({"dumps_packed": [1, 0], "dumps_kept": [1, 1]}, "kept line", False,
             ("rewarm",)),
            ({"dumps_packed": [0, 0], "dumps_kept": [0, 0]}, "kept line", False,
             ("rewarm",)),
            # With the kernel, a warm prefetch is held whole and never
            # built.
            ({"held": 99}, "held 99 of its 100", True, ("warm", "rewarm")),
            ({"held": 0}, "held 0 of its 100", True, ("warm", "rewarm")),
            ({"built": 1}, "built 1", True, ("warm", "rewarm")),
        ],
        ids=["lookups", "off-kernel", "nominal-bytes", "bytes-for-nothing",
             "one-shard-packed", "packed-and-kept", "no-dump", "held-some",
             "held-none", "built"],
    )
    def test_remote_gate(self, session, change, message, native_only, gated):
        from repro.native import availability

        report = TestRatioGates._report(1, 2.0)
        report["remote"] = {
            "traversal_impl": "native",
            "cold": dict(self.REMOTE_ROW),
            "warm": dict(self.REMOTE_ROW),
            "rewarm": dict(self.REWARM_ROW),
        }
        _check_report(report)
        report["remote"][session].update(change)
        if session not in gated:
            _check_report(report)
        elif native_only and not availability()[0]:
            _check_report(report)  # no kernel loaded: nothing to serve on
        else:
            with pytest.raises(PerfCheckError, match=message):
                _check_report(report)
        if native_only:
            report["remote"]["traversal_impl"] = "array"
            _check_report(report)

    @pytest.mark.parametrize(
        "reps, measured, ratio, fires",
        [
            (2, 0.2, 6.5, True),
            (2, 0.2, 5.5, False),
            (1, 0.2, 6.5, False),  # one sample per call: not gated
            (2, 0.01, 6.5, False),  # too little measured time: not gated
        ],
        ids=["slow", "fast", "single-rep", "micro-sweep"],
    )
    def test_codec_gate(self, reps, measured, ratio, fires):
        report = TestRatioGates._report(1, 2.0)
        report["codec"] = {
            "reps": reps, "measured_sec": measured,
            "decode_response": {"ratio": ratio},
        }
        if fires:
            with pytest.raises(PerfCheckError, match="decode_response costs"):
                _check_report(report)
        else:
            _check_report(report)

    def test_perf_check_error_is_an_assertion(self):
        assert issubclass(PerfCheckError, AssertionError)


class TestCli:
    def test_main_writes_output_and_checks(self, tmp_path, capsys):
        out = tmp_path / "perf.json"
        code = main(
            [
                "--quick",
                "--check",
                "--rounds", "1",
                "--reps", "1",
                "--scale", "0.4",
                "--benchmarks", "jython",
                "--clients", "SafeCast",
                "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["protocol"] == "repro-perf"
        assert report["checked"] is True


class TestRatioGates:
    """Ratio gates judge best-of-``MIN_GATED_REPS`` sweeps only; a
    single-rep sweep is one noisy sample per impl."""

    @staticmethod
    def _report(reps, speedup_array):
        return {
            "figure4": {
                "workloads": [{"benchmark": "b", "array": {"steps_per_sec": 1}}],
                "aggregate": {
                    "time_sec_reference": 1.0,
                    "time_sec_array": 1.0,
                    "speedup_array": speedup_array,
                },
                "reps": reps,
            },
            "eviction": {"flatness_ratio": 1.0},
        }

    def test_single_rep_sweeps_skip_the_ratio_gates(self):
        _check_report(self._report(1, 0.8))

    def test_best_of_two_sweeps_are_gated(self):
        assert MIN_GATED_REPS == 2
        with pytest.raises(PerfCheckError, match="array speedup"):
            _check_report(self._report(MIN_GATED_REPS, 0.8))
        _check_report(self._report(MIN_GATED_REPS, 2.0))
