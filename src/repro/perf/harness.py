"""Deterministic wall-clock microbenchmarks: the ``repro-perf`` harness.

Every other artifact in this repo measures *steps* — deterministic, but
blind to constant factors, which are the only lever left on the hot
path (inclusion-based points-to has a cubic lower bound; see
PAPERS.md).  This harness measures **steps per second**:

* **figure4** — the Figure-4 workloads (the paper's per-client query
  streams over the figure benchmarks, one heavier
  :mod:`repro.bench.generator` program, and the generator's adversarial
  stress shapes — deep recursion, a megamorphic call site, a deep field
  chain) replayed ``rounds`` times against one persistent DYNSUM
  instance — the long-running-host regime the paper motivates (round 1
  runs cold, later rounds run on a warm summary cache).  Each workload
  runs under the optimized traversal implementations
  (:func:`repro.analysis.ppta.traversal_impl`): ``array`` — the
  pure-Python loop over the CSR image (:mod:`repro.pag.csr`) — and
  ``native`` — the compiled C kernel over the same CSR arrays
  (:mod:`repro.native`, skipped with a log line when the kernel cannot
  load) — against ``reference``, the oracle loop (accessor-based PPTA
  + worklist).  Answers are asserted element-wise identical and step
  counts bit-equal across all implementations; the ratios of wall
  times are the speedups each optimized loop buys.
* **warmstart** — cold engine construction + queries versus an engine
  warm-started from the cold engine's JSON snapshot, both under the
  default traversal impl: the warm path must answer like the cold one,
  load every saved summary, and compile its CSR image exactly once
  (and adjacency never).
* **edits** — edit-storm's cycle on the generator program: append
  ``v = new Object`` to the cast source of the middle SafeCast query,
  revert it, and so on, with one SafeCast batch after each edit, on a
  program-backed engine (:meth:`PointsToEngine.for_program`).  It
  records the median edit and batch times, how many edits fell back to
  a full solve, the CSR compiles and patches each edit cost, the
  summaries the native kernel's mirror re-imported per edit, and what
  a cold ``for_program`` costs; ``--check`` gates on answers equal to
  a cold engine's after every edit, no fallback, one CSR patch and no
  compile per edit, and — with the kernel loaded — no mirror import.
* **eviction** — the LRU store,
  :class:`~repro.analysis.summaries.BoundedSummaryCache`: per-eviction
  wall time across store sizes.  Taking the coldest entry is O(1) and
  shows as a flat curve; a victim scan would grow linearly.
* **chaos** — a seeded fault-injection soak: the Figure-4 jython
  workload replayed against live in-process shard servers under
  deterministic fault schedules (:mod:`repro.cacheserver.faults`),
  recording injected-fault and fall-open counts per seed.  ``--check``
  gates on every seed keeping answers element-wise identical to a
  fault-free run while provably injecting — the robustness analogue of
  the identical-answers invariant the figure4 sweep enforces.
* **remote** — pipelined remote sessions on the generator program's
  NullDeref stream (the paper's 10 batches) over two in-process shard
  servers: a cold session against the empty fleet, a warm one
  served by its flushes and rewarm ones on the unchanged fleet (the
  median of :data:`REWARM_SESSIONS`), each after a full cyclic-GC
  pass, beside a cold local engine, with their wall times, the first
  batch's prefetch time, round trips, lookups, prefetch bytes,
  ``native_unavailable``, the entries the local tier held in the
  kernel and later built in Python, and each shard's full dumps packed
  and answered from its kept line.
  ``--check`` gates on answers equal to the local engine's, no
  ``lookup`` round trip in any session, at most
  :data:`PREFETCH_BYTES_PER_ENTRY_MAX` prefetch bytes per prefetched
  entry in the warm session (a framed full dump), every shard
  answering the rewarm session's full dump from its kept line, and —
  with the kernel loaded — every session running on it, and the warm
  and rewarm sessions holding every prefetched entry and building
  none.
* **codec** — the wire codec on serve-ide-shaped traffic: the generator
  program's SafeCast and NullDeref queries (with their client payloads)
  in a seeded order with a 5% share of invalidates, answered by an
  in-process :class:`~repro.api.service.PointsToService`.  Per line it
  times the four codec calls of one exchange — the server's
  ``decode_request`` and response ``encode``, the client's
  ``decode_response`` and request ``encode`` — each beside
  ``json.loads``/``json.dumps`` of the same lines.  ``--check`` gates
  on ``decode_response`` costing at most
  :data:`CODEC_DECODE_RATIO_MAX` times ``json.loads``.
* **profile** — cProfile top-N of one figure4 run under the active
  impl, so the next hot-spot hunt starts from data.

Wall-clock numbers vary with the host; the committed baseline
(``benchmarks/BENCH_hotpath.json``) records them for trajectory, while
``--check`` gates only on invariants (identical answers, equal steps,
recorded throughput, sub-linear eviction) and same-run ratios — never
on absolute times.
"""

import argparse
import cProfile
import gc
import json
import os
import pstats
import random
import statistics
import sys
import tempfile
import time
from dataclasses import replace

from repro.analysis import ppta
from repro.analysis.dynsum import DynSum
from repro.analysis.ppta import PptaResult
from repro.analysis.summaries import BoundedSummaryCache
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.runner import bench_analysis_config, bench_engine_policy
from repro.bench.suite import load_benchmark
from repro.cfl.rsm import S1
from repro.cfl.stacks import EMPTY_STACK
from repro.clients import ALL_CLIENTS
from repro.engine.core import PointsToEngine
from repro.ir.builder import MethodBuilder
from repro.pag.nodes import LocalNode

#: The Figure-4 benchmarks (paper Section 5.3) the harness replays.
FIGURE_BENCHMARKS = ("soot-c", "bloat", "jython")

#: A heavier synthetic program (bench/generator.py) added to the sweep:
#: deeper delegation layers and fatter worker bodies than the paper
#: suite, so the traversal loops run long enough to time cleanly.
GENERATOR_CONFIG = GeneratorConfig(
    seed=7,
    domain_classes=16,
    data_classes=8,
    workers_per_class=3,
    stmts_per_worker=16,
    layers=3,
    driver_rounds=2,
    cast_density=0.6,
    null_density=0.5,
)

#: The generator's knob-gated adversarial shapes, swept as extra
#: figure4 workloads.  A smaller base program than GENERATOR_CONFIG:
#: the point is the shape's traversal pattern, not bulk.
_STRESS_BASE = GeneratorConfig(
    seed=11,
    domain_classes=6,
    data_classes=4,
    workers_per_class=2,
    stmts_per_worker=8,
    layers=2,
)
STRESS_WORKLOADS = (
    ("gen-recursion", replace(_STRESS_BASE, recursion_depth=12)),
    ("gen-megamorphic", replace(_STRESS_BASE, megamorphic_degree=24)),
    ("gen-fieldchain", replace(_STRESS_BASE, field_chain_depth=16)),
)

#: Optimized traversal implementations the sweep may time against the
#: ``reference`` baseline (which always runs).  ``native`` is dropped
#: from a sweep (with a log line) when the compiled kernel cannot load
#: on the host — timing it there would silently measure the ``array``
#: fallback instead.
OPTIMIZED_IMPLS = ("array", "native")

#: The loop bodies each optimized impl actually exercises, as
#: ``"<relpath>::<QualName>"`` ids.  CI asserts this equals
#: :func:`repro.devtools.registry.hot_function_ids` — a function cannot
#: be hot for the HOT001 linter yet unmeasured here, or vice versa.
MEASURED_HOT_FUNCTIONS = {
    "array": (
        "src/repro/analysis/dynsum.py::DynSum._explore_array",
        "src/repro/analysis/ppta.py::_run_ppta_array",
    ),
    "native": (
        "src/repro/native/kernel.c::rk_dynsum",
        "src/repro/native/kernel.c::rk_ppta",
    ),
}


def measured_hot_functions(impls=OPTIMIZED_IMPLS):
    """Sorted, de-duplicated hot-function ids the sweep measures."""
    ids = set()
    for impl in impls:
        ids.update(MEASURED_HOT_FUNCTIONS[impl])
    return tuple(sorted(ids))

CLIENTS = {cls.name: cls for cls in ALL_CLIENTS}

#: Eviction microbenchmark store sizes (entries).
EVICTION_SIZES = (1_000, 10_000, 100_000)
EVICTION_SIZES_QUICK = (1_000, 5_000)


#: The fewest interleaved reps whose best-of timings ``--check`` gates
#: ratios on (``--quick`` runs exactly this many).
MIN_GATED_REPS = 2


class PerfCheckError(AssertionError):
    """An invariant ``--check`` gates on failed."""


def _canonical(results):
    """Order-independent canonical answers for cross-impl comparison."""
    return [
        (
            result.complete,
            sorted(
                (str(obj.object_id), obj.class_name, ctx.to_tuple())
                for obj, ctx in result.pairs
            ),
        )
        for result in results
    ]


def _workload_instances(benchmarks, scale, stress=True):
    instances = []
    for name in benchmarks:
        instances.append((name, load_benchmark(name, scale=scale)))
    instances.append(("generator", load_benchmark("jython", config=GENERATOR_CONFIG)))
    if stress:
        for name, config in STRESS_WORKLOADS:
            instances.append((name, load_benchmark("jython", config=config)))
    return instances


def _replay(instance, nodes, impl, rounds):
    """One timed replay: ``rounds`` passes of the query stream against
    a single persistent DYNSUM under traversal implementation ``impl``.
    Returns (elapsed_sec, total_steps, canonical answers, analysis)."""
    with ppta.traversal_impl(impl):
        analysis = DynSum(instance.pag, bench_analysis_config())
        results = []
        started = time.perf_counter()
        for round_index in range(rounds):
            results = [analysis.points_to(node) for node in nodes]
        elapsed = time.perf_counter() - started
    return elapsed, analysis.total_steps, _canonical(results), analysis


def run_figure4(
    benchmarks, clients, rounds, reps, scale, impls=OPTIMIZED_IMPLS,
    stress=True, log=lambda s: None,
):
    """The optimized-vs-reference sweep; returns the ``figure4`` section.

    ``impls`` selects which optimized loops to time; ``reference``
    always runs as the baseline, and every implementation's answers and
    step counts are asserted identical to it.
    """
    impls = tuple(impls)
    sweep = impls + ("reference",)
    workloads = []
    totals = {impl: 0.0 for impl in sweep}
    for name, instance in _workload_instances(benchmarks, scale, stress=stress):
        # Compile the traversal substrate once, outside every timer.
        instance.pag.csr()
        for client_name in clients:
            client = CLIENTS[client_name](instance.pag)
            nodes = [query.node(instance.pag) for query in client.queries()]
            if not nodes:
                continue
            best = {}
            outcome = {}
            for _rep in range(reps):
                # Interleave the implementations so drift (thermal,
                # scheduler) hits all of them evenly.
                for impl in sweep:
                    elapsed, steps, canonical, _ = _replay(
                        instance, nodes, impl, rounds
                    )
                    if impl not in best or elapsed < best[impl]:
                        best[impl] = elapsed
                    outcome[impl] = (steps, canonical)
            ref_steps, ref_answers = outcome["reference"]
            for impl in impls:
                impl_steps, impl_answers = outcome[impl]
                if impl_answers != ref_answers:
                    raise PerfCheckError(
                        f"{name}/{client_name}: {impl} and reference "
                        f"answers differ"
                    )
                if impl_steps != ref_steps:
                    raise PerfCheckError(
                        f"{name}/{client_name}: step counts diverge "
                        f"({impl}={impl_steps}, reference={ref_steps})"
                    )
            for impl in sweep:
                totals[impl] += best[impl]
            row = {
                "benchmark": name,
                "client": client_name,
                "queries": len(nodes),
                "rounds": rounds,
                "steps": ref_steps,
            }
            for impl in sweep:
                row[impl] = {
                    "time_sec": round(best[impl], 6),
                    "steps_per_sec": round(ref_steps / best[impl]),
                }
            if "array" in impls:
                row["speedup_array"] = round(best["reference"] / best["array"], 3)
            if "native" in impls:
                row["speedup_native"] = round(
                    best["reference"] / best["native"], 3
                )
            if "array" in impls and "native" in impls:
                row["native_vs_array"] = round(
                    best["array"] / best["native"], 3
                )
            workloads.append(row)
            log(
                f"  {name:16s} {client_name:10s} steps={ref_steps:8d} "
                + " ".join(
                    f"{impl}={best[impl] * 1000:7.1f}ms" for impl in sweep
                )
            )
    aggregate = {
        f"time_sec_{impl}": round(totals[impl], 6) for impl in sweep
    }
    if "array" in impls and totals["array"]:
        aggregate["speedup_array"] = round(
            totals["reference"] / totals["array"], 3
        )
    if "native" in impls and totals["native"]:
        aggregate["speedup_native"] = round(
            totals["reference"] / totals["native"], 3
        )
    if "array" in impls and "native" in impls and totals["native"]:
        aggregate["native_vs_array"] = round(
            totals["array"] / totals["native"], 3
        )
    return {"workloads": workloads, "aggregate": aggregate, "reps": reps}


def run_warmstart(rounds=2, log=lambda s: None):
    """Cold engine bring-up versus a warm start; the ``warmstart``
    section.

    Cold: build the PAG's CSR image and answer the query stream.
    Warm: a fresh engine over the same program, warm-started from the
    cold engine's ``save_cache`` snapshot, answering the stream once.
    Both run the default traversal impl.  The warm path must answer
    like the cold one, load every saved summary and compile its CSR
    image exactly once (adjacency never); violations raise
    :class:`PerfCheckError` regardless of ``--check``.
    """
    cold_instance = load_benchmark("jython", config=GENERATOR_CONFIG)
    client = CLIENTS["SafeCast"](cold_instance.pag)
    nodes = [query.node(cold_instance.pag) for query in client.queries()]

    cold_engine = cold_instance.engine()
    started = time.perf_counter()
    cold_instance.pag.csr()
    for _round in range(rounds):
        cold_answers = [cold_engine.query(node) for node in nodes]
    cold_sec = time.perf_counter() - started

    handle, path = tempfile.mkstemp(prefix="repro-warm-", suffix=".json")
    os.close(handle)
    try:
        snapshot = cold_engine.save_cache(path)
        snapshot_bytes = os.path.getsize(path)

        warm_instance = load_benchmark("jython", config=GENERATOR_CONFIG)
        warm_nodes = [query.node(warm_instance.pag) for query in client.queries()]
        started = time.perf_counter()
        warm_engine = PointsToEngine(
            warm_instance.pag,
            replace(bench_engine_policy(), warm_start=path),
        )
        warm_load_sec = time.perf_counter() - started
        started = time.perf_counter()
        warm_answers = [warm_engine.query(node) for node in warm_nodes]
        warm_query_sec = time.perf_counter() - started
        warm_sec = warm_load_sec + warm_query_sec
    finally:
        os.unlink(path)

    stats = warm_engine.stats()
    pag = warm_engine.pag
    if stats.warm_loaded != len(snapshot.entries):
        raise PerfCheckError(
            f"warm start loaded {stats.warm_loaded} of the snapshot's "
            f"{len(snapshot.entries)} summaries"
        )
    if pag.csr_compiles != 1 or pag.adjacency_compiles != 0:
        raise PerfCheckError(
            f"warm path compiled csr={pag.csr_compiles}, "
            f"adjacency={pag.adjacency_compiles} times (want 1 and 0)"
        )
    cold_pairs = [sorted(map(repr, r.pairs)) for r in cold_answers]
    warm_pairs = [sorted(map(repr, r.pairs)) for r in warm_answers]
    if cold_pairs != warm_pairs:
        raise PerfCheckError("warm-start answers differ from cold answers")
    section = {
        "queries": len(nodes),
        "cold_sec": round(cold_sec, 6),
        "warm_sec": round(warm_sec, 6),
        #: Split: snapshot parse + summary replay vs answering the stream
        #: off the warm store (which includes the one CSR compile).  The
        #: query-phase ratio is the steady-state win; the load phase
        #: amortises across a server's lifetime.
        "warm_load_sec": round(warm_load_sec, 6),
        "warm_query_sec": round(warm_query_sec, 6),
        "speedup": round(cold_sec / warm_sec, 3) if warm_sec else None,
        "query_speedup": round(cold_sec / warm_query_sec, 3)
        if warm_query_sec
        else None,
        "snapshot_bytes": snapshot_bytes,
        "warm_loaded": stats.warm_loaded,
        "traversal_impl": stats.traversal_impl,
        "native_unavailable": stats.native_unavailable,
        "adjacency_compiles": pag.adjacency_compiles,
        "csr_compiles": pag.csr_compiles,
    }
    log(
        f"  cold={cold_sec * 1000:7.1f}ms "
        f"warm={warm_load_sec * 1000:.1f}+{warm_query_sec * 1000:.1f}ms "
        f"({section['speedup']}x total, {section['query_speedup']}x serving, "
        f"{snapshot_bytes} bytes, {stats.warm_loaded} summaries, "
        f"{stats.traversal_impl})"
    )
    return section


def _edit_answers(engine):
    """One SafeCast batch in stream order, as comparable answers."""
    client = CLIENTS["SafeCast"](engine.pag)
    batch = engine.query_batch(
        client.specs(client.queries()), dedupe=False, reorder=False
    )
    return [
        (
            result.complete,
            sorted(
                (obj.object_id, obj.class_name, ctx.to_tuple())
                for obj, ctx in result.pairs
            ),
        )
        for result in batch.results
    ]


def run_edits(rounds=10, log=lambda s: None):
    """Edit-storm's edit/revert cycle on ``GENERATOR_CONFIG``; the
    ``edits`` section.

    ``rounds`` edit/revert pairs, one SafeCast batch after each edit.
    The batch's answers must equal a cold engine's over the same
    program version, and each report's ``migrated + dropped`` the
    store's entry count before its edit; a violation raises
    :class:`PerfCheckError` regardless of ``--check`` (which also gates
    on ``rebuilt == 0``, one CSR patch and no compile per edit, and no
    kernel-mirror import per edit).
    """
    policy = bench_engine_policy()
    program = generate_program(GENERATOR_CONFIG)
    started = time.perf_counter()
    engine = PointsToEngine.for_program(program, policy)
    cold_sec = time.perf_counter() - started
    queries = CLIENTS["SafeCast"](engine.pag).queries()
    target = queries[len(queries) // 2]

    def redirect(method):
        MethodBuilder(method).alloc(target.var, "Object")

    def revert(method):
        method.statements.pop()

    edited_program = generate_program(GENERATOR_CONFIG)
    redirect(edited_program.lookup_method(target.method))
    edited_program.finalize()
    want = {
        False: _edit_answers(PointsToEngine.for_program(generate_program(GENERATOR_CONFIG), policy)),
        True: _edit_answers(PointsToEngine.for_program(edited_program, policy)),
    }
    session = engine.edit_session()
    _edit_answers(engine)  # the store warms before the first edit
    edit_times, batch_times, compiles, patches, imported = [], [], [], [], []
    for index in range(2 * rounds):
        edited = index % 2 == 0
        entries = len(engine.cache)
        started = time.perf_counter()
        report = session.edit(target.method, redirect if edited else revert)
        edit_times.append(time.perf_counter() - started)
        if report.migrated + report.dropped != entries:
            raise PerfCheckError(
                f"edit {index + 1}: migrated {report.migrated} + dropped "
                f"{report.dropped} != {entries} entries before the edit"
            )
        pag = engine.pag
        before = (pag.csr_compiles, pag.csr_patches, _mirror(engine.cache))
        started = time.perf_counter()
        answers = _edit_answers(engine)
        batch_times.append(time.perf_counter() - started)
        compiles.append(pag.csr_compiles - before[0])
        patches.append(pag.csr_patches - before[1])
        imported.append(_imported_since(before[2], _mirror(engine.cache)))
        if answers != want[edited]:
            raise PerfCheckError(
                f"edit {index + 1}: answers differ from a cold engine's"
            )
    reports = session.reports
    section = {
        "edits": len(reports),
        "target": f"{target.method}:{target.var}",
        "edit_ms": round(statistics.median(edit_times) * 1000, 3),
        "batch_ms": round(statistics.median(batch_times) * 1000, 3),
        "cold_for_program_ms": round(cold_sec * 1000, 3),
        "rebuilt": sum(1 for report in reports if report.rebuilt),
        "csr_compiles_per_edit": sorted(set(compiles)),
        "csr_patches_per_edit": sorted(set(patches)),
        "mirror_imported_per_edit": (
            None if None in imported else sorted(set(imported))
        ),
        "migrated": round(statistics.mean(r.migrated for r in reports), 1),
        "dropped": round(statistics.mean(r.dropped for r in reports), 1),
        "traversal_impl": engine.stats().traversal_impl,
    }
    log(
        f"  edit={section['edit_ms']:.1f}ms batch={section['batch_ms']:.1f}ms "
        f"(cold for_program {section['cold_for_program_ms']:.1f}ms, "
        f"{section['rebuilt']} rebuilt of {section['edits']}, "
        f"csr compiles/edit {section['csr_compiles_per_edit']}, "
        f"patches/edit {section['csr_patches_per_edit']}, "
        f"mirror imports/edit {section['mirror_imported_per_edit']})"
    )
    return section


def _mirror(cache):
    """The native kernel's mirror session of ``cache``, or ``None``."""
    memo = cache._native_memo
    return None if memo is None else memo[1]


def _imported_since(before, after):
    """Entries the kernel mirror imported between two observations of
    it (a replaced session counts its whole import); ``None`` without a
    mirror."""
    if after is None:
        return None
    return after.imported - (before.imported if after is before else 0)


def run_eviction(sizes, inserts=2_000, log=lambda s: None):
    """The eviction microbenchmark; returns the ``eviction`` section.

    Fills an LRU store to ``size`` entries, then times ``inserts``
    further stores — each one evicting exactly one entry, the coldest.
    """
    rows = []
    for size in sizes:
        store = BoundedSummaryCache(max_entries=size)
        for i in range(size):
            store.store(LocalNode(f"M{i}.m", "v"), EMPTY_STACK, S1, PptaResult((), ()))
        started = time.perf_counter()
        for i in range(inserts):
            store.store(LocalNode(f"X{i}.m", "v"), EMPTY_STACK, S1, PptaResult((), ()))
        elapsed = time.perf_counter() - started
        if store.evictions < inserts:
            raise PerfCheckError(
                f"eviction bench at size {size}: expected >= {inserts} "
                f"evictions, saw {store.evictions}"
            )
        per_eviction_us = elapsed / inserts * 1e6
        rows.append({"entries": size, "per_eviction_us": round(per_eviction_us, 3)})
        log(f"  entries={size:7d} per-eviction={per_eviction_us:8.2f}us")
    times = [row["per_eviction_us"] for row in rows]
    flatness = round(max(times) / min(times), 3) if times else None
    return {"inserts": inserts, "sizes": rows, "flatness_ratio": flatness}


#: Chaos soak seeds: each drives one deterministic fault schedule over
#: the shared-cache service (same seed → same faults, forever), with a
#: rule forcing a disconnect at op 1 so every run provably injects.
CHAOS_SEEDS = (11, 12, 13, 14)
CHAOS_SEEDS_QUICK = (11, 12)


def _chaos_schedule(seed):
    from repro.cacheserver.faults import CLIENT_KINDS, FaultRule, FaultSchedule

    return FaultSchedule(
        seed=seed,
        rate=0.25,
        kinds=CLIENT_KINDS,
        rules=(FaultRule("disconnect", 1),),
    )


def run_chaos(quick=False, scale=0.3, log=lambda s: None):
    """Seeded chaos soak over the shared-cache service; the ``chaos``
    section.

    Each seed replays the Figure-4 jython workload against live
    in-process shard servers under a deterministic mixed fault schedule
    (every client-side kind, rate 0.25) and records whether the answers
    stayed element-wise identical to a fault-free run, how many faults
    were injected, and the fall-open accounting.  ``--check`` gates on
    every row being identical with at least one injected fault —
    robustness is an invariant, not a throughput number.
    """
    from repro.cacheserver.faults import RetryPolicy
    from repro.cacheserver.server import ShardServer
    from repro.engine.policy import CachePolicy

    instance = load_benchmark("jython", scale=scale)
    client = CLIENTS["SafeCast"](instance.pag)
    plain = PointsToEngine(instance.pag, bench_engine_policy())
    _verdicts, baseline_batch = client.run_engine(
        plain, dedupe=False, reorder=False
    )
    baseline = _canonical(baseline_batch.results)
    retry = RetryPolicy(initial=0.01, max_delay=0.05)
    rows = []
    for seed in CHAOS_SEEDS_QUICK if quick else CHAOS_SEEDS:
        schedule = _chaos_schedule(seed)
        servers = [ShardServer(i, 2).start() for i in range(2)]
        try:
            policy = bench_engine_policy(
                cache=CachePolicy(
                    remote=tuple(server.address for server in servers),
                    remote_timeout=1.0,
                    retry=retry,
                    fault_schedule=schedule,
                )
            )
            engine = PointsToEngine(instance.pag, policy)
            started = time.perf_counter()
            _verdicts, batch = client.run_engine(
                engine, dedupe=False, reorder=False
            )
            elapsed = time.perf_counter() - started
            remote = engine.stats().remote
        finally:
            for server in servers:
                server.stop()
        identical = _canonical(batch.results) == baseline
        rows.append(
            {
                "seed": seed,
                "spec": schedule.to_spec(),
                "faults": remote.faults,
                "degraded": remote.degraded,
                "breaker_state": list(remote.breaker_state),
                "identical": identical,
                "time_sec": round(elapsed, 6),
            }
        )
        log(
            f"  seed={seed} faults={remote.faults} "
            f"degraded={remote.degraded} identical={identical} "
            f"{elapsed * 1000:7.1f}ms"
        )
    return {
        "workload": "jython",
        "scale": scale,
        "queries": len(baseline),
        "schedules": rows,
    }


#: Batches per ``remote`` session: the paper's Figure-4 split.
REMOTE_BATCHES = 10
#: The ``remote`` section's sessions, in order, each on a fresh engine.
REMOTE_SESSIONS = ("cold", "warm", "rewarm")
#: How many ``rewarm`` sessions run; the section reports their median
#: times, and each one must do the same work.
REWARM_SESSIONS = 5
#: ``--check``'s ceiling on the warm remote session's
#: ``prefetch_bytes`` per ``prefetched`` entry.  A full dump of the
#: generator program reads ~35 bytes per entry in packed trie frames
#: (protocol 1.10), where the withdrawn flat frames of 1.8 read ~54 and
#: nominal entries ~311, so a frame that grew back to that size fails
#: the gate.
PREFETCH_BYTES_PER_ENTRY_MAX = 48


def _remote_session(policy):
    """A fresh engine over its own generator PAG (CSR compiled before
    the clock starts) answers the NullDeref stream in
    :data:`REMOTE_BATCHES` batches; returns ``(seconds, answers,
    engine, first prefetch seconds)``, the last one the first batch's
    ``begin_batch`` (``None`` for a store without batch hooks).  A full
    cyclic-GC pass runs before the clock, so no session pays for
    garbage an earlier section left."""
    from repro.bench.batching import split_batches

    pag = load_benchmark("jython", config=GENERATOR_CONFIG).pag
    pag.csr()
    engine = PointsToEngine(pag, policy)
    client = CLIENTS["NullDeref"](pag)
    answers = []
    prefetches = []
    begin_batch = getattr(engine.cache, "begin_batch", None)
    if begin_batch is not None:

        def timed_begin_batch():
            started = time.perf_counter()
            begin_batch()
            prefetches.append(time.perf_counter() - started)

        engine.cache.begin_batch = timed_begin_batch
    gc.collect()
    started = time.perf_counter()
    for batch in split_batches(client.queries(), REMOTE_BATCHES):
        result = engine.query_batch(client.specs(batch), dedupe=False, reorder=False)
        answers.extend(result.results)
    elapsed = time.perf_counter() - started
    first_prefetch = prefetches[0] if prefetches else None
    return elapsed, _canonical(answers), engine, first_prefetch


def run_remote(log=lambda s: None):
    """Pipelined remote sessions against a cold local engine; the
    ``remote`` section.

    Two in-process shard servers; the generator program's
    NullDeref stream in the paper's 10 batches (:func:`_remote_session`),
    each session on a fresh engine under the default impl: ``cold``
    against the empty fleet, then ``warm`` against what the cold session
    flushed, then :data:`REWARM_SESSIONS` ``rewarm`` sessions against
    the fleet the warm session left unchanged, beside
    ``local_cold_sec``, the same stream on a fresh engine with a plain
    store.  ``first_prefetch_sec`` is the first batch's
    ``begin_batch``, which loads a fresh engine's full dumps.  The
    rewarm row reports the median ``sec`` and ``first_prefetch_sec``
    of its ``sessions`` and one session's counters, which every one of
    them must equal.  ``lookups`` counts the ``lookup`` round
    trips answered (remote hits plus misses), ``prefetch_bytes`` the
    size of the ``fetch-methods-result`` lines the session decoded,
    ``held`` the prefetched entries the local tier held in the kernel
    and ``built`` those it later built in Python (both off the wire:
    they are the tier's counters, not ``RemoteStoreStats``), and
    ``dumps_packed``/``dumps_kept`` each shard's full dumps scanned and
    encoded, and answered from its kept line, during the session.
    Answers must equal the local engine's, and the rewarm sessions must
    do equal work; a violation raises :class:`PerfCheckError`
    regardless of ``--check`` (which also gates on no lookups in any
    session, on the warm session's prefetch bytes per prefetched
    entry, on every shard answering the rewarm session's full dump
    from its kept line and, with the kernel loaded, on
    ``native_unavailable`` being null and on the warm and rewarm
    sessions holding every prefetched entry and building none).
    """
    from repro.cacheserver.server import ShardServer
    from repro.engine.policy import CachePolicy

    local_sec, want, _engine, _none = _remote_session(bench_engine_policy())
    servers = [ShardServer(i, 2).start() for i in range(2)]
    try:
        policy = bench_engine_policy(
            cache=CachePolicy(
                remote=tuple(server.address for server in servers),
                remote_timeout=5.0,
            )
        )
        sessions = {}
        for name in REMOTE_SESSIONS:
            rows = []
            for _ in range(REWARM_SESSIONS if name == "rewarm" else 1):
                row, stats = _remote_row(name, policy, servers, want)
                rows.append(row)
            row = rows[0]
            for other in rows[1:]:
                if _work(other) != _work(row):
                    raise PerfCheckError(
                        f"remote {name} sessions did different work: "
                        f"{_work(row)} then {_work(other)}"
                    )
            if len(rows) > 1:
                row["sessions"] = len(rows)
                for key in ("sec", "first_prefetch_sec"):
                    row[key] = round(statistics.median(r[key] for r in rows), 6)
            sessions[name] = row
    finally:
        for server in servers:
            server.stop()
    section = {
        "workload": "generator",
        "client": "NullDeref",
        "queries": len(want),
        "batches": REMOTE_BATCHES,
        "shards": len(servers),
        "local_cold_sec": round(local_sec, 6),
        "traversal_impl": stats.traversal_impl,
        **sessions,
    }
    log(
        f"  local cold={local_sec * 1000:7.1f}ms  "
        + "  ".join(
            f"{name}={row['sec'] * 1000:.1f}ms (first prefetch "
            f"{row['first_prefetch_sec'] * 1000:.1f}ms, {row['round_trips']} round "
            f"trips, {row['lookups']} lookups)"
            for name, row in sessions.items()
        )
        + f"  native_unavailable={sessions['warm']['native_unavailable']}"
    )
    return section


#: A remote session row's timings; every other field is its work.
_TIMINGS = ("sec", "first_prefetch_sec")


def _work(row):
    return {key: value for key, value in row.items() if key not in _TIMINGS}


def _remote_row(name, policy, servers, want):
    """One remote session's row (see :func:`run_remote`) and its
    engine's stats."""
    packed = [server.dumps_packed for server in servers]
    kept = [server.dumps_kept for server in servers]
    sec, answers, engine, first_prefetch = _remote_session(policy)
    engine.cache.close()
    if answers != want:
        raise PerfCheckError(
            f"remote {name} session answers differ from a local engine's"
        )
    stats = engine.stats()
    remote = stats.remote
    tier = engine.cache.local_tier
    row = {
        "sec": round(sec, 6),
        "first_prefetch_sec": round(first_prefetch, 6),
        "round_trips": remote.round_trips,
        "lookups": remote.remote_hits + remote.remote_misses,
        "prefetched": remote.prefetched,
        "prefetch_bytes": remote.prefetch_bytes,
        "stores": remote.stores,
        "steps": stats.steps,
        "native_unavailable": stats.native_unavailable,
        "held": tier.held,
        "built": tier.built,
        "dumps_packed": [
            server.dumps_packed - before for server, before in zip(servers, packed)
        ],
        "dumps_kept": [
            server.dumps_kept - before for server, before in zip(servers, kept)
        ],
    }
    return row, stats


#: Codec traffic: request lines per cycle (serve-ide's cycle length),
#: the share of invalidates among them, and the cycle's seed.
CODEC_LINES = 2000
CODEC_INVALIDATE_SHARE = 0.05
CODEC_SEED = 1
#: ``--check``'s ceiling on ``decode_response`` over ``json.loads`` of
#: the same lines: an interpretive codec, which works each message's
#: schema out again per value, reads 12-13x here; the compiled one
#: reads 3-4x.
CODEC_DECODE_RATIO_MAX = 6.0


def _codec_traffic():
    """``[(request line, response line)]`` shaped like serve-ide's
    cycle: SafeCast and NullDeref queries on the generator program with
    their client payloads, in seeded order, with a
    :data:`CODEC_INVALIDATE_SHARE` of invalidates of queried methods,
    answered by an in-process service."""
    from repro.api.codec import encode
    from repro.api.protocol import InvalidateRequest, QueryRequest
    from repro.api.service import PointsToService

    pag = load_benchmark("jython", config=GENERATOR_CONFIG).pag
    service = PointsToService(PointsToEngine(pag, bench_engine_policy()))
    pool = [
        query
        for name in ("SafeCast", "NullDeref")
        for query in CLIENTS[name](pag).queries()
    ]
    rng = random.Random(CODEC_SEED)
    queried, traffic = [], []
    for _ in range(CODEC_LINES):
        if queried and rng.random() < CODEC_INVALIDATE_SHARE:
            request = InvalidateRequest(method=rng.choice(queried))
        else:
            query = rng.choice(pool)
            queried.append(query.method)
            request = QueryRequest(
                method=query.method, var=query.var, client=query.client,
                payload=tuple(query.payload),
            )
        line = encode(request)
        traffic.append((line, service.handle_line(line)))
    return traffic


def _per_line(fn, items, passes):
    """Seconds per item of ``passes`` passes of ``fn`` over ``items``."""
    started = time.perf_counter()
    for _pass in range(passes):
        for item in items:
            fn(item)
    return (time.perf_counter() - started) / (passes * len(items))


def run_codec(reps, passes, log=lambda s: None):
    """The codec section: each codec call of one exchange, per line,
    beside the bare ``json`` call on the same lines (best of ``reps``
    interleaved reps of ``passes`` passes).  Decoded messages must
    re-encode to the very lines they came from; a violation raises
    :class:`PerfCheckError` regardless of ``--check``."""
    from repro.api.codec import decode_request, decode_response, encode

    traffic = _codec_traffic()
    requests = [request for request, _ in traffic]
    responses = [response for _, response in traffic]
    decoded_requests = [decode_request(line) for line in requests]
    decoded_responses = [decode_response(line) for line in responses]
    for lines, decoded in (
        (requests, decoded_requests),
        (responses, decoded_responses),
    ):
        if [encode(message) for message in decoded] != lines:
            raise PerfCheckError("decoded messages do not re-encode to their lines")
    canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    # One exchange in wire order: (name, codec call and its inputs, the
    # bare json call and its inputs).
    ops = (
        ("decode_request", decode_request, requests, json.loads, requests),
        ("encode_response", encode, decoded_responses,
         canonical, [json.loads(line) for line in responses]),
        ("decode_response", decode_response, responses, json.loads, responses),
        ("encode_request", encode, decoded_requests,
         canonical, [json.loads(line) for line in requests]),
    )
    best = {}
    for _rep in range(reps):
        for name, codec_fn, codec_in, json_fn, json_in in ops:
            for key, fn, items in (
                ((name, "codec"), codec_fn, codec_in),
                ((name, "json"), json_fn, json_in),
            ):
                elapsed = _per_line(fn, items, passes)
                best[key] = min(best.get(key, elapsed), elapsed)
    section = {
        "workload": "generator",
        "clients": ["SafeCast", "NullDeref"],
        "lines": len(traffic),
        "invalidates": sum(
            1 for line in requests if '"kind":"invalidate"' in line
        ),
        "request_bytes": round(sum(map(len, requests)) / len(traffic), 1),
        "response_bytes": round(sum(map(len, responses)) / len(traffic), 1),
        "reps": reps,
        "passes": passes,
        # Codec time per rep: what the ratio gate judges a sweep on.
        "measured_sec": round(
            sum(best[op[0], "codec"] for op in ops) * len(traffic) * passes, 6
        ),
    }
    for name, *_calls in ops:
        codec_s, json_s = best[name, "codec"], best[name, "json"]
        section[name] = {
            "codec_us": round(codec_s * 1e6, 3),
            "json_us": round(json_s * 1e6, 3),
            "ratio": round(codec_s / json_s, 3),
        }
        log(
            f"  {name:16s} {codec_s * 1e6:7.2f}us  json {json_s * 1e6:6.2f}us  "
            f"({section[name]['ratio']}x)"
        )
    return section


def run_profile(benchmarks, scale, top=12):
    """cProfile one figure4 pass; returns the top-N rows."""
    name = benchmarks[0]
    instance = load_benchmark(name, scale=scale)
    client = CLIENTS["SafeCast"](instance.pag)
    nodes = [query.node(instance.pag) for query in client.queries()]
    analysis = DynSum(instance.pag, bench_analysis_config())
    profiler = cProfile.Profile()
    profiler.enable()
    for node in nodes:
        analysis.points_to(node)
    profiler.disable()
    stats = pstats.Stats(profiler)
    rows = []
    entries = sorted(
        stats.stats.items(), key=lambda item: item[1][2], reverse=True
    )
    for (filename, lineno, function), row in entries[:top]:
        cc, ncalls, tottime, cumtime, _callers = row
        rows.append(
            {
                "function": f"{filename.rsplit('/', 1)[-1]}:{lineno}({function})",
                "ncalls": ncalls,
                "tottime_sec": round(tottime, 6),
                "cumtime_sec": round(cumtime, 6),
            }
        )
    return rows


def run_perf(
    quick=False,
    check=False,
    rounds=None,
    reps=None,
    scale=1.0,
    benchmarks=None,
    clients=None,
    impls=None,
    profile_top=12,
    log=lambda s: None,
):
    """Run the whole harness; returns the report dict.

    ``check`` additionally gates on the invariants (answers identical,
    steps equal — always asserted — plus recorded throughput, the array
    and native loops clearing their baselines, a warm start with one
    CSR compile and no adjacency compile, edits with no full-solve
    fallback and one CSR compile each, remote sessions with no
    ``lookup`` round trip that run on the kernel when it loads, a
    rewarm session every shard answers from its kept full dump, client
    decoding within :data:`CODEC_DECODE_RATIO_MAX` of ``json.loads``,
    and sub-linear eviction cost).
    """
    benchmarks = tuple(benchmarks or (("jython",) if quick else FIGURE_BENCHMARKS))
    clients = tuple(clients or (("SafeCast",) if quick else ("SafeCast", "NullDeref")))
    impls = tuple(impls or OPTIMIZED_IMPLS)
    if "native" in impls:
        # Timing "native" without a loadable kernel would silently
        # measure the array fallback; drop it from the sweep instead
        # and say why.
        from repro.native import availability

        native_ok, native_reason = availability()
        if not native_ok:
            log(f"native kernel unavailable ({native_reason}); sweeping without it")
            impls = tuple(impl for impl in impls if impl != "native")
    rounds = rounds if rounds is not None else (2 if quick else 3)
    reps = reps if reps is not None else (MIN_GATED_REPS if quick else 7)
    log(f"figure4 workloads ({'/'.join(impls)} vs reference, persistent engine):")
    figure4 = run_figure4(
        benchmarks, clients, rounds, reps, scale, impls=impls, log=log
    )
    log("warmstart (JSON snapshot, default impl):")
    warmstart = run_warmstart(rounds=rounds, log=log)
    log("edits (edit-storm's edit/revert cycle, program-backed engine):")
    edits = run_edits(rounds=3 if quick else 10, log=log)
    log("eviction (LRU store, one eviction per store):")
    eviction = run_eviction(
        EVICTION_SIZES_QUICK if quick else EVICTION_SIZES,
        inserts=500 if quick else 2_000,
        log=log,
    )
    log("chaos (seeded fault schedules vs the shared-cache service):")
    chaos = run_chaos(quick=quick, log=log)
    log("remote (pipelined sessions on a 2-shard fleet vs a cold local engine):")
    remote = run_remote(log=log)
    log("codec (serve-ide-shaped lines, each call beside bare json):")
    codec = run_codec(reps=reps, passes=2 if quick else 5, log=log)
    profile = run_profile(benchmarks, scale, top=profile_top)
    report = {
        "protocol": "repro-perf",
        # Version 3 adds the native-kernel column (speedup_native /
        # native_vs_array) to figure4 rows and aggregates; version 4
        # adds the chaos soak section (seeded fault schedules against
        # the shared-cache service); version 5 drops the record loop's
        # column and the two ratios taken against it, with that loop;
        # version 6 times the warm start from a JSON snapshot under the
        # default impl and replaces its CSR-adoption flag with the
        # ``traversal_impl``/``native_unavailable`` it ran under; version
        # 7 adds the edits section (edit-storm's cycle on the generator
        # program); version 8 adds its CSR patches and kernel-mirror
        # imports per edit; version 9 adds the remote section (cold and
        # warm pipelined sessions on a shard fleet vs a cold local
        # engine); version 10 adds the codec section (each codec call of
        # a serve-ide exchange beside bare json on the same lines);
        # version 11 adds each remote session's ``prefetch_bytes``;
        # version 12 adds the rewarm session and each session's shard
        # dumps packed and kept; version 13 adds each remote session's
        # entries held in the kernel and built in Python; version 14
        # times the LRU store's evictions; version 15 runs a full GC
        # pass before each remote session, reports the rewarm session
        # as the median of REWARM_SESSIONS, and adds each session's
        # ``first_prefetch_sec``.
        "version": 15,
        "quick": quick,
        "python": sys.version.split()[0],
        "figure4": figure4,
        "warmstart": warmstart,
        "edits": edits,
        "eviction": eviction,
        "chaos": chaos,
        "remote": remote,
        "codec": codec,
        "profile": profile,
    }
    if check:
        _check_report(report)
        report["checked"] = True
    return report


def _check_report(report):
    """The ``--check`` invariants (no absolute-time gating)."""
    workloads = report["figure4"]["workloads"]
    if not workloads:
        raise PerfCheckError("figure4 sweep produced no workloads")
    for row in workloads:
        for impl in OPTIMIZED_IMPLS:
            if impl in row and row[impl]["steps_per_sec"] <= 0:
                raise PerfCheckError(
                    f"{row['benchmark']}: no {impl} throughput recorded"
                )
    aggregate = report["figure4"]["aggregate"]
    speedups = [
        aggregate.get(key) for key in ("speedup_array", "speedup_native")
        if key in aggregate
    ]
    if not speedups or any(not s or s <= 0 for s in speedups):
        raise PerfCheckError("aggregate speedup not recorded")
    # The array loop must clear the reference interpreter by a wide
    # margin in the *same* run (same host, interleaved timing).  Ratio
    # gates only fire on sweeps that can carry a ratio: best-of
    # at least MIN_GATED_REPS interleaved reps (one sample per impl is
    # a coin flip on a loaded host — single-rep sweeps measured array
    # at 0.82x reference where best-of-3 gives 2x) and enough measured
    # time — a sub-50ms micro-sweep (single tiny workload at a small
    # --scale) is scheduler jitter, not a regression signal.
    gated = report["figure4"].get("reps", 0) >= MIN_GATED_REPS
    measured = aggregate.get("time_sec_reference") or 0.0
    if gated and measured >= 0.05:
        if "speedup_array" in aggregate and aggregate["speedup_array"] < 1.5:
            raise PerfCheckError(
                f"array speedup over reference fell to "
                f"{aggregate['speedup_array']}x (< 1.5x)"
            )
    # The C kernel's whole reason to exist is clearing the best
    # pure-Python loop by a wide margin in the same interleaved run.
    # Its gate keys on the *array* total: below ~50ms of pure-Python
    # loop time the workloads are so small that the kernel's fixed
    # per-query crossing cost dominates and the ratio measures FFI
    # overhead, not traversal throughput.
    if gated and (aggregate.get("time_sec_array") or 0.0) >= 0.05:
        if "native_vs_array" in aggregate and aggregate["native_vs_array"] < 1.5:
            raise PerfCheckError(
                f"native kernel speedup over the array loop fell to "
                f"{aggregate['native_vs_array']}x (< 1.5x)"
            )
    warmstart = report.get("warmstart")
    if warmstart is not None and (
        warmstart["csr_compiles"] != 1 or warmstart["adjacency_compiles"]
    ):
        raise PerfCheckError(
            "warm start must compile its CSR image once and adjacency never"
        )
    edits = report.get("edits")
    if edits is not None:
        if edits["rebuilt"]:
            raise PerfCheckError(
                f"{edits['rebuilt']} of {edits['edits']} edits fell back "
                "to a full solve; edit-storm's edits keep the call graph"
            )
        if edits["csr_compiles_per_edit"] != [0]:
            raise PerfCheckError(
                f"edits compiled the CSR image {edits['csr_compiles_per_edit']} "
                "times each (want 0: an edit patches the image)"
            )
        if edits.get("csr_patches_per_edit") != [1]:
            raise PerfCheckError(
                f"edits patched the CSR image {edits.get('csr_patches_per_edit')} "
                "times each (want exactly 1)"
            )
        from repro.native import availability

        if edits.get("traversal_impl") == "native" and availability()[0]:
            if edits.get("mirror_imported_per_edit") != [0]:
                raise PerfCheckError(
                    "edits re-imported the kernel's summary mirror "
                    f"({edits.get('mirror_imported_per_edit')} entries each; "
                    "want 0: the rebound graph keeps it)"
                )
    chaos = report.get("chaos")
    if chaos is not None:
        if not chaos["schedules"]:
            raise PerfCheckError("chaos soak ran no schedules")
        for row in chaos["schedules"]:
            if not row["identical"]:
                raise PerfCheckError(
                    f"chaos seed {row['seed']} changed answers "
                    f"({row['spec']}); faults must only move cost"
                )
            if row["faults"] <= 0:
                raise PerfCheckError(
                    f"chaos seed {row['seed']} injected nothing "
                    f"({row['spec']}); the soak measured a clean run"
                )
    remote = report.get("remote")
    if remote is not None:
        from repro.native import availability

        for name in REMOTE_SESSIONS:
            row = remote[name]
            if row["lookups"]:
                raise PerfCheckError(
                    f"remote {name} session sent {row['lookups']} lookups "
                    "(want 0: the batch prefetch answers every shard)"
                )
            if (
                remote.get("traversal_impl") == "native"
                and availability()[0]
                and row["native_unavailable"] is not None
            ):
                raise PerfCheckError(
                    f"remote {name} session ran off the kernel "
                    f"({row['native_unavailable']})"
                )
        # Only the warm session's first prefetch is a full dump; the
        # cold session's answers are deltas whose size says nothing
        # about framing.
        warm = remote["warm"]
        if warm["prefetch_bytes"] > PREFETCH_BYTES_PER_ENTRY_MAX * warm["prefetched"]:
            raise PerfCheckError(
                f"remote warm session read {warm['prefetch_bytes']} "
                f"prefetch bytes for {warm['prefetched']} entries (over "
                f"{PREFETCH_BYTES_PER_ENTRY_MAX} per entry: the answers "
                "are not framed, or not as a trie)"
            )
        # The warm session wrote nothing, so each shard still has the
        # full dump it packed for it and answers every rewarm session's
        # with it.
        rewarm = remote["rewarm"]
        if any(rewarm["dumps_packed"]) or not all(rewarm["dumps_kept"]):
            raise PerfCheckError(
                f"remote rewarm session's full dumps were packed "
                f"{rewarm['dumps_packed']} and kept {rewarm['dumps_kept']} "
                "times per shard (want every shard's from its kept line)"
            )
        # A warm session's prefetch lands in an empty tier, in batches
        # that run on the kernel: all of it is held, and nothing in the
        # session reads a summary back in Python.
        if remote.get("traversal_impl") == "native" and availability()[0]:
            for name in ("warm", "rewarm"):
                row = remote[name]
                if row["held"] != row["prefetched"] or row["built"]:
                    raise PerfCheckError(
                        f"remote {name} session held {row['held']} of its "
                        f"{row['prefetched']} prefetched entries and built "
                        f"{row['built']} (want every one held, none built)"
                    )
    codec = report.get("codec")
    # The same rule as the figure4 ratio gates: best-of at least
    # MIN_GATED_REPS reps, and enough measured time to carry a ratio.
    if (
        codec is not None
        and codec["reps"] >= MIN_GATED_REPS
        and codec["measured_sec"] >= 0.05
        and codec["decode_response"]["ratio"] > CODEC_DECODE_RATIO_MAX
    ):
        raise PerfCheckError(
            f"decode_response costs {codec['decode_response']['ratio']}x "
            f"json.loads of the same lines (> {CODEC_DECODE_RATIO_MAX}x)"
        )
    flatness = report["eviction"]["flatness_ratio"]
    # An O(1) victim over two orders of magnitude of store size stays
    # within a small constant; an O(n) victim scan blows through it by
    # orders of magnitude.
    if flatness is None or flatness > 8.0:
        raise PerfCheckError(
            f"eviction cost is not flat across store sizes "
            f"(ratio {flatness}); the victim choice has regressed"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="wall-clock perf harness: steps/sec array/native "
        "vs reference, warm starts, eviction scaling, cProfile top-N",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep for CI smoke (one benchmark, fewer reps)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate on invariants (identical answers, equal steps, "
        "recorded throughput, flat eviction); exits non-zero on failure",
    )
    parser.add_argument("--output", metavar="PATH", default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--benchmarks", metavar="NAME,NAME,...", default=None,
        help=f"figure benchmarks to sweep (default: {','.join(FIGURE_BENCHMARKS)})",
    )
    parser.add_argument(
        "--clients", metavar="NAME,NAME,...", default=None,
        help="clients to sweep (default: SafeCast,NullDeref)",
    )
    parser.add_argument(
        "--traversal-impl", metavar="NAME,NAME,...", default=None,
        help="optimized traversal impls to time against reference "
        f"(default: {','.join(OPTIMIZED_IMPLS)})",
    )
    parser.add_argument("--profile-top", type=int, default=12)
    args = parser.parse_args(argv)
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    clients = args.clients.split(",") if args.clients else None
    impls = args.traversal_impl.split(",") if args.traversal_impl else None
    if impls and any(impl not in OPTIMIZED_IMPLS for impl in impls):
        parser.error(
            f"--traversal-impl must name impls from "
            f"{{{','.join(OPTIMIZED_IMPLS)}}}"
        )
    try:
        report = run_perf(
            quick=args.quick,
            check=args.check,
            rounds=args.rounds,
            reps=args.reps,
            scale=args.scale,
            benchmarks=benchmarks,
            clients=clients,
            impls=impls,
            profile_top=args.profile_top,
            log=lambda line: print(line, file=sys.stderr),
        )
    except PerfCheckError as exc:
        print(f"repro-perf: CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    aggregate = report["figure4"]["aggregate"]
    parts = []
    if "speedup_array" in aggregate:
        parts.append(f"array {aggregate['speedup_array']}x")
    if "speedup_native" in aggregate:
        parts.append(f"native {aggregate['speedup_native']}x")
    if "native_vs_array" in aggregate:
        parts.append(f"native/array {aggregate['native_vs_array']}x")
    warmstart = report["warmstart"]
    edits = report["edits"]
    remote = report["remote"]
    print(
        f"aggregate speedup over reference: {', '.join(parts)}; "
        f"warm start {warmstart['speedup']}x total, "
        f"{warmstart['query_speedup']}x serving; "
        f"edit {edits['edit_ms']}ms + batch {edits['batch_ms']}ms; "
        f"remote warm {remote['warm']['sec']}s, rewarm "
        f"{remote['rewarm']['sec']}s vs local cold "
        f"{remote['local_cold_sec']}s; "
        f"decode_response {report['codec']['decode_response']['ratio']}x "
        f"json.loads; "
        f"eviction flatness {report['eviction']['flatness_ratio']}",
        file=sys.stderr,
    )
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
