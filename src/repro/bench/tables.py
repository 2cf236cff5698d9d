"""Plain-text renderers for every table and figure of the paper.

Each formatter consumes the runner's result objects and prints rows in
the paper's layout, so the artifacts listed in README's "Reproducing the
paper" section regenerate mechanically and paper-vs-measured comparisons
stay side by side.
"""


def _render(headers, rows):
    widths = [len(h) for h in headers]
    str_rows = []
    for row in rows:
        cells = [str(cell) for cell in row]
        str_rows.append(cells)
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for cells in str_rows:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(cells))))
    return "\n".join(lines)


def format_capability_table(analyses):
    """Table 2: strengths and weaknesses of the four analyses."""
    headers = ["Algorithm", "Full Precision", "Memorization", "Reuse", "On-Demandness"]
    rows = []
    for analysis in analyses:
        caps = analysis.capabilities()
        rows.append(
            (
                caps["analysis"],
                "Yes" if caps["full_precision"] else "No",
                caps["memoization"],
                caps["reuse"],
                caps["on_demand"],
            )
        )
    return _render(headers, rows)


def format_table3(stats_rows, query_counts):
    """Table 3: benchmark statistics.

    ``stats_rows`` — list of :class:`~repro.pag.stats.PagStatistics`;
    ``query_counts`` — mapping benchmark name -> {client name: count}.
    """
    headers = [
        "Benchmark",
        "#Methods",
        "O",
        "V",
        "G",
        "new",
        "assign",
        "load",
        "store",
        "entry",
        "exit",
        "assignglobal",
        "Locality",
        "SafeCast",
        "NullDeref",
        "FactoryM",
    ]
    rows = []
    for stats in stats_rows:
        counts = query_counts.get(stats.name, {})
        rows.append(
            stats.as_row()
            + (
                counts.get("SafeCast", 0),
                counts.get("NullDeref", 0),
                counts.get("FactoryM", 0),
            )
        )
    return _render(headers, rows)


def format_table4(runs, benchmarks, clients, analyses, use_steps=False):
    """Table 4: analysis cost per (client, benchmark, analysis).

    ``runs`` — iterable of :class:`~repro.bench.runner.ClientRun`.
    Values are seconds (3 decimals) or raw step counts.
    """
    by_key = {(r.client, r.analysis, r.benchmark): r for r in runs}
    blocks = []
    for client in clients:
        headers = [client] + list(benchmarks)
        rows = []
        for analysis in analyses:
            cells = [analysis]
            for benchmark in benchmarks:
                run = by_key.get((client, analysis, benchmark))
                if run is None:
                    cells.append("-")
                elif use_steps:
                    cells.append(str(run.steps))
                else:
                    cells.append(f"{run.time_sec:.3f}")
            rows.append(cells)
        blocks.append(_render(headers, rows))
    return "\n\n".join(blocks)


def format_speedup_summary(runs, baseline, subject, clients, benchmarks, use_steps=True):
    """Average per-client speedups of ``subject`` over ``baseline`` —
    the paper's headline 1.95x / 2.28x / 1.37x numbers."""
    by_key = {(r.client, r.analysis, r.benchmark): r for r in runs}
    lines = []
    for client in clients:
        ratios = []
        for benchmark in benchmarks:
            base = by_key.get((client, baseline, benchmark))
            subj = by_key.get((client, subject, benchmark))
            if base is None or subj is None:
                continue
            denom = subj.steps if use_steps else subj.time_sec
            numer = base.steps if use_steps else base.time_sec
            if denom:
                ratios.append(numer / denom)
        if ratios:
            geomean = 1.0
            for ratio in ratios:
                geomean *= ratio
            geomean **= 1.0 / len(ratios)
            lines.append(
                f"{client}: {subject} vs {baseline} "
                f"avg {sum(ratios) / len(ratios):.2f}x (geomean {geomean:.2f}x) "
                f"over {len(ratios)} benchmark(s)"
            )
    return "\n".join(lines)


def format_figure4(series_list, n_batches=10):
    """Figure 4: per-batch DYNSUM time normalized to REFINEPTS.

    ``series_list`` — list of ``(dynsum_series, refine_series)`` pairs.
    """
    headers = ["benchmark/client"] + [f"b{i + 1}" for i in range(n_batches)]
    rows = []
    for dynsum_series, refine_series in series_list:
        label = f"{dynsum_series.benchmark}/{dynsum_series.client}"
        cells = [label]
        for dyn, ref in zip(dynsum_series.batch_steps, refine_series.batch_steps):
            cells.append(f"{dyn / ref:.2f}" if ref else "-")
        rows.append(cells)
    return _render(headers, rows)


def format_figure5(series_list, n_batches=10):
    """Figure 5: cumulative DYNSUM summaries as % of STASUM's.

    ``series_list`` — list of ``(dynsum_series, stasum_total)`` pairs.
    """
    headers = ["benchmark/client"] + [f"b{i + 1}" for i in range(n_batches)]
    rows = []
    for series, stasum_total in series_list:
        label = f"{series.benchmark}/{series.client}"
        cells = [label]
        for count in series.summary_counts:
            if stasum_total:
                cells.append(f"{100.0 * count / stasum_total:.1f}%")
            else:
                cells.append("-")
        rows.append(cells)
    return _render(headers, rows)
