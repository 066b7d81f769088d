"""Benchmarking enumeration with and without pruning.

The harness mirrors the evaluation protocol: for each problem, budget,
and repetition it prunes (time charged against the budget), enumerates
MUSes for the remainder, inside the kept clauses first and then over
the whole formula, and audits a sample for validity. Reports aggregate
MUS counts as mean +/- standard error.
"""

import os
import tempfile

from musprune import gen_sr_random, write_dimacs
from musprune.bench import (BenchConfig, PrunerSpec, emit_report,
                            report_to_markdown, run_benchmark, scatter_pairs)

with tempfile.TemporaryDirectory(prefix="musprune_demo_") as workdir:
    paths = []
    for i in range(6):
        f = gen_sr_random(12, seed=(9, i))
        path = os.path.join(workdir, f"{i:03d}.cnf")
        with open(path, "w") as fh:
            fh.write(write_dimacs(f))
        paths.append(path)

    config = BenchConfig(
        problems=tuple(paths),
        pruners=(PrunerSpec(kind="none"), PrunerSpec(kind="var_freq", k=10)),
        budgets=(0.5, 1.0),
        repetitions=2,
        seed=0,
    )
    report = run_benchmark(config)

    print(report_to_markdown(report))
    for row in report.aggregates:
        if row.repetition is None:
            print(f"{row.pruner:18s} budget={row.budget:>4}s  "
                  f"mean={row.mean_mus:7.2f}  +/- {row.stderr_mus:5.2f}  "
                  f"({row.runs} runs)")

    print("\nper-problem baseline-vs-pruned pairs:")
    for pair in scatter_pairs(report)[:4]:
        print(f"  {os.path.basename(pair['problem'])} @ {pair['budget']}s: "
              f"{pair['baseline_count']:.1f} -> {pair['pruned_count']:.1f}")

    written = emit_report(report, ["csv", "json", "markdown"],
                          os.path.join(workdir, "report"))
    print("\nreports written (removed when the demo exits):")
    for path in written:
        print(" ", path)
