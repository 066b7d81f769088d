"""Benchmark harness: MUS enumeration with and without pruning under a
wall-clock budget, with pruning time charged against the budget.

A run prunes the problem, enumerates MUSes on the pruned formula for the
remaining budget, lifts them back to the original clause indices, and
audits a sample of the lifted MUSes for validity against the original
formula. Reports aggregate the MUS counts as mean +/- standard error and
serialize to CSV, JSON, or a markdown table.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .cnf import CnfFormula, parse_dimacs, write_dimacs
from .model import load_checkpoint, score_clauses
from .mus import EnumerationTrace, MusRecord, enumerate_marco, is_mus, lift_muses
from .pruning import (PruneOutcome, clause_length_prune, none_prune,
                      random_prune, threshold_prune, variable_frequency_prune)
from .sat import SatEngine


@dataclass(frozen=True)
class PrunerSpec:
    kind: str = "none"             # none|model|clause_length|var_freq|random
    checkpoint: str | None = None  # model
    k: int = 10                    # model / var_freq threshold parameter
    steps: int = 100               # clause_length grid steps
    fraction: float = 0.1          # random

    def label(self) -> str:
        if self.kind == "model":
            return f"model(k={self.k})"
        if self.kind == "clause_length":
            return f"clause_length(K={self.steps})"
        if self.kind == "var_freq":
            return f"var_freq(k={self.k})"
        if self.kind == "random":
            return f"random(f={self.fraction})"
        return "none"


@dataclass(frozen=True)
class EnumeratorSpec:
    kind: str = "internal_marco"   # internal_marco|external
    command: str | None = None     # template with {dimacs} and {budget}


@dataclass(frozen=True)
class BenchConfig:
    problems: tuple[str, ...]                  # DIMACS file paths
    pruners: tuple[PrunerSpec, ...] = (PrunerSpec(),)
    enumerator: EnumeratorSpec = EnumeratorSpec()
    budgets: tuple[float, ...] = (1.0,)
    repetitions: int = 1
    seed: int = 0
    audit_sample: int = 3          # lifted MUSes audited per run

    def __post_init__(self):
        if not self.problems:
            raise ValueError("problem set is empty")
        if any(b <= 0 for b in self.budgets):
            raise ValueError("budgets must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class RunRecord:
    problem: str
    pruner: str
    budget: float
    repetition: int
    status: str = "ok"             # ok|skipped|enum_error
    reason: str = ""
    mus_count: int = 0
    kept_fraction: float = 1.0
    prune_sat_calls: int = 0
    prune_time: float = 0.0
    enum_time: float = 0.0
    seeds_tested: int = 0
    exhausted: bool = False
    audit_checked: int = 0
    audit_ok: bool = True
    seed: int = 0


@dataclass
class AggregateRow:
    pruner: str
    budget: float
    repetition: int | None         # None = pooled over repetitions
    mean_mus: float
    stderr_mus: float
    runs: int


@dataclass
class BenchReport:
    config: BenchConfig
    records: list[RunRecord] = field(default_factory=list)
    aggregates: list[AggregateRow] = field(default_factory=list)


def make_pruner(spec: PrunerSpec):
    """Build a callable pruner(formula, engine, seed) -> PruneOutcome."""
    if spec.kind == "none":
        return lambda formula, engine, seed: none_prune(formula, engine)
    if spec.kind == "clause_length":
        return lambda formula, engine, seed: clause_length_prune(
            formula, spec.steps, engine)
    if spec.kind == "var_freq":
        return lambda formula, engine, seed: variable_frequency_prune(
            formula, spec.k, engine)
    if spec.kind == "random":
        return lambda formula, engine, seed: random_prune(
            formula, spec.fraction, seed, engine)
    if spec.kind == "model":
        if spec.checkpoint is None:
            raise ValueError("model pruner requires a checkpoint path")
        params = load_checkpoint(spec.checkpoint)

        def model_pruner(formula, engine, seed):
            start = time.perf_counter()
            scores = score_clauses(params, formula, seed)
            outcome = threshold_prune(formula, scores, spec.k, engine)
            outcome.wall_time = time.perf_counter() - start
            return outcome

        return model_pruner
    raise ValueError(f"unknown pruner kind {spec.kind!r}")


def make_enumerator(spec: EnumeratorSpec):
    """Build a callable enumerator(formula, budget) -> EnumerationTrace."""
    if spec.kind == "internal_marco":
        return enumerate_marco
    if spec.kind == "external":
        if not spec.command:
            raise ValueError("external enumerator requires a command template")
        return _external_enumerator(spec.command)
    raise ValueError(f"unknown enumerator kind {spec.kind!r}")


_MUS_LINE = re.compile(r"^\s*\d+(\s+\d+)*\s*$")


def _external_enumerator(command_template: str):
    """Adapter for external enumerators invoked per problem.

    The command template receives {dimacs} (input path) and {budget}
    (seconds). Output lines consisting solely of whitespace-separated
    nonnegative integers are read as one MUS each (0-based clause indices
    into the input); all other lines are ignored. The command runs in its
    own session, so a timeout kills it together with any children.
    """

    def run(formula: CnfFormula, budget: float) -> EnumerationTrace:
        start = time.perf_counter()
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cnf", delete=False) as fh:
            fh.write(write_dimacs(formula))
            path = fh.name
        try:
            cmd = command_template.format(dimacs=path, budget=budget)
            with subprocess.Popen(
                    cmd, shell=True, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True,
                    start_new_session=True) as proc:
                try:
                    output, _ = proc.communicate(timeout=budget + 5.0)
                except subprocess.TimeoutExpired:
                    # The unreaped shell keeps its process group alive.
                    os.killpg(proc.pid, signal.SIGKILL)
                    output, _ = proc.communicate()
            finished = proc.returncode == 0
            elapsed = time.perf_counter() - start
            muses = []
            for line in output.splitlines():
                if _MUS_LINE.match(line):
                    indices = frozenset(int(tok) for tok in line.split())
                    muses.append(MusRecord(indices))
            return EnumerationTrace(
                muses=muses,
                timestamps=[elapsed] * len(muses),
                seeds_tested=0,
                exhausted=finished,
            )
        finally:
            os.unlink(path)

    return run


def run_pipeline(problem: CnfFormula, pruner, enumerator, budget: float,
                 seed: int = 0, engine: SatEngine | None = None,
                 audit_sample: int = 3) -> RunRecord:
    """Prune, enumerate on the remainder of the budget, lift, audit."""
    engine = engine if engine is not None else SatEngine()
    record = RunRecord(problem="", pruner="", budget=budget,
                       repetition=0, seed=seed)
    outcome = pruner(problem, engine, seed)
    record.kept_fraction = outcome.kept_fraction
    record.prune_sat_calls = outcome.sat_calls
    record.prune_time = outcome.wall_time
    remaining = budget - outcome.wall_time
    if remaining <= 0:
        record.reason = "budget consumed by pruning"
        return record
    t0 = time.perf_counter()
    try:
        trace = enumerator(outcome.pruned, remaining)
    except ValueError as exc:
        record.status = "enum_error"
        record.reason = str(exc)
        record.enum_time = time.perf_counter() - t0
        return record
    record.enum_time = time.perf_counter() - t0
    lifted = lift_muses(trace, outcome.index_map)
    record.mus_count = len(lifted.muses)
    record.seeds_tested = lifted.seeds_tested
    record.exhausted = lifted.exhausted
    if lifted.muses and audit_sample > 0:
        rng = np.random.default_rng(seed)
        take = min(audit_sample, len(lifted.muses))
        picks = rng.choice(len(lifted.muses), size=take, replace=False)
        for i in picks:
            record.audit_checked += 1
            if not is_mus(problem, lifted.muses[int(i)].clause_indices,
                          engine=engine):
                record.audit_ok = False
    return record


def _aggregate(records: list[RunRecord]) -> list[AggregateRow]:
    rows: list[AggregateRow] = []
    keys = sorted({(r.pruner, r.budget) for r in records})
    for pruner, budget in keys:
        per_rep: dict[int, list[int]] = {}
        for r in records:
            if r.pruner == pruner and r.budget == budget and r.status == "ok":
                per_rep.setdefault(r.repetition, []).append(r.mus_count)
        pooled: list[int] = []
        for rep in sorted(per_rep):
            counts = per_rep[rep]
            pooled.extend(counts)
            rows.append(AggregateRow(
                pruner=pruner, budget=budget, repetition=rep,
                mean_mus=float(np.mean(counts)),
                stderr_mus=_stderr(counts), runs=len(counts)))
        if pooled:
            rows.append(AggregateRow(
                pruner=pruner, budget=budget, repetition=None,
                mean_mus=float(np.mean(pooled)),
                stderr_mus=_stderr(pooled), runs=len(pooled)))
    return rows


def _stderr(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Cartesian product problems x pruners x budgets x repetitions.

    Scheduling is deterministic given the seed; per-run seeds derive from
    (seed, problem, pruner, budget, repetition) indices. SAT problems are
    skipped with a reason. Runs are serial: every run gets the whole
    budget of one interpreter.
    """
    problems: list[tuple[str, CnfFormula | None, str]] = []
    screen_engine = SatEngine()
    for path in config.problems:
        with open(path, "rb") as fh:
            formula = parse_dimacs(fh.read())
        if screen_engine.is_satisfiable(formula):
            problems.append((path, None, "input satisfiable"))
        else:
            problems.append((path, formula, ""))

    pruner_fns = [(spec.label(), make_pruner(spec)) for spec in config.pruners]
    enumerator = make_enumerator(config.enumerator)

    records = []
    for pi, (path, formula, skip_reason) in enumerate(problems):
        for si, (label, fn) in enumerate(pruner_fns):
            for bi, budget in enumerate(config.budgets):
                for rep in range(config.repetitions):
                    run_seed = int(np.random.SeedSequence(
                        entropy=(config.seed, pi, si, bi, rep)
                    ).generate_state(1)[0])
                    if formula is None:
                        records.append(RunRecord(
                            problem=path, pruner=label, budget=budget,
                            repetition=rep, status="skipped",
                            reason=skip_reason, seed=run_seed))
                        continue
                    record = run_pipeline(formula, fn, enumerator, budget,
                                          seed=run_seed, engine=SatEngine(),
                                          audit_sample=config.audit_sample)
                    record.problem = path
                    record.pruner = label
                    record.repetition = rep
                    records.append(record)
    return BenchReport(config=config, records=records,
                       aggregates=_aggregate(records))


# ----------------------------------------------------------------------
# report emission

RECORD_COLUMNS = ["problem", "pruner", "budget", "repetition", "status",
                  "reason", "mus_count", "kept_fraction", "prune_sat_calls",
                  "prune_time", "enum_time", "seeds_tested", "exhausted",
                  "audit_checked", "audit_ok", "seed"]
AGGREGATE_COLUMNS = ["pruner", "budget", "repetition", "mean_mus",
                     "stderr_mus", "runs"]
# Fields that vary run to run on the same seed (excluded from
# reproducibility comparisons).
WALL_TIME_FIELDS = ("prune_time", "enum_time")


def records_to_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in report.records:
        writer.writerow({k: getattr(r, k) for k in RECORD_COLUMNS})
    return buf.getvalue()


def aggregates_to_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=AGGREGATE_COLUMNS,
                            lineterminator="\n")
    writer.writeheader()
    for row in report.aggregates:
        d = asdict(row)
        d["repetition"] = "all" if row.repetition is None else row.repetition
        writer.writerow(d)
    return buf.getvalue()


def report_to_json(report: BenchReport) -> str:
    payload = {
        "config": {
            "problems": list(report.config.problems),
            "pruners": [asdict(p) for p in report.config.pruners],
            "enumerator": asdict(report.config.enumerator),
            "budgets": list(report.config.budgets),
            "repetitions": report.config.repetitions,
            "seed": report.config.seed,
            "audit_sample": report.config.audit_sample,
        },
        "records": [asdict(r) for r in report.records],
        "aggregates": [asdict(a) for a in report.aggregates],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_markdown(report: BenchReport) -> str:
    """Summary table: one row per pruner configuration, one column per
    budget, cells mean +/- standard error (pooled repetitions)."""
    budgets = sorted({a.budget for a in report.aggregates})
    pruners = []
    for a in report.aggregates:
        if a.pruner not in pruners:
            pruners.append(a.pruner)
    header = "| Solver | " + " | ".join(f"{b:g} (s)" for b in budgets) + " |"
    sep = "|" + "---|" * (len(budgets) + 1)
    lines = [header, sep]
    pooled = {(a.pruner, a.budget): a for a in report.aggregates
              if a.repetition is None}
    for pruner in pruners:
        cells = []
        for b in budgets:
            a = pooled.get((pruner, b))
            cells.append(f"{a.mean_mus:.2f} ± {a.stderr_mus:.2f}" if a else "-")
        lines.append(f"| marco + {pruner} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def scatter_pairs(report: BenchReport, baseline: str | None = None) -> list[dict]:
    """Per-problem (baseline_count, pruned_count) pairs, averaged over
    repetitions, for scatter emission against the no-pruning baseline."""
    labels = []
    for r in report.records:
        if r.pruner not in labels:
            labels.append(r.pruner)
    if baseline is None:
        baseline = labels[0]
    per_key: dict[tuple[str, str, float], list[int]] = {}
    for r in report.records:
        if r.status == "ok":
            per_key.setdefault((r.problem, r.pruner, r.budget), []).append(
                r.mus_count)
    rows = []
    for label in labels:
        if label == baseline:
            continue
        for (problem, pruner, budget), counts in sorted(per_key.items()):
            if pruner != label:
                continue
            base = per_key.get((problem, baseline, budget))
            if base is None:
                continue
            rows.append({
                "problem": problem,
                "budget": budget,
                "baseline": baseline,
                "pruner": label,
                "baseline_count": float(np.mean(base)),
                "pruned_count": float(np.mean(counts)),
            })
    return rows


def emit_report(report: BenchReport, formats, out_prefix: str) -> list[str]:
    """Write the report in the requested formats; returns written paths."""
    written = []
    out_dir = os.path.dirname(out_prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for fmt in formats:
        if fmt == "csv":
            for suffix, text in (("records.csv", records_to_csv(report)),
                                 ("aggregates.csv", aggregates_to_csv(report))):
                path = f"{out_prefix}.{suffix}"
                with open(path, "w") as fh:
                    fh.write(text)
                written.append(path)
        elif fmt == "json":
            path = f"{out_prefix}.report.json"
            with open(path, "w") as fh:
                fh.write(report_to_json(report))
            written.append(path)
        elif fmt == "markdown":
            path = f"{out_prefix}.table.md"
            with open(path, "w") as fh:
                fh.write(report_to_markdown(report))
            written.append(path)
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    return written
