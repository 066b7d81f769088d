"""Benchmark harness: MUS enumeration with and without pruning under a
wall-clock budget, with pruning time charged against the budget.

A run prunes the problem, enumerates MUSes for the remaining budget, and
audits a sample of them for validity against the original formula.
``run_pipeline`` times the whole pruner call, scoring included, and
charges it to the budget. The internal MARCO runs once over the original
formula: inside the pruner's kept clauses first, then, once those hold
no more MUSes, over the whole formula. An external enumerator gets the
pruned formula only, and its MUSes are lifted back to the original
clause indices.

Each harness decision is made once, here: the pruner syntax and labels
(``PrunerSpec.parse`` and ``label``, driven by one table), the
enumerator (internal MARCO, or an external command template), and the
report formats (``REPORT_FORMATS``: CSV, JSON, a markdown table, and
per-problem scatter pairs against the first pruner). Reports aggregate
the MUS counts as mean +/- standard error.
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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cnf import CnfFormula, parse_dimacs, write_dimacs
from .model import load_checkpoint, score_clauses
from .mus import EnumerationTrace, MusRecord, enumerate_marco, is_mus, lift_muses
from .pruning import (PruneOutcome, clause_length_prune, none_prune,
                      random_prune, threshold_prune, variable_frequency_prune)
from .sat import SatEngine


# Pruner kind -> (the field its ":value" sets, that field's type, the
# field's short name in labels); None for a kind that takes no value.
_PRUNER_PARAMS = {
    "none": None,
    "model": ("k", int, "k"),
    "clause_length": ("steps", int, "K"),
    "var_freq": ("k", int, "k"),
    "random": ("fraction", float, "f"),
}


@dataclass(frozen=True)
class PrunerSpec:
    kind: str = "none"             # a key of _PRUNER_PARAMS
    checkpoint: str | None = None  # model
    k: int = 10                    # model / var_freq threshold parameter
    steps: int = 100               # clause_length grid steps
    fraction: float = 0.1          # random

    def __post_init__(self):
        if self.kind not in _PRUNER_PARAMS:
            raise ValueError(f"unknown pruner kind {self.kind!r}")
        if self.kind == "model" and not self.checkpoint:
            raise ValueError("model pruner requires a checkpoint path")
        if self.k < 1:
            raise ValueError(f"pruner {self.kind}: k must be >= 1")
        if self.steps < 1:
            raise ValueError(f"pruner {self.kind}: steps must be >= 1")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"pruner {self.kind}: fraction must be in [0, 1]")

    @classmethod
    def parse(cls, text: str) -> "PrunerSpec":
        """Read ``kind[:value]``, or ``model:<checkpoint>[:k]``; the value
        sets the field that :meth:`label` shows."""
        kind, _, value = text.partition(":")
        given = {}
        if kind == "model":
            path, sep, k = value.rpartition(":")
            path, value = (path, k) if sep and k.isdigit() else (value, "")
            given["checkpoint"] = path
        param = _PRUNER_PARAMS.get(kind)
        if value:
            if param is None:
                raise ValueError(f"malformed pruner {text!r}")
            given[param[0]] = param[1](value)
        return cls(kind, **given)

    def label(self) -> str:
        param = _PRUNER_PARAMS[self.kind]
        if param is None:
            return self.kind
        return f"{self.kind}({param[2]}={getattr(self, param[0])})"


@dataclass(frozen=True)
class BenchConfig:
    problems: tuple[str, ...]                  # DIMACS file paths
    pruners: tuple[PrunerSpec, ...] = (PrunerSpec(),)
    # Template with {dimacs} and {budget}; None runs the internal MARCO.
    external_command: str | None = None
    budgets: tuple[float, ...] = (1.0,)
    repetitions: int = 1
    seed: int = 0
    audit_sample: int = 3          # lifted MUSes audited per run

    def __post_init__(self):
        if not self.problems:
            raise ValueError("problem set is empty")
        if not self.pruners:
            raise ValueError("pruner list is empty")
        if not self.budgets:
            raise ValueError("budget list is empty")
        if self.external_command == "":
            raise ValueError("external enumerator requires a command template")
        if self.external_command is not None:
            _fill_template(self.external_command, "problem.cnf", 1.0)
            if math.inf in self.budgets:
                raise ValueError("an external enumerator needs finite budgets")
        if not all(b > 0 for b in self.budgets):  # NaN included
            raise ValueError("budgets must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.audit_sample < 0:
            raise ValueError("audit sample must be >= 0")


@dataclass
class RunRecord:
    problem: str
    pruner: str
    budget: float
    repetition: int
    status: str = "ok"             # ok|pruned_sat|skipped|enum_error
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
        return lambda formula, engine, seed: none_prune(formula)
    if spec.kind == "clause_length":
        return lambda formula, engine, seed: clause_length_prune(
            formula, spec.steps, engine)
    if spec.kind == "var_freq":
        return lambda formula, engine, seed: variable_frequency_prune(
            formula, spec.k, engine)
    if spec.kind == "random":
        return lambda formula, engine, seed: random_prune(
            formula, spec.fraction, seed, engine)
    params = load_checkpoint(spec.checkpoint)  # model
    return lambda formula, engine, seed: threshold_prune(
        formula, score_clauses(params, formula, seed), spec.k, engine)


_MUS_LINE = re.compile(r"^\s*\d+(\s+\d+)*\s*$")


def _fill_template(template: str, dimacs: str, budget: float) -> str:
    """The external command; a ValueError names a field it cannot fill."""
    try:
        return template.format(dimacs=dimacs, budget=budget)
    except KeyError as exc:
        raise ValueError(f"external command template {template!r}: unknown "
                         f"field {{{exc.args[0]}}}; its fields are {{dimacs}} "
                         f"and {{budget}}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(
            f"external command template {template!r}: {exc}") from None


def external_enumerator(command_template: str):
    """Adapter for external enumerators invoked per problem.

    The command template receives {dimacs} (input path) and {budget}
    (seconds). Output lines consisting solely of whitespace-separated
    nonnegative integers are read as one MUS each (0-based clause indices
    into the input; an index the input does not have raises ValueError);
    all other lines are ignored. The command runs in its own session, so
    a timeout kills it together with any children.
    """

    def run(formula: CnfFormula, budget: float) -> EnumerationTrace:
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cnf", delete=False) as fh:
            fh.write(write_dimacs(formula))
            path = fh.name
        try:
            cmd = _fill_template(command_template, path, budget)
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
            muses = []
            for line in output.splitlines():
                if _MUS_LINE.match(line):
                    indices = frozenset(int(tok) for tok in line.split())
                    if max(indices) >= formula.num_clauses:
                        raise ValueError(
                            f"external enumerator named clause "
                            f"{max(indices)} of {formula.num_clauses}")
                    muses.append(MusRecord(indices))
            return EnumerationTrace(muses=muses, exhausted=finished)
        finally:
            os.unlink(path)

    return run


def run_pipeline(problem: CnfFormula, pruner, enumerator, budget: float,
                 seed: int = 0, audit_sample: int = 3) -> RunRecord:
    """Prune, enumerate on the remainder of the budget, audit.

    ``enumerator`` is ``enumerate_marco`` (run over ``problem``, kept
    clauses first) or an adapter run on the pruned formula, whose MUSes
    are lifted.
    """
    engine = SatEngine()
    record = RunRecord(problem="", pruner="", budget=budget,
                       repetition=0, seed=seed)
    start = time.perf_counter()
    outcome = pruner(problem, engine, seed)
    record.prune_time = time.perf_counter() - start
    record.kept_fraction = outcome.kept_fraction
    record.prune_sat_calls = outcome.sat_calls
    if not outcome.unsat:
        record.status = "pruned_sat"
        record.reason = "pruned formula is satisfiable"
        return record
    remaining = budget - record.prune_time
    if remaining <= 0:
        record.reason = "budget consumed by pruning"
        return record
    internal = enumerator is enumerate_marco
    t0 = time.perf_counter()
    try:
        if internal:
            trace = enumerate_marco(problem, remaining,
                                    first=outcome.index_map)
        else:
            trace = enumerator(outcome.pruned, remaining)
    except ValueError as exc:
        record.status = "enum_error"
        record.reason = str(exc)
        record.enum_time = time.perf_counter() - t0
        return record
    record.enum_time = time.perf_counter() - t0
    if not internal:
        trace = lift_muses(trace, outcome.index_map)
    record.mus_count = len(trace.muses)
    record.seeds_tested = trace.seeds_tested
    record.exhausted = trace.exhausted
    if trace.muses and audit_sample > 0:
        rng = np.random.default_rng(seed)
        take = min(audit_sample, len(trace.muses))
        picks = rng.choice(len(trace.muses), size=take, replace=False)
        for i in picks:
            record.audit_checked += 1
            if not is_mus(problem, trace.muses[int(i)].clause_indices,
                          engine=engine):
                record.audit_ok = False
    return record


# Runs whose MUS count enters the aggregates. A pruned_sat run counts as 0
# MUSes: its pruning left the formula satisfiable.
_COUNTED_STATUSES = ("ok", "pruned_sat")


def _aggregate(records: list[RunRecord]) -> list[AggregateRow]:
    rows: list[AggregateRow] = []
    keys = sorted({(r.pruner, r.budget) for r in records})
    for pruner, budget in keys:
        per_rep: dict[int, list[int]] = {}
        for r in records:
            if (r.pruner == pruner and r.budget == budget
                    and r.status in _COUNTED_STATUSES):
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
    enumerator = (enumerate_marco if config.external_command is None
                  else external_enumerator(config.external_command))

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
                                          seed=run_seed,
                                          audit_sample=config.audit_sample)
                    record.problem = path
                    record.pruner = label
                    record.repetition = rep
                    records.append(record)
    return BenchReport(config=config, records=records,
                       aggregates=_aggregate(records))


# ----------------------------------------------------------------------
# report emission

# Fields that vary run to run on the same seed (excluded from
# reproducibility comparisons). Only when every run exhausts its search
# are the other fields fixed by the seed: in a run cut by its budget,
# mus_count, seeds_tested, exhausted, audit_checked and the aggregates
# depend on the host's speed.
WALL_TIME_FIELDS = ("prune_time", "enum_time")


def _csv_text(fieldnames, rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def records_to_csv(report: BenchReport) -> str:
    return _csv_text([f.name for f in fields(RunRecord)],
                     [asdict(r) for r in report.records])


def aggregates_to_csv(report: BenchReport) -> str:
    return _csv_text([f.name for f in fields(AggregateRow)], [
        {**asdict(a), "repetition": "all" if a.repetition is None
         else a.repetition} for a in report.aggregates])


def report_to_json(report: BenchReport) -> str:
    payload = {
        "config": asdict(report.config),
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
    enumerator = ("marco" if report.config.external_command is None
                  else "external")
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
        lines.append(f"| {enumerator} + {pruner} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def scatter_pairs(report: BenchReport) -> list[dict]:
    """Per-problem (baseline_count, pruned_count) pairs, averaged over
    repetitions, for scatter emission against the first pruner."""
    labels = []
    for r in report.records:
        if r.pruner not in labels:
            labels.append(r.pruner)
    baseline = labels[0]
    per_key: dict[tuple[str, str, float], list[int]] = {}
    for r in report.records:
        if r.status in _COUNTED_STATUSES:
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


def scatter_to_csv(report: BenchReport) -> str:
    return _csv_text(["problem", "budget", "baseline", "pruner",
                      "baseline_count", "pruned_count"], scatter_pairs(report))


# Report format -> the (file suffix, renderer) pairs it writes.
REPORT_FORMATS = {
    "csv": (("records.csv", records_to_csv),
            ("aggregates.csv", aggregates_to_csv)),
    "json": (("report.json", report_to_json),),
    "markdown": (("table.md", report_to_markdown),),
    "scatter": (("scatter.csv", scatter_to_csv),),
}


def emit_report(report: BenchReport, formats, out_prefix: str) -> list[str]:
    """Write the report in the requested formats (keys of
    ``REPORT_FORMATS``); returns written paths."""
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")
    out_dir = os.path.dirname(out_prefix)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    written = []
    for fmt in formats:
        for suffix, render in REPORT_FORMATS[fmt]:
            path = f"{out_prefix}.{suffix}"
            with open(path, "w") as fh:
                fh.write(render(report))
            written.append(path)
    return written
