import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from musprune import bench, pruning
from musprune.bench import (BenchConfig, BenchReport, PrunerSpec, RunRecord,
                            aggregates_to_csv, external_enumerator,
                            REPORT_FORMATS, emit_report, make_pruner,
                            records_to_csv, report_to_json,
                            report_to_markdown, run_benchmark, run_pipeline,
                            scatter_pairs, scatter_to_csv, _aggregate)
from musprune.cnf import CnfFormula, write_dimacs
from musprune.mus import (EnumerationTrace, MusRecord, brute_force_muses,
                          enumerate_marco, truth_table_satisfiable)
from musprune.pruning import random_prune
from musprune.sat import SatEngine

F1 = CnfFormula(2, [[1], [-1], [1, 2], [-2]])


def tiny_unsat(seed):
    """Small UNSAT instance (few clauses) so enumeration exhausts fast."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(5, 11))
        clauses = []
        for _ in range(m):
            k = int(rng.integers(1, min(3, n) + 1))
            vs = rng.choice(n, size=k, replace=False) + 1
            signs = rng.integers(0, 2, size=k) * 2 - 1
            clauses.append([int(v * s) for v, s in zip(vs, signs)])
        f = CnfFormula(n, clauses)
        if not truth_table_satisfiable(f):
            return f


def write_problems(tmp_path, formulas):
    paths = []
    for i, f in enumerate(formulas):
        p = tmp_path / f"{i:03d}.cnf"
        p.write_text(write_dimacs(f))
        paths.append(str(p))
    return tuple(paths)


class TestRunPipeline:
    def test_none_pruner_equals_plain_enumeration(self):
        pruner = make_pruner(PrunerSpec(kind="none"))
        record = run_pipeline(F1, pruner, enumerate_marco, 30.0, seed=0)
        assert record.mus_count == 2
        assert record.kept_fraction == 1.0
        assert record.exhausted

    def test_lifted_muses_within_brute_force(self):
        oracle = {r.clause_indices for r in brute_force_muses(F1)}
        for spec in (PrunerSpec(kind="clause_length"),
                     PrunerSpec(kind="var_freq"),
                     PrunerSpec(kind="random", fraction=0.25)):
            pruner = make_pruner(spec)
            collected = []

            def enum_collect(formula, budget):
                trace = enumerate_marco(formula, budget)
                collected.append(trace)
                return trace

            record = run_pipeline(F1, pruner, enum_collect, 30.0, seed=1,
                                  audit_sample=5)
            assert record.audit_ok
            if record.status == "ok" and record.mus_count:
                assert record.audit_checked > 0

    def test_budget_consumed_by_pruning(self):
        def slow_pruner(formula, engine, seed):
            time.sleep(0.2)
            return pruning.none_prune(formula)

        record = run_pipeline(F1, slow_pruner, enumerate_marco, 0.1, seed=0)
        assert record.mus_count == 0
        assert record.reason == "budget consumed by pruning"

    def test_scoring_time_charged_to_budget(self, monkeypatch):
        scores = pruning.variable_frequency_scores

        def slow_scores(formula):
            time.sleep(0.3)
            return scores(formula)

        monkeypatch.setattr(pruning, "variable_frequency_scores", slow_scores)
        record = run_pipeline(F1, make_pruner(PrunerSpec(kind="var_freq")),
                              enumerate_marco, 0.2, seed=0)
        assert record.reason == "budget consumed by pruning"
        assert record.prune_time >= 0.3
        assert record.mus_count == 0

    def test_sat_formula_surfaces_enum_error(self):
        pruner = make_pruner(PrunerSpec(kind="none"))
        record = run_pipeline(CnfFormula(2, [[1, 2]]), pruner,
                              enumerate_marco, 1.0, seed=0)
        assert record.status == "enum_error"
        assert "satisfiable" in record.reason

    def test_audit_fails_on_a_non_minimal_subset(self):
        # {0, 1, 2} is UNSAT in F1, but {0, 1} already is.
        def external(formula, budget):
            return EnumerationTrace(muses=[MusRecord(frozenset({0, 1, 2}))])

        record = run_pipeline(F1, make_pruner(PrunerSpec(kind="none")),
                              external, 30.0, seed=0)
        assert record.status == "ok" and record.mus_count == 1
        assert record.audit_checked >= 1
        assert record.audit_ok is False


class TestContinuation:
    """Internal MARCO enumerates the kept clauses first, then goes on over
    the whole formula; an external enumerator sees the pruned formula."""

    @staticmethod
    def capturing(spec, outcomes):
        pruner = make_pruner(spec)

        def run(formula, engine, seed):
            outcomes.append(pruner(formula, engine, seed))
            return outcomes[-1]
        return run

    @pytest.mark.parametrize("kind", ["var_freq", "clause_length"])
    def test_exhausted_run_gives_every_mus_of_the_original(
            self, kind, monkeypatch):
        calls, outcomes = [], []

        def recording(formula, budget, **kwargs):
            calls.append((formula, kwargs))
            trace = enumerate_marco(formula, budget, **kwargs)
            calls[-1] += (trace,)
            return trace

        monkeypatch.setattr(bench, "enumerate_marco", recording)
        pruner = self.capturing(PrunerSpec(kind=kind), outcomes)
        more_than_kept = 0
        for s in range(20):
            f = tiny_unsat(s)
            oracle = {r.clause_indices for r in brute_force_muses(f)}
            record = run_pipeline(f, pruner, recording, math.inf, seed=s,
                                  audit_sample=len(oracle))
            formula, kwargs, trace = calls[-1]
            kept = set(outcomes[-1].index_map)
            assert formula == f and kwargs == {"first": outcomes[-1].index_map}
            found = [r.clause_indices for r in trace.muses]
            assert len(found) == len(set(found)) and set(found) == oracle
            inside = sum(mus <= kept for mus in oracle)
            assert all(mus <= kept for mus in found[:inside])
            assert record.status == "ok" and record.exhausted
            assert record.mus_count == len(oracle)
            assert record.audit_checked == len(oracle) and record.audit_ok
            more_than_kept += inside < len(oracle)
        assert more_than_kept >= 5

    def test_external_enumerator_lifts_from_the_pruned_formula(self):
        given, outcomes = [], []

        def external(formula, budget):
            given.append(formula)
            return enumerate_marco(formula, budget)

        pruner = self.capturing(PrunerSpec(kind="var_freq"), outcomes)
        pruned = 0
        for s in range(20):
            f = tiny_unsat(s)
            record = run_pipeline(f, pruner, external, 30.0, seed=s,
                                  audit_sample=100)
            outcome = outcomes[-1]
            assert given[-1] == outcome.pruned
            assert record.mus_count == len(brute_force_muses(outcome.pruned))
            assert record.exhausted
            assert record.audit_checked == record.mus_count
            assert record.audit_ok
            pruned += outcome.pruned.num_clauses < f.num_clauses
        assert pruned >= 10


class TestPrunerSpec:
    @pytest.mark.parametrize("text, spec, label", [
        ("none", PrunerSpec(kind="none"), "none"),
        ("clause_length:7", PrunerSpec(kind="clause_length", steps=7),
         "clause_length(K=7)"),
        ("var_freq:4", PrunerSpec(kind="var_freq", k=4), "var_freq(k=4)"),
        ("random:0.35", PrunerSpec(kind="random", fraction=0.35),
         "random(f=0.35)"),
    ])
    def test_parse_agrees_with_label(self, text, spec, label):
        assert PrunerSpec.parse(text) == spec
        assert spec.label() == label

    @pytest.mark.parametrize("text, checkpoint, k", [
        ("model:ckpt.npz", "ckpt.npz", 10),
        ("model:ckpt.npz:12", "ckpt.npz", 12),
        ("model:C:/runs/a:b.npz:3", "C:/runs/a:b.npz", 3),
    ])
    def test_parse_model(self, text, checkpoint, k):
        spec = PrunerSpec.parse(text)
        assert spec == PrunerSpec(kind="model", checkpoint=checkpoint, k=k)
        assert spec.label() == f"model(k={k})"


class TestRunBenchmark:
    def test_record_bookkeeping(self, tmp_path):
        problems = write_problems(tmp_path, [tiny_unsat(i)
                                             for i in range(2)])
        config = BenchConfig(problems=problems, budgets=(5.0,),
                             repetitions=2, seed=1)
        report = run_benchmark(config)
        assert len(report.records) == 2 * 1 * 1 * 2
        per_rep = [a for a in report.aggregates if a.repetition is not None]
        assert {a.repetition for a in per_rep} == {0, 1}
        for a in per_rep:
            assert a.runs == 2  # aggregate over 2 problems per repetition

    def test_sat_problem_skipped_with_reason(self, tmp_path):
        problems = write_problems(
            tmp_path, [CnfFormula(2, [[1, 2]]), tiny_unsat(0)])
        config = BenchConfig(problems=problems, budgets=(5.0,), seed=0)
        report = run_benchmark(config)
        skipped = [r for r in report.records if r.status == "skipped"]
        assert len(skipped) == 1
        assert skipped[0].reason == "input satisfiable"

    def test_satisfiable_prunings_count_as_zero_muses(self, tmp_path):
        problems = write_problems(tmp_path, [tiny_unsat(i)
                                             for i in range(4)])
        config = BenchConfig(
            problems=problems,
            pruners=(PrunerSpec(kind="none"),
                     PrunerSpec(kind="random", fraction=0.5)),
            budgets=(5.0,), repetitions=2, seed=0)
        report = run_benchmark(config)
        pooled = [a for a in report.aggregates if a.repetition is None]
        assert len(pooled) == 2
        assert {a.runs for a in pooled} == {8}
        formulas = dict(zip(problems, (tiny_unsat(i) for i in range(4))))
        sat_runs = 0
        for r in report.records:
            if r.pruner == "none":
                assert r.status == "ok"
                continue
            pruned = random_prune(formulas[r.problem], 0.5, r.seed,
                                  SatEngine()).pruned
            if truth_table_satisfiable(pruned):
                sat_runs += 1
                assert r.status == "pruned_sat"
                assert r.mus_count == 0 and r.enum_time == 0
            else:
                assert r.status == "ok"
        assert 0 < sat_runs < 8

    def test_empty_problem_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BenchConfig(problems=())

    @pytest.mark.parametrize("field,message", [
        ("pruners", "pruner list is empty"),
        ("budgets", "budget list is empty")])
    def test_empty_pruners_or_budgets_rejected(self, field, message):
        with pytest.raises(ValueError) as info:
            BenchConfig(problems=("a.cnf",), **{field: ()})
        assert str(info.value) == message

    @pytest.mark.parametrize("pruners, label", [
        ((PrunerSpec("model", "a.npz"), PrunerSpec("model", "b.npz")),
         "model(k=10)"),
        ((PrunerSpec(), PrunerSpec("var_freq"), PrunerSpec()), "none"),
    ], ids=["two_checkpoints_same_k", "none_twice"])
    def test_pruners_sharing_a_label_rejected(self, pruners, label):
        """Reports group runs by label, so two pruners under one label
        would be merged into one row."""
        with pytest.raises(ValueError) as info:
            BenchConfig(problems=("a.cnf",), pruners=pruners)
        assert repr(label) in str(info.value)

    def test_checkpoints_with_distinct_k_accepted(self):
        pruners = (PrunerSpec("model", "a.npz", k=5),
                   PrunerSpec("model", "b.npz"))
        assert BenchConfig(problems=("a.cnf",), pruners=pruners).pruners \
            == pruners

    def test_negative_audit_sample_rejected(self):
        with pytest.raises(ValueError) as info:
            BenchConfig(problems=("a.cnf",), audit_sample=-1)
        assert str(info.value) == "audit sample must be >= 0"

    @pytest.mark.parametrize("budget", [0.0, float("nan")])
    def test_nonpositive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budgets must be positive"):
            BenchConfig(problems=("a.cnf",), budgets=(1.0, budget))

    def test_infinite_budget_needs_internal_enumerator(self):
        inf = float("inf")
        assert BenchConfig(problems=("a.cnf",), budgets=(inf,)).budgets == (inf,)
        with pytest.raises(ValueError, match="finite budgets"):
            BenchConfig(problems=("a.cnf",), budgets=(1.0, inf),
                        external_command="echo 0 1")

    def test_deterministic_given_seed(self, tmp_path):
        problems = write_problems(tmp_path, [tiny_unsat(i)
                                             for i in range(2)])
        config = BenchConfig(problems=problems, budgets=(5.0,),
                             repetitions=2, seed=3)
        a, b = run_benchmark(config), run_benchmark(config)
        for ra, rb in zip(a.records, b.records):
            assert (ra.problem, ra.mus_count, ra.kept_fraction, ra.seed) == \
                   (rb.problem, rb.mus_count, rb.kept_fraction, rb.seed)

    def test_audits_pass_everywhere(self, tmp_path):
        problems = write_problems(tmp_path, [tiny_unsat(100 + i)
                                             for i in range(3)])
        config = BenchConfig(
            problems=problems,
            pruners=(PrunerSpec(kind="none"), PrunerSpec(kind="clause_length")),
            budgets=(5.0,), seed=0, audit_sample=4)
        report = run_benchmark(config)
        assert all(r.audit_ok for r in report.records)

    def test_pooled_aggregate_recomputable(self, tmp_path):
        problems = write_problems(tmp_path, [tiny_unsat(i)
                                             for i in range(3)])
        config = BenchConfig(problems=problems, budgets=(5.0,),
                             repetitions=2, seed=0)
        report = run_benchmark(config)
        counts = [r.mus_count for r in report.records if r.status == "ok"]
        pooled = [a for a in report.aggregates if a.repetition is None]
        assert pooled[0].mean_mus == pytest.approx(np.mean(counts))
        expected_se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert pooled[0].stderr_mus == pytest.approx(expected_se)


class TestReportFormats:
    def make_report(self, tmp_path):
        problems = write_problems(tmp_path, [tiny_unsat(i)
                                             for i in range(2)])
        config = BenchConfig(
            problems=problems,
            pruners=(PrunerSpec(kind="none"), PrunerSpec(kind="var_freq")),
            budgets=(5.0,), repetitions=2, seed=0)
        return run_benchmark(config)

    def test_csv_round_trip_preserves_aggregates(self, tmp_path):
        report = self.make_report(tmp_path)
        parsed = [RunRecord(problem=row["problem"], pruner=row["pruner"],
                            budget=float(row["budget"]),
                            repetition=int(row["repetition"]),
                            status=row["status"],
                            mus_count=int(row["mus_count"]))
                  for row in csv.DictReader(io.StringIO(
                      records_to_csv(report)))]
        re_agg = _aggregate(parsed)
        assert len(re_agg) == len(report.aggregates)
        for a, b in zip(report.aggregates, re_agg):
            assert (a.pruner, a.budget, a.repetition) == \
                   (b.pruner, b.budget, b.repetition)
            assert a.mean_mus == pytest.approx(b.mean_mus)
            assert a.stderr_mus == pytest.approx(b.stderr_mus)

    def test_json_includes_full_records(self, tmp_path):
        report = self.make_report(tmp_path)
        payload = json.loads(report_to_json(report))
        assert len(payload["records"]) == len(report.records)
        assert payload["records"][0].keys() >= {
            "problem", "mus_count", "kept_fraction", "prune_time"}

    def test_csv_lines_end_in_newline_only(self, tmp_path):
        report = self.make_report(tmp_path)
        paths = [p for p in emit_report(report, list(REPORT_FORMATS),
                                        str(tmp_path / "r"))
                 if p.endswith(".csv")]
        assert len(paths) == 3
        for path in paths:
            with open(path, "rb") as fh:
                text = fh.read()
            assert text.count(b"\n") > 1 and b"\r" not in text, path

    def test_markdown_one_row_per_configuration(self, tmp_path):
        report = self.make_report(tmp_path)
        table = report_to_markdown(report)
        lines = [l for l in table.splitlines() if l.startswith("| marco")]
        assert len(lines) == 2  # none + var_freq
        assert "±" in lines[0]

    def test_markdown_names_the_external_enumerator(self, tmp_path):
        report = self.make_report(tmp_path)
        external = BenchReport(
            config=replace(report.config,
                           external_command="enum {dimacs} {budget}"),
            records=report.records, aggregates=report.aggregates)
        table = report_to_markdown(report)
        assert report_to_markdown(external) == table.replace(
            "| marco + ", "| external + ")

    def test_scatter_pairs(self, tmp_path):
        report = self.make_report(tmp_path)
        rows = scatter_pairs(report)
        assert rows
        for row in rows:
            assert row["baseline"] == "none"
            assert row["pruner"] == "var_freq(k=10)"
            assert row["baseline_count"] >= 0

    def test_scatter_format_rows_are_scatter_pairs(self, tmp_path):
        report = self.make_report(tmp_path)
        rows = list(csv.DictReader(io.StringIO(scatter_to_csv(report))))
        assert rows == [{k: str(v) for k, v in pair.items()}
                        for pair in scatter_pairs(report)]
        single = run_benchmark(BenchConfig(
            problems=report.config.problems, budgets=(5.0,), seed=0))
        assert scatter_to_csv(single).splitlines() == [
            "problem,budget,baseline,pruner,baseline_count,pruned_count"]

    def test_aggregates_csv_has_all_rows(self, tmp_path):
        report = self.make_report(tmp_path)
        text = aggregates_to_csv(report)
        assert text.count("\n") == len(report.aggregates) + 1


class TestExternalEnumerator:
    def test_adapter_parses_indices(self, tmp_path):
        script = tmp_path / "fake_enum.py"
        script.write_text(
            "import sys\n"
            "print('c header noise')\n"
            "print('0 1')\n"
            "print('1 2 3')\n"
            "print('done')\n")
        enum = external_enumerator(
            f"{sys.executable} {script} {{dimacs}} {{budget}}")
        trace = enum(F1, 5.0)
        assert [sorted(r.clause_indices) for r in trace.muses] == \
               [[0, 1], [1, 2, 3]]
        assert trace.exhausted

    def test_adapter_against_own_cli(self, tmp_path):
        # our own CLI speaks the declared output grammar
        enum = external_enumerator(
            f"{sys.executable} -m musprune.cli enumerate "
            f"--input {{dimacs}} --budget {{budget}} --quiet")
        trace = enum(F1, 10.0)
        got = {frozenset(r.clause_indices) for r in trace.muses}
        want = {r.clause_indices for r in brute_force_muses(F1)}
        assert got == want

    def test_timeout_kills_background_children(self, tmp_path):
        pid_file = tmp_path / "child.pid"
        trace = external_enumerator(
            f"sleep 60 & echo $! > {pid_file}; wait")(F1, 0.1)
        assert trace.muses == []
        assert not trace.exhausted
        pid = int(pid_file.read_text())
        # A SIGKILLed process reads R while it exits, then Z (killed, not
        # yet reaped) or gone; one still running would stay in S.
        deadline = time.monotonic() + 2.0
        while True:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                state = "gone"
            if state in ("gone", "Z") or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert state in ("gone", "Z")

    def test_clause_beyond_input_is_enum_error(self):
        record = run_pipeline(F1, make_pruner(PrunerSpec()),
                              external_enumerator("echo 0 1; echo 0 999"), 5.0)
        assert record.status == "enum_error"
        assert record.reason == "external enumerator named clause 999 of 4"
        assert record.mus_count == 0

    def test_failing_command_yields_unfinished_trace(self):
        trace = external_enumerator("false")(F1, 1.0)
        assert trace.muses == []
        assert not trace.exhausted

