import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from musprune import bench, cli
from musprune.cli import build_parser, main
from musprune.cnf import CnfFormula, parse_dimacs, write_dimacs
from musprune.generators import GenSpec, gen_sr_random
from musprune.model import ModelConfig, init_params, save_checkpoint
from musprune.mus import brute_force_muses, truth_table_satisfiable
from musprune.pruning import random_prune, variable_frequency_prune
from musprune.sat import SatEngine
from musprune.training import TrainConfig


F1_TEXT = "p cnf 2 4\n1 0\n-1 0\n1 2 0\n-2 0\n"
SAT_TEXT = "p cnf 2 1\n1 2 0\n"


@pytest.fixture
def f1_file(tmp_path):
    path = tmp_path / "f1.cnf"
    path.write_text(F1_TEXT)
    return str(path)


@pytest.fixture
def problem_dir(tmp_path):
    from tests.test_bench import tiny_unsat
    d = tmp_path / "problems"
    d.mkdir()
    for i in range(3):
        (d / f"{i:03d}.cnf").write_text(write_dimacs(tiny_unsat(i)))
    return str(d)


def read_text(path):
    with open(path) as fh:
        return fh.read()


def train_small_model(problem_dir, ckpt):
    assert main(["train", "--corpus", problem_dir, "--out", str(ckpt),
                 "--max-formulas", "4", "--batch-size", "2",
                 "--layers", "2", "--hidden-dim", "8",
                 "--random-features", "4", "--mlp-hidden-dim", "8",
                 "--eval-fraction", "0.34"]) == 0


class TestTrain:
    @pytest.mark.parametrize("fraction", ["-0.5", "0", "1"])
    def test_eval_fraction_out_of_range_exits_1(self, tmp_path, problem_dir,
                                                capsys, monkeypatch, fraction):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        ckpt = tmp_path / "model.npz"
        assert main(["train", "--corpus", problem_dir, "--out", str(ckpt),
                     "--eval-fraction", fraction]) == 1
        assert (capsys.readouterr().err
                == "error: --eval-fraction must be in (0, 1)\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_nonfinite_learning_rate_exits_1(self, tmp_path, problem_dir,
                                             capsys, rate):
        ckpt = tmp_path / "model.npz"
        assert main(["train", "--corpus", problem_dir, "--out", str(ckpt),
                     "--eval-fraction", "0.34", "--learning-rate", rate]) == 1
        assert (capsys.readouterr().err
                == "error: learning_rate must be finite and positive\n")
        assert not ckpt.exists()

    # Each train flag with a config field behind it: flag dest -> field.
    FLAG_FIELDS = {
        "batch_size": (TrainConfig, "batch_size"),
        "learning_rate": (TrainConfig, "learning_rate"),
        "max_formulas": (TrainConfig, "max_formulas"),
        "samples_per_formula": (TrainConfig, "samples_per_formula"),
        "eval_every": (TrainConfig, "eval_every"),
        "baseline": (TrainConfig, "use_baseline"),
        "seed": (TrainConfig, "seed"),
        "layers": (ModelConfig, "num_layers"),
        "hidden_dim": (ModelConfig, "hidden_dim"),
        "random_features": (ModelConfig, "random_feature_dim"),
        "mlp_hidden_dim": (ModelConfig, "mlp_hidden_dim"),
    }

    def test_flag_defaults_equal_field_defaults(self):
        args = vars(build_parser().parse_args(
            ["train", "--corpus", "c", "--out", "o"]))
        assert set(args) - set(self.FLAG_FIELDS) == {
            "command", "func", "corpus", "out", "history", "eval_fraction"}
        for dest, (cls, name) in self.FLAG_FIELDS.items():
            assert args[dest] == getattr(cls(), name), dest


class TestEnumerate:
    def test_f1_prints_two_muses(self, f1_file, capsys):
        assert main(["enumerate", "--input", f1_file, "--budget", "30",
                     "--quiet"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = {frozenset(int(t) for t in line.split()) for line in lines}
        want = {r.clause_indices for r in brute_force_muses(
            parse_dimacs(F1_TEXT))}
        assert got == want

    def test_sat_input_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "sat.cnf"
        path.write_text(SAT_TEXT)
        assert main(["enumerate", "--input", str(path), "--budget", "1"]) == 1
        assert "satisfiable" in capsys.readouterr().err

    def test_nan_budget_exits_1(self, f1_file, capsys):
        assert main(["enumerate", "--input", f1_file, "--budget", "nan"]) == 1
        out, err = capsys.readouterr()
        assert err == "error: budget must be positive\n" and out == ""


class TestPrune:
    def test_sat_input_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "sat.cnf"
        path.write_text(SAT_TEXT)
        code = main(["prune", "--input", str(path), "--pruner", "clause_length",
                     "--out", str(tmp_path / "out.cnf")])
        assert code == 1
        assert "input satisfiable" in capsys.readouterr().err

    def test_clause_length_prune_outputs(self, tmp_path, f1_file):
        out = tmp_path / "pruned.cnf"
        outcome = tmp_path / "outcome.json"
        code = main(["prune", "--input", f1_file, "--pruner", "clause_length",
                     "--out", str(out), "--outcome", str(outcome)])
        assert code == 0
        pruned = parse_dimacs(read_text(out))
        assert pruned.clauses == ((1,), (-1,), (-2,))  # all unit clauses kept
        data = json.loads(read_text(outcome))
        assert data["method"] == "clause_length"
        assert data["unsat"] is True
        assert data["index_map"] == [0, 1, 3]

    @pytest.mark.parametrize("method, direct", [
        (["--pruner", "var_freq:4"],
         lambda f: variable_frequency_prune(f, 4, SatEngine())),
        (["--pruner", "random:0.3", "--seed", "5"],
         lambda f: random_prune(f, 0.3, 5, SatEngine())),
    ])
    def test_baseline_matches_direct_call(self, tmp_path, method, direct):
        from tests.test_bench import tiny_unsat
        formula = tiny_unsat(4)
        path = tmp_path / "in.cnf"
        path.write_text(write_dimacs(formula))
        out = tmp_path / "pruned.cnf"
        assert main(["prune", "--input", str(path), "--out", str(out)]
                    + method) == 0
        assert read_text(out) == write_dimacs(direct(formula).pruned)

    def test_model_prune_round_trip(self, tmp_path, f1_file, problem_dir):
        ckpt = tmp_path / "model.npz"
        train_small_model(problem_dir, ckpt)
        out = tmp_path / "pruned.cnf"
        assert main(["prune", "--input", f1_file,
                     "--pruner", f"model:{ckpt}", "--out", str(out)]) == 0
        pruned = parse_dimacs(read_text(out))
        assert pruned.num_clauses <= 4

    def test_checkpoint_without_meta_is_an_error(self, tmp_path, f1_file,
                                                  capsys):
        ckpt = tmp_path / "plain.npz"
        np.savez(ckpt, weights=np.zeros(3))
        assert main(["prune", "--input", f1_file, "--pruner", f"model:{ckpt}",
                     "--out", str(tmp_path / "out.cnf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "__meta__" in err

    def test_checkpoint_with_misshapen_tensor_is_an_error(
            self, tmp_path, f1_file, capsys):
        params = init_params(ModelConfig(), 0)
        params.tensors["head.b1"] = np.zeros(1)
        ckpt = tmp_path / "bad.npz"
        save_checkpoint(ckpt, params)
        out = tmp_path / "out.cnf"
        assert main(["prune", "--input", f1_file, "--pruner", f"model:{ckpt}",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "head.b1" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta["config"].update(dropout=0.5), "dropout"),
        (lambda meta: meta["config"].update(num_layers="2"), "bad model config"),
        (lambda meta: meta.pop("config"), "no model config"),
    ], ids=["unknown_key", "wrong_type", "no_config"])
    def test_checkpoint_with_bad_config_is_an_error(
            self, tmp_path, problem_dir, capsys, edit, message):
        ckpt = tmp_path / "model.npz"
        train_small_model(problem_dir, ckpt)
        capsys.readouterr()
        with np.load(ckpt) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        edit(meta)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        np.savez(ckpt, **arrays)
        assert main(["bench", "--problems", problem_dir,
                     "--pruner", f"model:{ckpt}", "--budgets", "1",
                     "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestGenerate:
    def test_flag_defaults_equal_field_defaults(self):
        args = vars(build_parser().parse_args(["generate", "--out", "o"]))
        defaults = {f.name: f.default for f in dataclasses.fields(GenSpec)}
        for name in ("bernoulli_p", "geometric_p", "edge_p"):
            assert args[name] == defaults[name], name

    def test_corpus_written(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["generate", "--variant", "sr_random", "--count", "4",
                     "--min-vars", "5", "--max-vars", "8",
                     "--out", str(out), "--seed", "3"]) == 0
        files = [f for f in os.listdir(out) if f.endswith(".cnf")]
        assert len(files) == 4
        assert (out / "manifest.jsonl").exists()

    def write_target(self, tmp_path, text=None):
        target = tmp_path / "target.cnf"
        target.write_text(text or write_dimacs(gen_sr_random(8, seed=2)))
        return str(target)

    @pytest.mark.parametrize("variant", ["sr_random", "graph_coloring",
                                         "stat_matched"])
    def test_determinism_byte_identical(self, tmp_path, variant):
        flags = {"sr_random": ["--min-vars", "5", "--max-vars", "8"],
                 "graph_coloring": ["--min-nodes", "3", "--max-nodes", "5",
                                    "--min-colors", "2", "--max-colors", "3"],
                 "stat_matched": ["--min-vars", "5", "--max-vars", "8",
                                  "--target", self.write_target(tmp_path)]}
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--variant", variant, "--count", "3",
                         *flags[variant], "--out", str(out),
                         "--seed", "11"]) == 0
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in sorted(os.listdir(a)):
            assert read_text(a / name) == read_text(b / name)

    def check_corpus(self, out, count, variant):
        records = [json.loads(line) for line in
                   read_text(out / "manifest.jsonl").splitlines()]
        assert len(records) == count
        assert sorted(f for f in os.listdir(out) if f.endswith(".cnf")) == \
            [r["file"] for r in records]
        for record in records:
            assert record["spec"]["variant"] == variant
            f = parse_dimacs((out / record["file"]).read_bytes())
            assert not truth_table_satisfiable(f)

    def test_graph_coloring_corpus(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["generate", "--variant", "graph_coloring", "--count", "3",
                     "--min-nodes", "3", "--max-nodes", "5",
                     "--min-colors", "2", "--max-colors", "3",
                     "--out", str(out), "--seed", "1"]) == 0
        self.check_corpus(out, 3, "graph_coloring")

    def test_generator_that_gives_up_is_an_error(self, tmp_path, capsys):
        """Three nodes never need six colours, so every colouring drawn is
        SAT and the generator gives up, leaving no output."""
        out = tmp_path / "corpus"
        assert main(["generate", "--variant", "graph_coloring", "--count", "2",
                     "--min-nodes", "3", "--max-nodes", "3",
                     "--min-colors", "6", "--max-colors", "6",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no UNSAT coloring instance found")
        assert "Traceback" not in err
        assert not out.exists()

    def test_stat_matched_corpus(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["generate", "--variant", "stat_matched", "--count", "3",
                     "--target", self.write_target(tmp_path),
                     "--min-vars", "8", "--max-vars", "8",
                     "--out", str(out), "--seed", "1"]) == 0
        self.check_corpus(out, 3, "stat_matched")

    def test_stat_matched_draws_from_var_range(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["generate", "--variant", "stat_matched", "--count", "6",
                     "--target", self.write_target(tmp_path),
                     "--min-vars", "6", "--max-vars", "12",
                     "--out", str(out), "--seed", "1"]) == 0
        counts = [json.loads(line)["num_vars"] for line in
                  read_text(out / "manifest.jsonl").splitlines()]
        assert len(counts) == 6
        assert all(6 <= n <= 12 for n in counts)
        assert len(set(counts)) > 1

    def test_empty_target_exits_1_without_output(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["generate", "--variant", "stat_matched",
                     "--target", self.write_target(tmp_path, "p cnf 3 0\n"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: ratio must be positive, got 0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--min-vars", "30", "--max-vars", "20"], "var_range is empty"),
        (["--min-vars", "1", "--max-vars", "4"], "var_range must be >= 2"),
        (["--variant", "graph_coloring", "--min-colors", "1"],
         "color_range must be >= 2"),
        (["--variant", "graph_coloring", "--min-nodes", "9",
          "--max-nodes", "8"], "node_range is empty"),
        (["--count", "-1"], "count must be >= 1")])
    def test_bad_spec_exits_1_without_output(self, tmp_path, flags, message,
                                             capsys):
        out = tmp_path / "corpus"
        assert main(["generate", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestBench:
    def run_bench(self, problem_dir, out_prefix, seed="5"):
        return main(["bench", "--problems", problem_dir,
                     "--pruner", "none", "--pruner", "var_freq",
                     "--budgets", "5", "--repetitions", "2",
                     "--seed", seed, "--out", out_prefix,
                     "--formats", "csv", "json", "markdown", "scatter"])

    def test_outputs_written(self, tmp_path, problem_dir):
        prefix = str(tmp_path / "report")
        assert self.run_bench(problem_dir, prefix) == 0
        for suffix in ("records.csv", "aggregates.csv", "report.json",
                       "table.md", "scatter.csv"):
            assert os.path.exists(f"{prefix}.{suffix}"), suffix

    @pytest.mark.parametrize("pruner", [
        "bogus", "model", "model:", "var_freq:0", "clause_length:0",
        "random:1.5", "model:ckpt.npz:0"])
    def test_bad_pruner_exits_1(self, tmp_path, problem_dir, pruner, capsys,
                                monkeypatch):
        def no_run(config):
            raise AssertionError("benchmark ran")
        monkeypatch.setattr(bench, "run_benchmark", no_run)
        assert main(["bench", "--problems", problem_dir, "--pruner", "none",
                     "--pruner", pruner, "--budgets", "1",
                     "--out", str(tmp_path / "r")]) == 1
        assert "pruner" in capsys.readouterr().err
        assert not any(n.startswith("r.") for n in os.listdir(tmp_path))

    @pytest.mark.parametrize("template, message", [
        ("echo {dimacs} {timeout}", "unknown field {timeout}"),
        ("echo {0} {budget}", "index 0"),
        ("echo {dimacs", "expected '}'")])
    def test_bad_external_template_exits_1(self, tmp_path, problem_dir,
                                           template, message, capsys,
                                           monkeypatch):
        def no_run(config):
            raise AssertionError("benchmark ran")
        monkeypatch.setattr(bench, "run_benchmark", no_run)
        assert main(["bench", "--problems", problem_dir, "--pruner", "none",
                     "--budgets", "1", "--external-command", template,
                     "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(n.startswith("r.") for n in os.listdir(tmp_path))

    def test_infinite_budget_with_external_command_exits_1(
            self, tmp_path, problem_dir, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("benchmark ran")
        monkeypatch.setattr(bench, "run_benchmark", no_run)
        assert main(["bench", "--problems", problem_dir, "--pruner", "none",
                     "--budgets", "1", "inf", "--external-command",
                     "echo 0 1", "--out", str(tmp_path / "r")]) == 1
        assert (capsys.readouterr().err
                == "error: an external enumerator needs finite budgets\n")
        assert not any(n.startswith("r.") for n in os.listdir(tmp_path))

    def test_nan_budget_exits_1(self, tmp_path, problem_dir, capsys):
        assert main(["bench", "--problems", problem_dir, "--pruner", "none",
                     "--budgets", "1", "nan", "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "error: budgets must be positive\n"
        assert not any(n.startswith("r.") for n in os.listdir(tmp_path))

    def test_negative_audit_sample_exits_1(self, tmp_path, problem_dir, capsys):
        assert main(["bench", "--problems", problem_dir, "--pruner", "none",
                     "--budgets", "1", "--audit-sample", "-1",
                     "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "error: audit sample must be >= 0\n"
        assert not any(n.startswith("r.") for n in os.listdir(tmp_path))

    def test_failed_audit_exits_1(self, tmp_path, capsys):
        # The stub names {0, 1, 2} of F1, which is UNSAT but not minimal.
        problems = tmp_path / "problems"
        problems.mkdir()
        (problems / "f1.cnf").write_text(F1_TEXT)
        script = tmp_path / "stub_enum.py"
        script.write_text("print('0 1 2')\n")
        assert main(["bench", "--problems", str(problems), "--pruner", "none",
                     "--budgets", "5", "--external-command",
                     f"{sys.executable} {script} {{dimacs}} {{budget}}",
                     "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            "error: 1 runs produced MUSes failing validation against the "
            "original formula\n")

    def test_reports_reproducible_modulo_wall_time(self, tmp_path, problem_dir):
        pa, pb = str(tmp_path / "ra"), str(tmp_path / "rb")
        assert self.run_bench(problem_dir, pa) == 0
        assert self.run_bench(problem_dir, pb) == 0
        import csv
        from musprune.bench import WALL_TIME_FIELDS

        def scrub_csv(path):
            rows = list(csv.DictReader(open(path)))
            for row in rows:
                for field in WALL_TIME_FIELDS:
                    row.pop(field, None)
            return rows

        assert scrub_csv(f"{pa}.records.csv") == scrub_csv(f"{pb}.records.csv")
        assert read_text(f"{pa}.aggregates.csv") == read_text(f"{pb}.aggregates.csv")
        assert read_text(f"{pa}.table.md") == read_text(f"{pb}.table.md")

        def scrub_json(path):
            payload = json.loads(read_text(path))
            payload["config"]["problems"] = ["<dir>"] * len(
                payload["config"]["problems"])
            for record in payload["records"]:
                for field in WALL_TIME_FIELDS:
                    record.pop(field, None)
                record["problem"] = os.path.basename(record["problem"])
            return payload

        assert scrub_json(f"{pa}.report.json") == scrub_json(f"{pb}.report.json")


class TestValidate:
    def test_validate_passes_on_clean_problems(self, problem_dir, capsys):
        assert main(["validate", "--problems", problem_dir,
                     "--budget", "5"]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--limit", "0"], "--limit must be >= 1"),
        (["--limit", "-1"], "--limit must be >= 1"),
        (["--audit-sample", "-1"], "audit sample must be >= 0"),
        (["--budget", "nan"], "budgets must be positive")])
    def test_check_shortfall_exits_1(self, problem_dir, capsys, flags,
                                     message):
        assert main(["validate", "--problems", problem_dir, "--budget", "5",
                     *flags]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        assert "all invariants hold" not in out

    def test_failed_audit_reported(self, problem_dir, capsys, monkeypatch):
        monkeypatch.setattr(bench, "is_mus", lambda *args, **kwargs: False)
        assert main(["validate", "--problems", problem_dir,
                     "--budget", "5"]) == 1
        out, err = capsys.readouterr()
        fails = [line for line in err.splitlines() if line.startswith("FAIL ")]
        # Two pruners per problem, each with an audited MUS.
        assert len(fails) == 6
        assert all(line.endswith("an audited MUS is not a MUS of the input")
                   for line in fails)
        assert err.splitlines()[-1] == "error: 6 invariant violations"
        assert "all invariants hold" not in out

    def test_checkpoint_loaded_once(self, tmp_path, problem_dir, monkeypatch):
        ckpt = tmp_path / "model.npz"
        train_small_model(problem_dir, ckpt)
        loads = []

        def counting_load(path):
            loads.append(path)
            return load(path)

        load = bench.load_checkpoint
        monkeypatch.setattr(bench, "load_checkpoint", counting_load)
        assert main(["validate", "--problems", problem_dir,
                     "--checkpoint", str(ckpt), "--budget", "5"]) == 0
        assert len(loads) == 1


class TestUsage:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unreadable_input_reports_error(self, tmp_path):
        assert main(["enumerate", "--input", str(tmp_path / "nope.cnf"),
                     "--budget", "1"]) == 1
