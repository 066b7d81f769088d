"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantity once the assertions at the stated tolerance
hold. The desk-scale training fixture is shared between the training
efficacy and enumeration trend criteria (session scope).

Run with ``pytest tests/test_acceptance.py -v -s``. The full suite
including the training run takes roughly 15-25 minutes on one CPU.
"""

import math
import time

import numpy as np
import pytest

from musprune.bench import PrunerSpec, make_pruner, run_pipeline
from musprune.cli import main as cli_main
from musprune.cnf import CnfFormula, prune_clauses
from musprune.generators import (coloring_encoding, gen_graph_coloring,
                                 gen_sr_random, gen_stat_matched)
from musprune.cnf import clause_stats
from musprune.lcg import build_lcg, make_input_features
from musprune.model import (ModelConfig, _forward_with_pullback, forward,
                            init_params, log_prob, sample_mask)
from musprune.mus import (brute_force_muses, enumerate_marco, is_mus,
                          lift_muses, truth_table_satisfiable)
from musprune.pruning import (clause_length_prune, random_prune,
                              threshold_prune, variable_frequency_prune)
from musprune.sat import SatEngine
from musprune.training import (TrainConfig, prune_loss, train)


def small_unsat(seed, n_hi=5, m_hi=12):
    """Random UNSAT formula with at most m_hi clauses (truth-table checked)."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(2, n_hi + 1))
        m = int(rng.integers(4, m_hi + 1))
        clauses = []
        for _ in range(m):
            k = int(rng.integers(1, min(3, n) + 1))
            vs = rng.choice(n, size=k, replace=False) + 1
            signs = rng.integers(0, 2, size=k) * 2 - 1
            clauses.append([int(v * s) for v, s in zip(vs, signs)])
        f = CnfFormula(n, clauses)
        if not truth_table_satisfiable(f):
            return f


def mus_sets(records):
    return {r.clause_indices for r in records}


@pytest.fixture(scope="session")
def sr_corpus_500():
    """500 small SR formulas shared by the preservation/generator criteria."""
    engine = SatEngine()
    rng = np.random.default_rng(2024)
    return [gen_sr_random(int(rng.integers(8, 17)), seed=(5, i), engine=engine)
            for i in range(500)]


@pytest.fixture(scope="session")
def trained_model():
    """Desk-scale training shared by criteria 8 and 9.

    5000 distinct SR formulas with 20-40 variables, presented once each
    (5008 presentations at batch 16), best-eval checkpoint returned.
    """
    engine = SatEngine()
    rng = np.random.default_rng(4242)
    t0 = time.perf_counter()
    corpus = [gen_sr_random(int(rng.integers(20, 41)), seed=(11, i),
                            engine=engine) for i in range(5000)]
    held = [gen_sr_random(int(rng.integers(20, 41)), seed=(33, i),
                          engine=engine) for i in range(200)]
    gen_time = time.perf_counter() - t0
    config = TrainConfig(batch_size=16, learning_rate=1e-4, max_formulas=5000,
                         samples_per_formula=1, eval_every=10,
                         early_stop_window=32, seed=0)
    params0 = init_params(ModelConfig(), 0)
    t0 = time.perf_counter()
    best, history = train(config, corpus, engine, held[:24], params0)
    train_time = time.perf_counter() - t0
    print(f"\n[trained_model] generation {gen_time:.0f}s, "
          f"training {train_time:.0f}s over {len(history)} steps")
    assert gen_time + train_time < 7200, "training exceeded the 2 hour budget"
    return best, held


class TestCriterion01OracleEquivalence:
    def test_marco_equals_brute_force(self):
        t0 = time.perf_counter()
        for i in range(200):
            f = small_unsat((1, i))
            trace = enumerate_marco(f, 600.0)
            assert trace.exhausted, f"instance {i} did not exhaust"
            assert mus_sets(trace.muses) == mus_sets(brute_force_muses(f)), \
                f"instance {i} mismatch"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300
        print(f"\nACCEPTANCE 1 oracle equivalence on 200 formulas "
              f"({elapsed:.0f}s): PASS")


class TestCriterion02Prop1Soundness:
    def test_lifted_muses_valid_for_every_method(self):
        model_params = init_params(
            ModelConfig(num_layers=2, hidden_dim=8, random_feature_dim=4,
                        mlp_hidden_dim=8), 0)

        def model_scores(f, seed):
            g = build_lcg(f)
            x = make_input_features(g, 4, seed)
            return forward(model_params, g, x)

        checked = 0
        for i in range(200):
            f = small_unsat((2, i))
            engine = SatEngine()
            outcomes = [
                threshold_prune(f, model_scores(f, i), 10, engine),
                clause_length_prune(f, 100, engine),
                variable_frequency_prune(f, 10, engine),
                random_prune(f, 0.25, i, engine),
            ]
            for outcome in outcomes:
                if not outcome.unsat:
                    continue  # random pruning may go SAT; nothing to enumerate
                trace = enumerate_marco(outcome.pruned, 600.0, engine=engine)
                lifted = lift_muses(trace, outcome.index_map)
                for record in lifted.muses:
                    assert is_mus(f, record.clause_indices, engine=engine), \
                        f"instance {i}, {outcome.method}: lifted MUS invalid"
                    checked += 1
        assert checked > 200
        print(f"\nACCEPTANCE 2 subset-MUS soundness "
              f"({checked} lifted MUSes, 0 failures): PASS")


class TestCriterion03And04PruningContracts:
    def test_unsat_preservation_and_sat_call_budget(self, sr_corpus_500):
        model_params = init_params(ModelConfig(), 7)
        budget_limit = math.ceil(math.log2(10 + 1)) + 1  # k=10 -> 5
        oracle = SatEngine()
        threshold_calls_ok = 0
        for i, f in enumerate(sr_corpus_500):
            engine = SatEngine()
            g = build_lcg(f)
            x = make_input_features(g, 32, (3, i))
            scores = forward(model_params, g, x)
            out_t = threshold_prune(f, scores, 10, engine)
            assert out_t.sat_calls <= budget_limit, \
                f"instance {i}: {out_t.sat_calls} SAT calls"
            threshold_calls_ok += 1
            out_l = clause_length_prune(f, 100, engine)
            out_v = variable_frequency_prune(f, 10, engine)
            for out in (out_t, out_l, out_v):
                if out.kept_fraction < 1:
                    assert not oracle.is_satisfiable(out.pruned), \
                        f"instance {i}: {out.method} broke unsatisfiability"
                else:
                    assert out.pruned == f
        print(f"\nACCEPTANCE 3 UNSAT preservation (500 formulas x 3 methods, "
              f"0 failures): PASS")
        print(f"ACCEPTANCE 4 SAT-call budget <= {budget_limit} on "
              f"{threshold_calls_ok} threshold prunings: PASS")


class TestCriterion05GradientCheck:
    def test_finite_difference_ten_triples(self):
        # Central differences are only a valid oracle away from relu kinks:
        # coordinates whose +-h perturbation flips an activation sign are
        # excluded (the analytic gradient is the one-sided derivative there).
        from musprune.model import _forward_cached

        def lp_and_signs(params, g, x, mask):
            _, cache = _forward_cached(params, g, x)
            signs = tuple((pre > 0).tobytes() for pre in cache["pres"])
            signs += ((cache["pre1"] > 0).tobytes(),)
            return log_prob(cache["mu"], mask), signs

        t0 = time.perf_counter()
        cfg = ModelConfig(num_layers=2, hidden_dim=8, random_feature_dim=4,
                          mlp_hidden_dim=8)
        rng = np.random.default_rng(0)
        worst = 0.0
        compared = 0
        skipped_kinks = 0
        for trial in range(10):
            f = gen_sr_random(10, seed=(5, trial))
            g = build_lcg(f)
            params = init_params(cfg, trial)
            x = make_input_features(g, cfg.random_feature_dim, trial)
            mu = forward(params, g, x)
            mask, _ = sample_mask(mu, trial)
            grads = _forward_with_pullback(params, g, x)[1](mask, 1.0)
            h = 1e-5
            for key, arr in params.tensors.items():
                flat = arr.reshape(-1)
                picks = rng.choice(flat.size, size=min(4, flat.size),
                                   replace=False)
                for idx in picks:
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp_plus, signs_plus = lp_and_signs(params, g, x, mask)
                    flat[idx] = orig - h
                    lp_minus, signs_minus = lp_and_signs(params, g, x, mask)
                    flat[idx] = orig
                    if signs_plus != signs_minus:
                        skipped_kinks += 1
                        continue
                    fd = (lp_plus - lp_minus) / (2 * h)
                    an = float(grads[key].reshape(-1)[idx]) \
                        if grads[key].ndim else float(grads[key])
                    rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                    worst = max(worst, rel)
                    compared += 1
        elapsed = time.perf_counter() - t0
        assert worst < 1e-4
        assert compared > 20 * skipped_kinks  # kinks must be rare
        assert elapsed < 120
        print(f"\nACCEPTANCE 5 gradient check ({compared} coordinates, "
              f"max rel err {worst:.2e}, {skipped_kinks} kink coordinates "
              f"excluded, {elapsed:.0f}s): PASS")


class TestCriterion06EstimatorUnbiasedness:
    def test_exhaustive_identity_within_1e8(self):
        from musprune.model import _backward_from_logits, _forward_cached
        engine = SatEngine()
        cfg = ModelConfig(num_layers=2, hidden_dim=8, random_feature_dim=4,
                          mlp_hidden_dim=8)
        worst = 0.0
        toys = 0
        for trial in range(6):
            f = small_unsat((6, trial), n_hi=4, m_hi=8)
            m = f.num_clauses
            toys += 1
            g = build_lcg(f)
            params = init_params(cfg, trial)
            x = make_input_features(g, cfg.random_feature_dim, trial)
            mu, cache = _forward_cached(params, g, x)
            score_expect = {k: np.zeros_like(v)
                            for k, v in params.tensors.items()}
            d_mu = np.zeros(m)
            for bits in range(2 ** m):
                pruned_bits = np.array([(bits >> i) & 1 == 1
                                        for i in range(m)])
                keep = ~pruned_bits
                sub, _ = prune_clauses(f, keep)
                loss = prune_loss(f, sub, engine.is_satisfiable(sub))
                factors = np.where(pruned_bits, mu, 1 - mu)
                prob = float(np.prod(factors))
                glp = _forward_with_pullback(params, g, x)[1](keep, 1.0)
                for k in score_expect:
                    score_expect[k] += prob * loss * glp[k]
                for i in range(m):
                    sign = 1.0 if pruned_bits[i] else -1.0
                    d_mu[i] += loss * sign * float(
                        np.prod(np.delete(factors, i)))
            exact = _backward_from_logits(params, cache, d_mu * mu * (1 - mu))
            for k in score_expect:
                worst = max(worst, float(
                    np.abs(score_expect[k] - exact[k]).max()))
        assert toys >= 3
        assert worst < 1e-8
        print(f"\nACCEPTANCE 6 estimator unbiasedness over {toys} toys "
              f"(max dev {worst:.2e}): PASS")


class TestCriterion07InitContract:
    def test_mean_prune_probability_band(self):
        cfg = ModelConfig()
        rng = np.random.default_rng(7)
        means = []
        for i in range(100):
            n = int(rng.integers(8, 60))
            m = int(rng.uniform(2.0, 6.0) * n)
            clauses = []
            for _ in range(m):
                k = int(rng.integers(1, min(6, n) + 1))
                vs = rng.choice(n, size=k, replace=False) + 1
                signs = rng.integers(0, 2, size=k) * 2 - 1
                clauses.append([int(v * s) for v, s in zip(vs, signs)])
            f = CnfFormula(n, clauses)
            g = build_lcg(f)
            params = init_params(cfg, i)
            x = make_input_features(g, cfg.random_feature_dim, (7, i))
            means.append(float(forward(params, g, x).mean()))
        lo, hi = min(means), max(means)
        assert 0.02 <= lo and hi <= 0.10, (lo, hi)
        print(f"\nACCEPTANCE 7 init contract (per-graph mean mu in "
              f"[{lo:.4f}, {hi:.4f}] over 100 graphs, anchor "
              f"sigmoid(-3)={1/(1+math.exp(3)):.4f}): PASS")


class TestCriterion08TrainingEfficacy:
    def test_desk_scale_training(self, trained_model):
        params, held = trained_model
        engine = SatEngine()
        kept = []
        fractions = []
        for j, f in enumerate(held):
            g = build_lcg(f)
            x = make_input_features(g, params.config.random_feature_dim,
                                    (777, j))
            out = threshold_prune(f, forward(params, g, x), 10, engine)
            assert out.unsat or out.pruned == f
            if out.kept_fraction < 1:
                assert not SatEngine().is_satisfiable(out.pruned), \
                    f"held-out {j}: pruned formula satisfiable"
            kept.append(out.kept_fraction)
            fractions.append(1.0 - out.kept_fraction)
        mean_kept = float(np.mean(kept))
        assert mean_kept < 0.9, mean_kept

        sat_count = 0
        for j, (f, fraction) in enumerate(zip(held, fractions)):
            out = random_prune(f, fraction, (55, j), engine)
            if not out.unsat:
                sat_count += 1
        sat_rate = sat_count / len(held)
        assert sat_rate > 0.5, sat_rate
        print(f"\nACCEPTANCE 8 training efficacy on 200 held-out formulas: "
              f"mean kept {mean_kept:.3f} < 0.9, pruned UNSAT 200/200, "
              f"random matched-fraction SAT rate {sat_rate:.0%} > 50%: PASS")


class TestCriterion09EnumerationTrend:
    def test_pruning_does_not_hurt_at_one_second(self, trained_model):
        params, held = trained_model
        import os
        import tempfile
        from musprune.model import save_checkpoint
        base_counts, pruned_counts = [], []
        none_pruner = make_pruner(PrunerSpec(kind="none"))
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "model.npz")
            save_checkpoint(ckpt, params)
            # The checkpoint is read here, once.
            model_pruner = make_pruner(PrunerSpec(kind="model",
                                                  checkpoint=ckpt, k=10))
        for j, f in enumerate(held):
            rec_b = run_pipeline(f, none_pruner, enumerate_marco, 1.0,
                                 seed=j, audit_sample=0)
            rec_p = run_pipeline(f, model_pruner, enumerate_marco, 1.0,
                                 seed=j, audit_sample=0)
            base_counts.append(rec_b.mus_count)
            pruned_counts.append(rec_p.mus_count)
        base = np.array(base_counts, dtype=float)
        pruned = np.array(pruned_counts, dtype=float)
        stderr = float(base.std(ddof=1) / math.sqrt(len(base)))
        assert pruned.mean() >= base.mean() - stderr, \
            (pruned.mean(), base.mean(), stderr)
        print(f"\nACCEPTANCE 9 enumeration trend at 1s over 200 formulas: "
              f"pruned {pruned.mean():.2f} vs baseline {base.mean():.2f} "
              f"(- 1 SE = {base.mean() - stderr:.2f}): PASS")


class TestCriterion10GeneratorContracts:
    def test_sr_contracts_500(self, sr_corpus_500):
        for i, f in enumerate(sr_corpus_500):
            assert not truth_table_satisfiable(f), f"SR {i} satisfiable"
            trimmed = CnfFormula(f.num_vars, f.clauses[:-1])
            assert truth_table_satisfiable(trimmed), \
                f"SR {i} minus last clause still UNSAT"
        print(f"\nACCEPTANCE 10a SR contracts (UNSAT 500/500, minus-last SAT "
              f"500/500): PASS")

    def test_coloring_and_stat_matched_contracts(self):
        engine = SatEngine()
        rng = np.random.default_rng(10)
        for i in range(40):
            f = gen_graph_coloring((6, 12), 0.8, (3, 5), seed=(10, i),
                                   engine=engine)
            assert not engine.is_satisfiable(f)
        # clause-count identity checked on explicit encodings
        for i in range(40):
            n = int(rng.integers(3, 10))
            k = int(rng.integers(2, 6))
            edges = [(u, v) for u in range(1, n + 1)
                     for v in range(u + 1, n + 1) if rng.random() < 0.8]
            f = coloring_encoding(n, edges, k)
            assert f.num_clauses == n + n * k * (k - 1) // 2 + len(edges) * k
        target = clause_stats(gen_sr_random(20, seed=1010))
        for i in range(40):
            f = gen_stat_matched(target, seed=(12, i), engine=engine)
            assert not engine.is_satisfiable(f)
        print("ACCEPTANCE 10b coloring clause-count identity (40/40) and "
              "UNSAT outputs (80/80): PASS")


class TestCriterion11CliDeterminism:
    def test_reports_reproducible(self, tmp_path):
        import csv
        import json
        import os
        from musprune.bench import WALL_TIME_FIELDS
        from musprune.cnf import write_dimacs

        problems = tmp_path / "problems"
        problems.mkdir()
        for i in range(3):
            (problems / f"{i:03d}.cnf").write_text(
                write_dimacs(small_unsat((11, i))))

        outputs = []
        for run in ("x", "y"):
            gen_dir = tmp_path / f"gen_{run}"
            assert cli_main(["generate", "--variant", "sr_random",
                             "--count", "3", "--min-vars", "5",
                             "--max-vars", "8", "--out", str(gen_dir),
                             "--seed", "9"]) == 0
            prefix = str(tmp_path / f"report_{run}")
            assert cli_main(["bench", "--problems", str(problems),
                             "--pruner", "none", "--pruner", "var_freq",
                             "--budgets", "5", "--repetitions", "2",
                             "--seed", "4", "--out", prefix,
                             "--formats", "csv", "json", "markdown"]) == 0
            gen_bytes = {name: open(gen_dir / name, "rb").read()
                         for name in sorted(os.listdir(gen_dir))}
            records = list(csv.DictReader(open(f"{prefix}.records.csv")))
            for row in records:
                for field in WALL_TIME_FIELDS:
                    row.pop(field, None)
                row["problem"] = os.path.basename(row["problem"])
            payload = json.loads(open(f"{prefix}.report.json").read())
            payload["config"]["problems"] = []
            for rec in payload["records"]:
                for field in WALL_TIME_FIELDS:
                    rec.pop(field, None)
                rec["problem"] = os.path.basename(rec["problem"])
            table = open(f"{prefix}.table.md").read()
            outputs.append((gen_bytes, records, payload, table))
        assert outputs[0] == outputs[1]
        print("\nACCEPTANCE 11 CLI determinism (generate + bench reports "
              "byte-identical modulo wall-time fields): PASS")
