import sys
from dataclasses import astuple

import numpy as np
import pytest

from musprune import lcg, training
from musprune.cnf import CnfFormula
from musprune.generators import gen_sr_random
from musprune.lcg import build_lcg, make_input_features, recover_formula
from musprune.model import (ModelConfig, _forward_with_pullback, forward,
                            init_params, log_prob)
from musprune.sat import SatEngine
from musprune.training import (HISTORY_COLUMNS, OptimizerState, TrainConfig,
                               adam_update, evaluate_loss, prune_loss,
                               reinforce_step, train)

SMALL = ModelConfig(num_layers=2, hidden_dim=8, random_feature_dim=4,
                    mlp_hidden_dim=8)


def tiny_config(**kw):
    defaults = dict(batch_size=2, learning_rate=1e-3, max_formulas=8,
                    samples_per_formula=1, eval_every=2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestPruneLoss:
    def test_sat_penalty(self):
        f = CnfFormula(1, [[1], [-1]])
        assert prune_loss(f, CnfFormula(1, [[1]]), True) == 1.0

    def test_no_pruning_penalty(self):
        f = CnfFormula(1, [[1], [-1]])
        assert prune_loss(f, f, False) == 1.0

    def test_squared_ratio(self):
        f = CnfFormula(2, [[1], [-1], [1, 2], [-2]])
        pruned = f.induced([0, 1, 2])
        assert prune_loss(f, pruned, False) == pytest.approx(0.5625)

    def test_grown_formula_rejected(self):
        f = CnfFormula(1, [[1]])
        grown = CnfFormula(1, [[1], [-1]])
        with pytest.raises(ValueError):
            prune_loss(f, grown, False)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            f = gen_sr_random(6, seed=int(rng.integers(100)))
            keep = rng.random(f.num_clauses) < rng.random()
            pruned = f.induced(np.flatnonzero(keep))
            val = prune_loss(f, pruned, bool(rng.integers(2)))
            assert 0.0 <= val <= 1.0


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = init_params(SMALL, 0)
        state = OptimizerState()
        grads = {k: np.zeros_like(v) for k, v in p.tensors.items()}
        p2 = adam_update(p, state, grads, lr=0.1)
        assert state.t == 1 and state.skipped_steps == 0
        for k in p.tensors:
            assert np.allclose(p2.tensors[k], p.tensors[k])

    def test_first_step_size_is_lr(self):
        # Bias correction makes the first step ~lr regardless of magnitude.
        p = init_params(SMALL, 0)
        for scale in (1e-4, 1.0, 1e4):
            grads = {k: np.full_like(v, scale) for k, v in p.tensors.items()}
            p2 = adam_update(p, OptimizerState(), grads, lr=0.01)
            delta = p2.tensors["head.w1"] - p.tensors["head.w1"]
            assert np.allclose(np.abs(delta), 0.01, rtol=1e-3)

    def test_constant_gradient_step_approaches_lr(self):
        p = init_params(SMALL, 0)
        state = OptimizerState()
        grads = {k: np.full_like(v, 0.5) for k, v in p.tensors.items()}
        prev = p
        for _ in range(50):
            p = adam_update(p, state, grads, lr=0.01)
            prev_delta = p.tensors["head.b1"] - prev.tensors["head.b1"]
            prev = p
        assert state.t == 50
        assert np.allclose(np.abs(prev_delta), 0.01, rtol=1e-2)

    def test_step_updates_state_in_place(self):
        p = init_params(SMALL, 0)
        state = OptimizerState()
        grads = {k: np.full_like(v, 0.5) for k, v in p.tensors.items()}
        adam_update(p, state, grads, lr=0.01)
        assert state.t == 1
        assert set(state.m) == set(state.v) == set(p.tensors)
        assert np.allclose(state.m["head.b1"], 0.05)
        assert np.allclose(state.v["head.b1"], 0.00025)

    def test_nonfinite_gradient_skipped_and_flagged(self):
        p = init_params(SMALL, 0)
        state = OptimizerState()
        grads = {k: np.zeros_like(v) for k, v in p.tensors.items()}
        grads["head.b1"] = grads["head.b1"] + np.nan
        p2 = adam_update(p, state, grads, lr=0.1)
        assert p2 is p
        assert state.skipped_steps == 1
        assert state.t == 0
        for k in p.tensors:
            assert np.array_equal(p2.tensors[k], p.tensors[k])

    def test_skipped_step_leaves_moments_untouched(self):
        p = init_params(SMALL, 0)
        state = OptimizerState()
        ones = {k: np.ones_like(v) for k, v in p.tensors.items()}
        adam_update(p, state, ones, lr=0.01)
        m, v = dict(state.m), dict(state.v)
        m_values = {k: a.copy() for k, a in m.items()}
        bad = dict(ones, **{"head.w2": ones["head.w2"] * np.inf})
        adam_update(p, state, bad, lr=0.01)
        assert (state.t, state.skipped_steps) == (1, 1)
        for k in p.tensors:
            assert state.m[k] is m[k] and state.v[k] is v[k]
            assert np.array_equal(state.m[k], m_values[k])


class TestReinforceStep:
    def test_deterministic(self):
        batch = [gen_sr_random(8, seed=i) for i in range(3)]
        cfg = tiny_config(batch_size=3)
        out = []
        for _ in range(2):
            p = init_params(SMALL, 0)
            state = OptimizerState()
            p2, _, m = reinforce_step(p, batch, SatEngine(), state, seed=7,
                                      config=cfg, step=0)
            out.append((p2, m))
        for k in out[0][0].tensors:
            assert np.array_equal(out[0][0].tensors[k], out[1][0].tensors[k])
        assert out[0][1].loss == out[1][1].loss

    def test_returns_the_given_state_advanced(self):
        batch = [gen_sr_random(8, seed=i) for i in range(2)]
        state = OptimizerState()
        _, returned, _ = reinforce_step(init_params(SMALL, 0), batch,
                                        SatEngine(), state, seed=0,
                                        config=tiny_config(), step=0)
        assert returned is state
        assert state.t == 1 and state.skipped_steps == 0

    def test_one_sat_call_per_sample(self):
        batch = [gen_sr_random(8, seed=i) for i in range(4)]
        for samples in (1, 3):
            engine = SatEngine()
            cfg = tiny_config(batch_size=4, samples_per_formula=samples)
            p = init_params(SMALL, 0)
            reinforce_step(p, batch, engine, OptimizerState(), seed=0,
                           config=cfg, step=0)
            assert engine.calls == len(batch) * samples

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            reinforce_step(init_params(SMALL, 0), [], SatEngine(),
                           OptimizerState(), seed=0, config=tiny_config())

    def test_metrics_ranges(self):
        batch = [gen_sr_random(10, seed=i) for i in range(4)]
        p = init_params(SMALL, 0)
        _, _, m = reinforce_step(p, batch, SatEngine(), OptimizerState(),
                                 seed=0, config=tiny_config(batch_size=4),
                                 step=0)
        assert 0.0 <= m.loss <= 1.0
        assert 0.0 <= m.sat_failure_rate <= 1.0
        assert 0.0 <= m.pruned_fraction <= 1.0
        assert m.grad_norm >= 0.0

    def test_one_graph_per_formula(self, monkeypatch):
        # A formula's samples share its graph: only their seeded features
        # differ, so the step equals one that builds a graph per sample.
        batch = [gen_sr_random(8, seed=i) for i in range(3)]
        cfg = tiny_config(batch_size=3, samples_per_formula=4,
                          use_baseline=True)

        def step():
            state = OptimizerState(baseline=0.25)
            params, _, metrics = reinforce_step(
                init_params(SMALL, 0), batch, SatEngine(), state, seed=5,
                config=cfg, step=2)
            return params, metrics, state

        builds = []
        original = lcg.build_lcg

        def counting(formula):
            builds.append(formula)
            return original(formula)

        for name, module in list(sys.modules.items()):
            if (name.startswith("musprune.")
                    and vars(module).get("build_lcg") is original):
                monkeypatch.setattr(module, "build_lcg", counting)
        shared = step()
        assert builds == batch
        monkeypatch.undo()

        score = training.score_with_pullback
        monkeypatch.setattr(
            training, "score_with_pullback", lambda params, graph, seed:
            score(params, build_lcg(recover_formula(graph)), seed))
        fresh = step()
        for a, b in ((shared[0].tensors, fresh[0].tensors),
                     (shared[2].m, fresh[2].m), (shared[2].v, fresh[2].v)):
            assert set(a) == set(b)
            for k in a:
                assert a[k].tobytes() == b[k].tobytes(), k
        assert astuple(shared[1]) == astuple(fresh[1])
        assert ((shared[2].t, shared[2].baseline, shared[2].skipped_steps)
                == (fresh[2].t, fresh[2].baseline, fresh[2].skipped_steps))


class TestEstimatorUnbiasedness:
    def test_exhaustive_expectation_matches_gradient(self):
        # For every M <= 8 toy: sum_masks p(mask) loss(mask) grad log p(mask)
        # equals the exact gradient of E[loss], computed by chaining the
        # analytic dE/dmu through the network Jacobian.
        engine = SatEngine()
        for trial in range(3):
            f = gen_sr_random(4, seed=trial + 40)
            if f.num_clauses > 8:
                continue
            g = build_lcg(f)
            p = init_params(SMALL, trial)
            x = make_input_features(g, SMALL.random_feature_dim, trial)
            mu = forward(p, g, x)
            m = f.num_clauses
            score_expect = {k: np.zeros_like(v) for k, v in p.tensors.items()}
            d_mu_exact = np.zeros(m)
            for bits in range(2 ** m):
                pruned_bits = np.array([(bits >> i) & 1 == 1 for i in range(m)])
                keep = ~pruned_bits
                pruned = f.induced(np.flatnonzero(keep))
                loss = prune_loss(f, pruned, engine.is_satisfiable(pruned))
                prob_factors = np.where(pruned_bits, mu, 1 - mu)
                prob = float(np.prod(prob_factors))
                glp = _forward_with_pullback(p, g, x)[1](keep, 1.0)
                for k in score_expect:
                    score_expect[k] += prob * loss * glp[k]
                # dE/dmu_i = sum over masks of loss * dprob/dmu_i
                for i in range(m):
                    others = np.delete(prob_factors, i)
                    sign = 1.0 if pruned_bits[i] else -1.0
                    d_mu_exact[i] += loss * sign * float(np.prod(others))
            # chain dE/dmu through the certified backward pass
            from musprune.model import _backward_from_logits, _forward_cached
            _, cache = _forward_cached(p, g, x)
            d_logits = d_mu_exact * mu * (1 - mu)
            exact = _backward_from_logits(p, cache, d_logits)
            for k in score_expect:
                assert np.allclose(score_expect[k], exact[k], atol=1e-8), k

    def test_constant_loss_zero_expected_gradient(self):
        # With loss == 1 for every mask, E[loss * grad log p] = grad E[1] = 0.
        f = CnfFormula(2, [[1], [-1], [2]])
        g = build_lcg(f)
        p = init_params(SMALL, 1)
        x = make_input_features(g, SMALL.random_feature_dim, 5)
        mu = forward(p, g, x)
        m = f.num_clauses
        total = {k: np.zeros_like(v) for k, v in p.tensors.items()}
        for bits in range(2 ** m):
            pruned_bits = np.array([(bits >> i) & 1 == 1 for i in range(m)])
            keep = ~pruned_bits
            prob = float(np.prod(np.where(pruned_bits, mu, 1 - mu)))
            glp = _forward_with_pullback(p, g, x)[1](keep, 1.0)
            for k in total:
                total[k] += prob * 1.0 * glp[k]
        for k, v in total.items():
            assert np.allclose(v, 0.0, atol=1e-10), k


class TestTrain:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_learning_rate_must_be_finite(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            tiny_config(learning_rate=rate)

    def test_min_delta_is_not_settable(self):
        with pytest.raises(TypeError, match="min_delta"):
            tiny_config(min_delta=float("nan"))

    def test_initial_eval_loss_near_one(self):
        formulas = [gen_sr_random(10, seed=i) for i in range(6)]
        p = init_params(SMALL, 0)
        loss = evaluate_loss(p, formulas, SatEngine(), seed=0)
        assert loss > 0.5  # near-zero pruning at a conservative init

    def test_evaluate_loss_rejects_empty_eval_set(self):
        with pytest.raises(ValueError, match="eval set"):
            evaluate_loss(init_params(SMALL, 0), [], SatEngine())

    def test_rejects_sat_formula_with_identification(self):
        formulas = [gen_sr_random(6, seed=0), CnfFormula(2, [[1, 2]])]
        cfg = tiny_config()
        with pytest.raises(ValueError, match="formula 1"):
            train(cfg, formulas, SatEngine(), [], init_params(SMALL, 0))

    def test_rejects_empty_source(self):
        with pytest.raises(ValueError, match="empty"):
            train(tiny_config(), [], SatEngine(), [], init_params(SMALL, 0))

    def test_deterministic_trajectory(self):
        formulas = [gen_sr_random(7, seed=i) for i in range(4)]
        runs = []
        for _ in range(2):
            cfg = tiny_config(max_formulas=8)
            p, hist = train(cfg, formulas, SatEngine(), formulas[:2],
                            init_params(SMALL, 0))
            runs.append((p, hist))
        assert [h["loss"] for h in runs[0][1]] == [h["loss"] for h in runs[1][1]]
        for k in runs[0][0].tensors:
            assert np.array_equal(runs[0][0].tensors[k], runs[1][0].tensors[k])

    def test_early_stop_on_plateau(self):
        formulas = [gen_sr_random(7, seed=i) for i in range(4)]
        cfg = tiny_config(max_formulas=10_000, eval_every=1,
                          early_stop_window=3, batch_size=2)
        p, hist = train(cfg, formulas, SatEngine(), formulas[:2],
                        init_params(SMALL, 0))
        # must stop far before max_formulas on a plateaued stream
        assert len(hist) < 10_000 // cfg.batch_size

    def test_history_schema(self):
        formulas = [gen_sr_random(7, seed=i) for i in range(4)]
        cfg = tiny_config(max_formulas=4)
        _, hist = train(cfg, formulas, SatEngine(), formulas[:1],
                        init_params(SMALL, 0))
        assert all(tuple(row) == HISTORY_COLUMNS for row in hist)
        assert HISTORY_COLUMNS == ("step", "formulas_seen", "loss",
                                   "pruned_fraction", "sat_failure_rate",
                                   "grad_norm", "eval_loss")


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        import csv
        from musprune.training import history_to_csv
        history = [{"step": 1, "formulas_seen": 2, "loss": 0.5,
                    "pruned_fraction": 0.1, "sat_failure_rate": 0.2,
                    "grad_norm": 3.0, "eval_loss": ""}]
        path = tmp_path / "hist.csv"
        history_to_csv(history, path)
        rows = list(csv.DictReader(open(path)))
        assert rows[0]["loss"] == "0.5"
        assert rows[0]["eval_loss"] == ""
        assert b"\r" not in path.read_bytes()
