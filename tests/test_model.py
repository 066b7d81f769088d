import numpy as np
import pytest

from musprune.cnf import CnfFormula
from musprune.generators import gen_sr_random
from musprune.lcg import build_lcg, make_input_features
from musprune.model import (LOG_EPS, ModelConfig, _forward_with_pullback,
                            forward, init_params, load_checkpoint, log_prob,
                            sample_mask, save_checkpoint, score_clauses,
                            score_with_pullback)

SMALL = ModelConfig(num_layers=2, hidden_dim=8, random_feature_dim=4,
                    mlp_hidden_dim=8)


def small_setup(formula_seed=0, param_seed=1, feature_seed=2, n_vars=10):
    f = gen_sr_random(n_vars, seed=formula_seed)
    g = build_lcg(f)
    p = init_params(SMALL, param_seed)
    x = make_input_features(g, SMALL.random_feature_dim, feature_seed)
    return f, g, p, x


class TestInit:
    def test_same_seed_identical(self):
        a = init_params(SMALL, 5)
        b = init_params(SMALL, 5)
        assert set(a.tensors) == set(b.tensors)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])

    def test_head_bias_value(self):
        p = init_params(ModelConfig(), 0)
        assert float(p.tensors["head.b2"]) == -3.0
        # sigmoid(-3) = 0.04742..., the zero-weight limit of mean mu
        assert 1.0 / (1.0 + np.exp(3.0)) == pytest.approx(0.047425873, abs=1e-9)

    def test_fresh_model_scores_conservative(self):
        f, g, p, x = small_setup()
        p_full = init_params(ModelConfig(), 3)
        x_full = make_input_features(g, 32, 4)
        mu = forward(p_full, g, x_full)
        assert ((mu > 0.0) & (mu < 0.2)).all()

    def test_mean_mu_band_over_graphs(self):
        cfg = ModelConfig()
        means = []
        for i in range(20):
            f = gen_sr_random(12 + (i % 9), seed=100 + i)
            g = build_lcg(f)
            p = init_params(cfg, i)
            x = make_input_features(g, cfg.random_feature_dim, i)
            means.append(forward(p, g, x).mean())
        assert all(0.02 <= m <= 0.10 for m in means)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ModelConfig(num_layers=0)
        with pytest.raises(ValueError):
            ModelConfig(random_feature_dim=-1)


class TestForward:
    def test_deterministic(self):
        f, g, p, x = small_setup()
        assert np.array_equal(forward(p, g, x), forward(p, g, x))

    def test_scores_strictly_inside_unit_interval(self):
        f, g, p, x = small_setup()
        mu = forward(p, g, x)
        assert mu.shape == (f.num_clauses,)
        assert ((mu > 0) & (mu < 1)).all()

    def test_zero_weights_collapse_to_bias(self):
        f, g, p, x = small_setup()
        for k, v in p.tensors.items():
            if k != "head.b2":
                p.tensors[k] = np.zeros_like(v)
        mu = forward(p, g, x)
        assert np.allclose(mu, 1.0 / (1.0 + np.exp(3.0)))

    def test_clause_permutation_equivariance(self):
        f, g, p, x = small_setup(n_vars=8)
        rng = np.random.default_rng(0)
        perm = rng.permutation(f.num_clauses)
        permuted = CnfFormula(f.num_vars, [f.clauses[j] for j in perm])
        g2 = build_lcg(permuted)
        # permute the clause-node feature rows the same way
        n_lit = g.num_literal_nodes
        x2 = x.copy()
        x2[n_lit:] = x[n_lit:][perm]
        mu = forward(p, g, x)
        mu2 = forward(p, g2, x2)
        assert np.allclose(mu2, mu[perm], atol=1e-12)

    def test_identical_twin_clauses_score_identically(self):
        f = CnfFormula(2, [[1, 2], [1, 2], [-1]])
        g = build_lcg(f)
        p = init_params(SMALL, 0)
        x = make_input_features(g, SMALL.random_feature_dim, 0)
        n_lit = g.num_literal_nodes
        x[n_lit + 1] = x[n_lit]  # same features for the twin clause nodes
        mu = forward(p, g, x)
        assert mu[0] == pytest.approx(mu[1], abs=1e-14)

    def test_shape_mismatch_rejected(self):
        f, g, p, x = small_setup()
        with pytest.raises(ValueError, match="shape"):
            forward(p, g, x[:-1])


class TestScoreClauses:
    @pytest.mark.parametrize("seed", [
        7, np.random.SeedSequence(entropy=(0, 2 ** 48, 3, 0))])
    def test_equals_explicit_chain(self, seed):
        f, g, p, _ = small_setup()
        x = make_input_features(g, SMALL.random_feature_dim, seed)
        assert np.array_equal(score_clauses(p, f, seed), forward(p, g, x))


class TestScoreWithPullback:
    def test_unit_signal_equals_explicit_chain(self):
        f, g, p, _ = small_setup()
        seed = np.random.SeedSequence(entropy=(0, 1, 2, 3))
        x = make_input_features(g, SMALL.random_feature_dim, seed)
        mu, pullback = score_with_pullback(p, g, seed)
        assert np.array_equal(mu, forward(p, g, x))
        keep, _ = sample_mask(mu, 11)
        grads = pullback(keep, 1.0)
        expected = _forward_with_pullback(p, g, x)[1](keep, 1.0)
        assert set(grads) == set(expected)
        for k in grads:
            assert np.array_equal(grads[k], expected[k]), k

    @pytest.mark.parametrize("signal", [-0.75, 0.0, 0.3, 2.5])
    def test_signal_scales_the_gradient(self, signal):
        f, g, p, _ = small_setup()
        x = make_input_features(g, SMALL.random_feature_dim, 7)
        mu, pullback = score_with_pullback(p, g, 7)
        keep, _ = sample_mask(mu, 11)
        grads = pullback(keep, signal)
        unit = _forward_with_pullback(p, g, x)[1](keep, 1.0)
        for k in grads:
            assert np.allclose(grads[k], signal * unit[k],
                               rtol=1e-12, atol=1e-15), k

    def test_mask_length_checked(self):
        _, g, p, _ = small_setup()
        mu, pullback = score_with_pullback(p, g, 7)
        with pytest.raises(ValueError, match="mask length"):
            pullback(np.ones(len(mu) + 1, dtype=bool), 1.0)


class TestSampling:
    def test_uniform_half_logprob(self):
        mu = np.full(3, 0.5)
        for seed in range(5):
            mask, lp = sample_mask(mu, seed)
            assert lp == pytest.approx(3 * np.log(0.5))

    def test_mu_to_zero_keeps_everything(self):
        mu = np.full(6, 1e-12)
        mask, _ = sample_mask(mu, 0)
        assert mask.all()

    def test_logprob_agrees_with_closed_form(self):
        f, g, p, x = small_setup()
        mu = forward(p, g, x)
        mask, lp = sample_mask(mu, 3)
        assert lp == pytest.approx(log_prob(mu, mask), abs=1e-12)

    def test_reproducible(self):
        mu = np.linspace(0.1, 0.9, 7)
        a, _ = sample_mask(mu, 11)
        b, _ = sample_mask(mu, 11)
        assert np.array_equal(a, b)

    def test_empirical_frequencies(self):
        mu = np.array([0.1, 0.35, 0.8])
        n = 10_000
        counts = np.zeros(3)
        for s in range(n):
            mask, _ = sample_mask(mu, (42, s))
            counts += ~mask
        freq = counts / n
        sigma = np.sqrt(mu * (1 - mu) / n)
        assert (np.abs(freq - mu) < 3 * sigma).all()

    def test_probability_normalization(self):
        # exp(log_prob) sums to 1 over all masks
        mu = np.array([0.2, 0.5, 0.9, 0.33])
        total = 0.0
        for bits in range(2 ** 4):
            mask = np.array([(bits >> i) & 1 == 1 for i in range(4)])
            total += np.exp(log_prob(mu, mask))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestGradients:
    def test_finite_difference_small(self):
        # Coordinates whose perturbation flips a relu sign are skipped:
        # central differences are not a valid oracle across a kink.
        from musprune.model import _forward_cached

        def lp_and_signs(p, g, x, mask):
            _, cache = _forward_cached(p, g, x)
            signs = tuple((pre > 0).tobytes() for pre in cache["pres"])
            signs += ((cache["pre1"] > 0).tobytes(),)
            return log_prob(cache["mu"], mask), signs

        rng = np.random.default_rng(0)
        compared = 0
        for trial in range(3):
            f, g, p, x = small_setup(formula_seed=trial, param_seed=trial + 10,
                                     feature_seed=trial + 20)
            mu = forward(p, g, x)
            mask, _ = sample_mask(mu, trial)
            grads = _forward_with_pullback(p, g, x)[1](mask, 1.0)
            h = 1e-5
            for key in ("head.b2", "head.w2", "gnn0.lit_to_clause",
                        "gnn1.self_cls", "gnn0.negation"):
                arr = p.tensors[key]
                flat = arr.reshape(-1)
                for idx in rng.choice(flat.size, size=min(6, flat.size),
                                      replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp_plus, signs_plus = lp_and_signs(p, g, x, mask)
                    flat[idx] = orig - h
                    lp_minus, signs_minus = lp_and_signs(p, g, x, mask)
                    flat[idx] = orig
                    if signs_plus != signs_minus:
                        continue
                    fd = (lp_plus - lp_minus) / (2 * h)
                    an = grads[key].reshape(-1)[idx]
                    assert abs(an - fd) / max(abs(an), abs(fd), 1e-6) < 1e-4
                    compared += 1
        assert compared > 50

    def test_head_bias_closed_form(self):
        f, g, p, x = small_setup()
        mu = forward(p, g, x)
        mask, _ = sample_mask(mu, 1)
        grads = _forward_with_pullback(p, g, x)[1](mask, 1.0)
        assert float(grads["head.b2"]) == pytest.approx(
            float((~mask - mu).sum()), abs=1e-12)

    def test_saturated_likelihood_near_zero_gradient(self):
        f, g, p, x = small_setup()
        for k, v in p.tensors.items():
            if k != "head.b2":
                p.tensors[k] = np.zeros_like(v)
        p.tensors["head.b2"] = np.array(-30.0)  # mu ~ 1e-13, all-keep certain
        mask = np.ones(f.num_clauses, dtype=bool)
        grads = _forward_with_pullback(p, g, x)[1](mask, 1.0)
        norm = sum(float((g_ * g_).sum()) for g_ in grads.values())
        assert norm < 1e-10

    def test_all_params_reachable(self):
        f, g, p, x = small_setup()
        mu = forward(p, g, x)
        mask, _ = sample_mask(mu, 2)
        grads = _forward_with_pullback(p, g, x)[1](mask, 1.0)
        assert set(grads) == set(p.tensors)
        nonzero = [k for k, g_ in grads.items() if np.abs(g_).sum() > 0]
        assert "gnn0.negation" in nonzero
        assert "gnn0.clause_to_lit" in nonzero


RELATIONS = ("lit_to_clause", "clause_to_lit", "negation")
# Negation's backward message reaches a weight only three layers down.
THREE_LAYERS = ModelConfig(num_layers=3, hidden_dim=8, random_feature_dim=4,
                           mlp_hidden_dim=8)
ONE_LAYER = ModelConfig(num_layers=1, hidden_dim=8, random_feature_dim=0,
                        mlp_hidden_dim=8)


def dense_reference(params, formula, x, keep, signal):
    """mu and the pullback's gradients from dense |V|x|V| adjacencies built
    from the clauses, A[target, source] counting edges, and A.T as the
    backward pass. Literal v is row v - 1, -v row N + v - 1, clause j row
    2N + j."""
    t, cfg = params.tensors, params.config
    n = formula.num_vars
    v = 2 * n + formula.num_clauses
    adj = {rel: np.zeros((v, v)) for rel in RELATIONS}
    for j, clause in enumerate(formula.clauses):
        for lit in clause:
            row = lit - 1 if lit > 0 else n - lit - 1
            adj["lit_to_clause"][2 * n + j, row] += 1.0
            adj["clause_to_lit"][row, 2 * n + j] += 1.0
    for i in range(n):
        adj["negation"][i, n + i] = adj["negation"][n + i, i] = 1.0
    is_lit = (np.arange(v) < 2 * n)[:, None]
    h, inputs, pres = x, [], []
    for l in range(cfg.num_layers):
        inputs.append(h)
        pre = np.where(is_lit, h @ t[f"gnn{l}.self_lit"].T + t[f"gnn{l}.bias_lit"],
                       h @ t[f"gnn{l}.self_cls"].T + t[f"gnn{l}.bias_cls"])
        for rel in RELATIONS:
            pre = pre + adj[rel] @ h @ t[f"gnn{l}.{rel}"].T
        pres.append(pre)
        h = np.maximum(pre, 0.0)
    z = h[~is_lit[:, 0]]
    pre1 = z @ t["head.w1"].T + t["head.b1"]
    h1 = np.maximum(pre1, 0.0)
    mu = 1.0 / (1.0 + np.exp(-(h1 @ t["head.w2"] + t["head.b2"])))
    active = (mu > LOG_EPS) & (mu < 1.0 - LOG_EPS)
    d_logits = np.where(active, ~keep - mu, 0.0) * signal
    grads = {"head.b2": np.array(d_logits.sum()), "head.w2": d_logits @ h1}
    d_pre1 = np.outer(d_logits, t["head.w2"]) * (pre1 > 0)
    grads["head.b1"] = d_pre1.sum(axis=0)
    grads["head.w1"] = d_pre1.T @ z
    d_h = np.zeros((v, cfg.hidden_dim))
    d_h[~is_lit[:, 0]] = d_pre1 @ t["head.w1"]
    for l in reversed(range(cfg.num_layers)):
        d_pre = d_h * (pres[l] > 0)
        d_h = np.zeros_like(inputs[l])
        for kind, rows in (("lit", is_lit), ("cls", ~is_lit)):
            d_type = d_pre * rows
            grads[f"gnn{l}.self_{kind}"] = d_type.T @ inputs[l]
            grads[f"gnn{l}.bias_{kind}"] = d_type.sum(axis=0)
            d_h += d_type @ t[f"gnn{l}.self_{kind}"]
        for rel in RELATIONS:
            back = adj[rel].T @ d_pre
            grads[f"gnn{l}.{rel}"] = back.T @ inputs[l]
            d_h += back @ t[f"gnn{l}.{rel}"]
    return mu, grads


def reference_formulas():
    edge = [CnfFormula(0, [[]]), CnfFormula(0, []), CnfFormula(2, [[], [1, 2]]),
            CnfFormula(3, [[1], [-1]]),  # variables 2 and 3 occur nowhere
            CnfFormula(2, [[1, 1, -2], [-1], [2]]), CnfFormula(4, [])]
    return edge + [gen_sr_random(n, seed=(n, r))
                   for n in range(3, 25) for r in range(2)]


class TestRelationBlocks:
    # The default configuration runs on the six edge cases and every third
    # SR formula; the small ones on all 50.
    @pytest.mark.parametrize("config, sr_stride", [
        (THREE_LAYERS, 1), (ONE_LAYER, 1), (ModelConfig(), 3)],
        ids=["three_layers", "one_layer_no_random", "default"])
    def test_matches_dense_reference(self, config, sr_stride):
        params = init_params(config, 4)
        formulas = reference_formulas()
        assert len(formulas) == 50
        for i, f in enumerate(formulas):
            if i >= 6 and (i - 6) % sr_stride:
                continue
            g = build_lcg(f)
            x = make_input_features(g, config.random_feature_dim, i)
            keep = np.random.default_rng(i).random(f.num_clauses) < 0.6
            mu, pullback = score_with_pullback(params, g, i)
            grads = pullback(keep, 0.7)
            ref_mu, ref_grads = dense_reference(params, f, x, keep, 0.7)
            np.testing.assert_allclose(mu, ref_mu, rtol=1e-12, atol=1e-12)
            assert set(grads) == set(ref_grads) == set(params.tensors)
            for k in grads:
                assert grads[k].shape == params.tensors[k].shape
                np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12,
                                           atol=1e-12, err_msg=f"{i} {k}")

    def test_no_node_by_node_matrix(self, monkeypatch):
        # Every scipy sparse container runs this constructor.
        from scipy.sparse import _base
        built = []
        init = _base._spbase.__init__

        def recording(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_base._spbase, "__init__", recording)
        params = init_params(SMALL, 1)
        for f in [CnfFormula(0, [[]]), CnfFormula(3, [[1], [-1]]),
                  gen_sr_random(12, seed=3)]:
            built.clear()
            mu, pullback = score_with_pullback(params, build_lcg(f), 0)
            pullback(np.ones(f.num_clauses, dtype=bool), 1.0)
            shapes = [m.shape for m in built]
            num_nodes = 2 * f.num_vars + f.num_clauses
            assert shapes and (num_nodes, num_nodes) not in shapes


LAST_LAYER_LITERAL_TENSORS = ("gnn4.self_lit", "gnn4.bias_lit",
                              "gnn4.clause_to_lit", "gnn4.negation")


class TestDeadWork:
    """The head reads clause rows only, so the last layer computes no
    literal rows and its four literal tensors never reach mu."""

    def test_last_layer_literal_tensors_get_zero_gradient(self):
        from musprune.model import _forward_cached
        params = init_params(ModelConfig(), 2)
        f = gen_sr_random(20, seed=5)
        g = build_lcg(f)
        x = make_input_features(g, params.config.random_feature_dim, 1)
        _, cache = _forward_cached(params, g, x)
        assert cache["pres"][-1].shape == (f.num_clauses, 64)
        assert len(cache["pres"]) == 2 * 5 - 1
        keep = np.random.default_rng(0).random(f.num_clauses) < 0.5
        grads = _forward_with_pullback(params, g, x)[1](keep, 1.0)
        for k, grad in grads.items():
            if k in LAST_LAYER_LITERAL_TENSORS:
                assert not grad.any(), k
            else:
                assert grad.any(), k

    def test_reinforce_step_leaves_them_unchanged(self):
        from musprune.sat import SatEngine
        from musprune.training import OptimizerState, TrainConfig, reinforce_step
        params = init_params(ModelConfig(), 3)
        batch = [gen_sr_random(12, seed=i) for i in range(3)]
        new, _, _ = reinforce_step(
            params, batch, SatEngine(), OptimizerState(), seed=0,
            config=TrainConfig(batch_size=3, learning_rate=1e-2), step=0)
        for k, before in params.tensors.items():
            after = new.tensors[k]
            if k in LAST_LAYER_LITERAL_TENSORS:
                assert after.tobytes() == before.tobytes(), k
            else:
                assert not np.array_equal(after, before), k

    def test_pullback_builds_no_sparse_matrix(self, monkeypatch):
        # The incidence and its transpose are built once per graph, by
        # build_lcg and the forward pass; every scipy sparse container
        # runs this constructor.
        from scipy.sparse import _base
        built = []
        init = _base._spbase.__init__

        def recording(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        params = init_params(ModelConfig(), 1)
        for f in [CnfFormula(0, [[]]), CnfFormula(2, [[1, 1, -2], [-1], [2]]),
                  gen_sr_random(15, seed=2)]:
            mu, pullback = score_with_pullback(params, build_lcg(f), 0)
            monkeypatch.setattr(_base._spbase, "__init__", recording)
            pullback(np.random.default_rng(1).random(len(mu)) < 0.5, 1.0)
            monkeypatch.undo()
            assert built == []


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        p = init_params(SMALL, 9)
        path = tmp_path / "model.npz"
        save_checkpoint(path, p)
        q = load_checkpoint(path)
        assert q.config == p.config
        for k in p.tensors:
            assert np.array_equal(q.tensors[k], p.tensors[k])

    def test_version_check(self, tmp_path):
        import json
        import numpy as _np
        path = tmp_path / "bad.npz"
        meta = {"format_version": 99, "config": {}}
        _np.savez(path, __meta__=_np.frombuffer(
            json.dumps(meta).encode(), dtype=_np.uint8))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, bad", [
        ("head.b1", np.zeros(1)),
        ("gnn0.bias_lit", np.zeros(1)),
        ("gnn1.negation", np.zeros((8, 8), dtype=np.float32)),
        ("head.b2", np.zeros(1)),
    ], ids=["short_head_bias", "short_layer_bias", "float32", "vector_scalar"])
    def test_tensor_shape_and_dtype_checked(self, tmp_path, name, bad):
        p = init_params(SMALL, 0)
        p.tensors[name] = bad
        path = tmp_path / "bad.npz"
        save_checkpoint(path, p)
        with pytest.raises(ValueError, match=f"tensor {name} "):
            load_checkpoint(path)
