"""Clause-pruning model: heterogeneous message passing over the
literal-clause graph, an MLP head producing per-clause prune
probabilities, Bernoulli mask sampling, and exact analytic gradients.

Everything runs in float64. The per-layer update is

    h_v' = relu(W_self[type(v)] h_v + sum_r sum_{u in N_r(v)} W_r h_u + b[type(v)])

with relations r in {literal->clause, clause->literal, negation}. With A
the graph's clause-by-literal incidence and neg its permutation pairing
each literal row with its negation's (both, and A's transpose, built once
per graph), a layer computes one weight product per node type:

    clause rows:  h_cls W_self_cls^T + A (h_lit W_lit_to_clause^T) + b_cls
    literal rows: [h_lit | A^T h_cls | h_lit[neg]]
                  [W_self_lit | W_clause_to_lit | W_negation]^T + b_lit

Both relation products run over the literal rows, which clauses
outnumber: literal->clause messages are multiplied and then summed into
clauses, clause->literal messages summed and then multiplied. The head
reads clause rows only, so the last layer computes no literal rows: its
self_lit, bias_lit, clause_to_lit and negation tensors are kept in the
checkpoint but never reach mu, and their gradient is 0. The backward
pass runs the same products transposed and stops at layer 0's weights.
The two-layer head maps clause-node representations through a relu
hidden layer to a single logit; the sigmoid of the logit is the PRUNE
probability of the clause, so a clause is kept with probability 1 - mu.
The final bias starts at -3, i.e. a fresh model prunes around 5% of
clauses (conservative start).
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .cnf import CnfFormula
from .lcg import LiteralClauseGraph, build_lcg, make_input_features

LOG_EPS = 1e-7
# Damping of neighbor-relation weights at init: sum aggregation over
# high-degree nodes would otherwise swamp the head bias and violate the
# conservative-start contract (mean prune probability near sigmoid(-3)).
_NEIGHBOR_GAIN = 0.1


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 5
    hidden_dim: int = 64
    random_feature_dim: int = 32
    mlp_hidden_dim: int = 64
    head_bias_init: float = -3.0

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if min(self.hidden_dim, self.mlp_hidden_dim) < 1:
            raise ValueError("dimensions must be >= 1")
        if self.random_feature_dim < 0:
            raise ValueError("random_feature_dim must be >= 0")

    @property
    def input_dim(self) -> int:
        return 2 + self.random_feature_dim


@dataclass
class ModelParams:
    """Named weight tensors plus the configuration they belong to."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


_RELATIONS = ("lit_to_clause", "clause_to_lit", "negation")


def _layer_dims(config: ModelConfig) -> list[tuple[int, int]]:
    dims = []
    d_in = config.input_dim
    for _ in range(config.num_layers):
        dims.append((config.hidden_dim, d_in))
        d_in = config.hidden_dim
    return dims


def _glorot(rng, shape, gain=1.0):
    fan_out, fan_in = shape
    a = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def init_params(config: ModelConfig, seed) -> ModelParams:
    """Fresh parameters: scaled-uniform weights, zero biases, and the head
    output bias at ``head_bias_init`` so a new model barely prunes."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for l, (d_out, d_in) in enumerate(_layer_dims(config)):
        tensors[f"gnn{l}.self_lit"] = _glorot(rng, (d_out, d_in))
        tensors[f"gnn{l}.self_cls"] = _glorot(rng, (d_out, d_in))
        for rel in _RELATIONS:
            tensors[f"gnn{l}.{rel}"] = _glorot(rng, (d_out, d_in), _NEIGHBOR_GAIN)
        tensors[f"gnn{l}.bias_lit"] = np.zeros(d_out)
        tensors[f"gnn{l}.bias_cls"] = np.zeros(d_out)
    tensors["head.w1"] = _glorot(rng, (config.mlp_hidden_dim, config.hidden_dim))
    tensors["head.b1"] = np.zeros(config.mlp_hidden_dim)
    tensors["head.w2"] = _glorot(rng, (1, config.mlp_hidden_dim))[0]
    tensors["head.b2"] = np.array(float(config.head_bias_init))
    return ModelParams(config, tensors)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward_cached(params: ModelParams, graph: LiteralClauseGraph, features):
    cfg = params.config
    t = params.tensors
    h = np.asarray(features, dtype=np.float64)
    if h.shape != (graph.num_nodes, cfg.input_dim):
        raise ValueError(
            f"feature matrix shape {h.shape} does not match "
            f"({graph.num_nodes}, {cfg.input_dim})"
        )
    h_lit, h_cls = h[:graph.num_literal_nodes], h[graph.num_literal_nodes:]
    layers = []
    pres = []
    for l in range(cfg.num_layers):
        pre_cls = (h_cls @ t[f"gnn{l}.self_cls"].T + t[f"gnn{l}.bias_cls"]
                   + graph.incidence @ (h_lit @ t[f"gnn{l}.lit_to_clause"].T))
        if l == cfg.num_layers - 1:  # the head reads clause rows only
            layers.append((h_lit, h_cls, None, None))
            pres.append(pre_cls)
            break
        x_lit = np.concatenate(
            [h_lit, graph.incidence_t @ h_cls, h_lit[graph.negation]], axis=1)
        w_lit = np.concatenate([t[f"gnn{l}.self_lit"], t[f"gnn{l}.clause_to_lit"],
                                t[f"gnn{l}.negation"]], axis=1)
        pre_lit = x_lit @ w_lit.T + t[f"gnn{l}.bias_lit"]
        layers.append((h_lit, h_cls, x_lit, w_lit))
        pres += [pre_lit, pre_cls]
        h_lit, h_cls = np.maximum(pre_lit, 0.0), np.maximum(pre_cls, 0.0)
    z_cls = np.maximum(pre_cls, 0.0)
    pre1 = z_cls @ t["head.w1"].T + t["head.b1"]
    h1 = np.maximum(pre1, 0.0)
    logits = h1 @ t["head.w2"] + t["head.b2"]
    mu = _sigmoid(logits)
    cache = {"graph": graph, "layers": layers, "pres": pres, "z_cls": z_cls,
             "pre1": pre1, "h1": h1, "mu": mu}
    return mu, cache


def forward(params: ModelParams, graph: LiteralClauseGraph, features) -> np.ndarray:
    """Per-clause prune probabilities mu, strictly inside (0, 1)."""
    mu, _ = _forward_cached(params, graph, features)
    return mu


def score_clauses(params: ModelParams, formula: CnfFormula, seed) -> np.ndarray:
    """Per-clause prune probabilities of a formula: its literal-clause
    graph, input features whose random columns are drawn from ``seed``,
    and one forward pass."""
    return score_with_pullback(params, build_lcg(formula), seed)[0]


def score_with_pullback(params: ModelParams, graph: LiteralClauseGraph, seed):
    """The graph's mu and ``pullback(keep, signal)``: the gradient of
    ``signal * log p(keep | mu)`` w.r.t. every parameter."""
    features = make_input_features(graph, params.config.random_feature_dim, seed)
    return _forward_with_pullback(params, graph, features)


def sample_mask(scores, seed) -> tuple[np.ndarray, float]:
    """Sample a keep mask: clause i is pruned with probability mu_i.

    Returns (keep_mask, log_prob) where log_prob is the exact log
    probability of the drawn mask under the independent Bernoulli model.
    """
    mu = np.asarray(scores, dtype=np.float64)
    rng = np.random.default_rng(seed)
    pruned = rng.random(mu.shape[0]) < mu
    keep = ~pruned
    return keep, log_prob(mu, keep)


def log_prob(scores, mask) -> float:
    """log p(mask | mu) with mu clamped away from 0 and 1."""
    mu = np.asarray(scores, dtype=np.float64)
    keep = np.asarray(mask, dtype=bool)
    if keep.shape != mu.shape:
        raise ValueError("mask length does not match score length")
    mu_c = np.clip(mu, LOG_EPS, 1.0 - LOG_EPS)
    return float(np.where(keep, np.log1p(-mu_c), np.log(mu_c)).sum())


def _backward_from_logits(params: ModelParams, cache, d_logits):
    """Reverse-mode pass from a cotangent on the clause logits."""
    t = params.tensors
    grads = {}
    h1, pre1, z_cls = cache["h1"], cache["pre1"], cache["z_cls"]
    grads["head.b2"] = np.array(float(d_logits.sum()))
    grads["head.w2"] = d_logits @ h1
    d_h1 = np.outer(d_logits, t["head.w2"])
    d_pre1 = d_h1 * (pre1 > 0)
    grads["head.b1"] = d_pre1.sum(axis=0)
    grads["head.w1"] = d_pre1.T @ z_cls
    d_cls = d_pre1 @ t["head.w1"]

    graph = cache["graph"]
    pres = list(cache["pres"])
    for l in reversed(range(len(cache["layers"]))):
        h_lit, h_cls, x_lit, w_lit = cache["layers"][l]
        d_pre_cls = d_cls * (pres.pop() > 0)
        grads[f"gnn{l}.self_cls"] = d_pre_cls.T @ h_cls
        grads[f"gnn{l}.bias_cls"] = d_pre_cls.sum(axis=0)
        back = graph.incidence_t @ d_pre_cls
        grads[f"gnn{l}.lit_to_clause"] = back.T @ h_lit
        if x_lit is not None:  # the last layer has no literal rows
            d_pre_lit = d_lit * (pres.pop() > 0)
            (grads[f"gnn{l}.self_lit"], grads[f"gnn{l}.clause_to_lit"],
             grads[f"gnn{l}.negation"]) = _thirds(d_pre_lit.T @ x_lit)
            grads[f"gnn{l}.bias_lit"] = d_pre_lit.sum(axis=0)
        if l == 0:  # nothing reads the features' cotangent
            break
        d_lit = back @ t[f"gnn{l}.lit_to_clause"]
        d_cls = d_pre_cls @ t[f"gnn{l}.self_cls"]
        if x_lit is not None:
            d_x = _thirds(d_pre_lit @ w_lit)
            # negation is an involution, so it also scatters its rows back
            d_lit += d_x[0] + d_x[2][graph.negation]
            d_cls += graph.incidence @ d_x[1]
    # The last layer's literal weights never reach mu: their gradient is 0.
    return {k: grads[k] if k in grads else np.zeros_like(v)
            for k, v in t.items()}


def _thirds(a):
    """The three equal column blocks of ``a``, as views."""
    d = a.shape[1] // 3
    return a[:, :d], a[:, d:2 * d], a[:, 2 * d:]


def _forward_with_pullback(params: ModelParams, graph, features):
    mu, cache = _forward_cached(params, graph, features)

    def pullback(mask, signal) -> dict[str, np.ndarray]:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != mu.shape:
            raise ValueError("mask length does not match clause count")
        # d log p(keep | mu) / d logits; zero where log_prob clamps mu.
        active = (mu > LOG_EPS) & (mu < 1.0 - LOG_EPS)
        d_logits = np.where(active, ~keep - mu, 0.0) * signal
        return _backward_from_logits(params, cache, d_logits)

    return mu, pullback


# ----------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ModelParams) -> None:
    """Save config + weights; the round trip is bit-exact."""
    meta = {"format_version": CHECKPOINT_VERSION, "config": asdict(params.config)}
    arrays = {f"tensor/{k}": v for k, v in params.tensors.items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
            **arrays)


def load_checkpoint(path) -> ModelParams:
    """Load a :func:`save_checkpoint` file; ValueError if it is not one."""
    try:
        with np.load(path) as data:
            if "__meta__" not in data.files:
                raise ValueError(
                    f"{path}: not a checkpoint (no __meta__ entry)")
            meta = json.loads(bytes(data["__meta__"]).decode())
            if meta.get("format_version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version "
                                 f"{meta.get('format_version')}")
            fields = meta.get("config")
            if not isinstance(fields, dict):
                raise ValueError(f"{path}: checkpoint has no model config")
            try:  # unknown keys and values of the wrong type
                config = ModelConfig(**fields)
            except TypeError as exc:
                raise ValueError(f"{path}: bad model config: {exc}") from None
            tensors = {
                k[len("tensor/"):]: data[k]
                for k in data.files if k.startswith("tensor/")
            }
    # What zipfile and numpy raise for an archive cut short or damaged:
    # a bad CRC surfaces only when a tensor is read.
    except (zipfile.BadZipFile, EOFError, NotImplementedError) as exc:
        raise ValueError(f"{path}: not a checkpoint ({exc})") from None
    expected = init_params(config, 0).tensors
    if set(tensors) != set(expected):
        raise ValueError(
            f"{path}: checkpoint tensors do not match the configuration")
    for name, ref in expected.items():
        got = tensors[name]
        if (got.shape, got.dtype) != (ref.shape, ref.dtype):
            raise ValueError(f"{path}: tensor {name} is {got.dtype} "
                             f"{got.shape}, not {ref.dtype} {ref.shape}")
    return ModelParams(config, tensors)
