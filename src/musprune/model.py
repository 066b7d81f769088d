"""Clause-pruning model: heterogeneous message passing over the
literal-clause graph, an MLP head producing per-clause prune
probabilities, Bernoulli mask sampling, and exact analytic gradients.

Everything runs in float64. The per-layer update is

    h_v' = relu(W_self[type(v)] h_v + sum_r sum_{u in N_r(v)} W_r h_u + b[type(v)])

with relations r in {literal->clause, clause->literal, negation}, each a
sparse 0/1 block A from its source rows to its target rows: the
clause-by-literal incidence, its transpose, and the permutation pairing
each literal with its negation. A layer adds A h[source] W_r^T to the
target rows; the backward pass carries their cotangent back through A^T.
The two-layer head maps clause-node representations through a relu
hidden layer to a single logit; the sigmoid of the logit is the PRUNE
probability of the clause, so a clause is kept with probability 1 - mu.
The final bias starts at -3, i.e. a fresh model prunes around 5% of
clauses (conservative start).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

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


def _relations(graph: LiteralClauseGraph):
    """(name, target rows, source rows, A) per relation: A is the sparse
    0/1 target-by-source block, and A.T carries cotangents back."""
    n_lit = graph.num_literal_nodes
    lit, cls = slice(0, n_lit), slice(n_lit, graph.num_nodes)
    me, ne = graph.membership_edges, graph.negation_edges
    incidence = sp.csr_matrix((np.ones(len(me)), (me[:, 1] - n_lit, me[:, 0])),
                              shape=(graph.num_clauses, n_lit))
    both = np.concatenate([ne, ne[:, ::-1]])
    negation = sp.csr_matrix((np.ones(len(both)), (both[:, 0], both[:, 1])),
                             shape=(n_lit, n_lit))
    return [("lit_to_clause", cls, lit, incidence),
            ("clause_to_lit", lit, cls, incidence.T),
            ("negation", lit, lit, negation)]


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
    relations = _relations(graph)
    lit = slice(0, graph.num_literal_nodes)
    cls = slice(graph.num_literal_nodes, graph.num_nodes)
    inputs = []
    pres = []
    for l in range(cfg.num_layers):
        inputs.append(h)
        pre = np.empty((graph.num_nodes, cfg.hidden_dim))
        pre[lit] = h[lit] @ t[f"gnn{l}.self_lit"].T + t[f"gnn{l}.bias_lit"]
        pre[cls] = h[cls] @ t[f"gnn{l}.self_cls"].T + t[f"gnn{l}.bias_cls"]
        for rel, target, source, a in relations:
            pre[target] += a @ (h[source] @ t[f"gnn{l}.{rel}"].T)
        pres.append(pre)
        h = np.maximum(pre, 0.0)
    z_cls = h[cls]
    pre1 = z_cls @ t["head.w1"].T + t["head.b1"]
    h1 = np.maximum(pre1, 0.0)
    logits = h1 @ t["head.w2"] + t["head.b2"]
    mu = _sigmoid(logits)
    cache = {
        "relations": relations, "lit": lit, "cls": cls, "inputs": inputs,
        "pres": pres, "z_cls": z_cls, "pre1": pre1, "h1": h1, "mu": mu,
    }
    return mu, cache


def forward(params: ModelParams, graph: LiteralClauseGraph, features) -> np.ndarray:
    """Per-clause prune probabilities mu, strictly inside (0, 1)."""
    mu, _ = _forward_cached(params, graph, features)
    return mu


def score_clauses(params: ModelParams, formula: CnfFormula, seed) -> np.ndarray:
    """Per-clause prune probabilities of a formula: its literal-clause
    graph, input features whose random columns are drawn from ``seed``,
    and one forward pass."""
    return score_with_pullback(params, formula, seed)[0]


def score_with_pullback(params: ModelParams, formula: CnfFormula, seed):
    """:func:`score_clauses`'s mu and ``pullback(keep, signal)``: the
    gradient of ``signal * log p(keep | mu)`` w.r.t. every parameter."""
    graph = build_lcg(formula)
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
    cfg = params.config
    t = params.tensors
    grads = {k: np.zeros_like(v) for k, v in t.items()}
    h1, pre1, z_cls = cache["h1"], cache["pre1"], cache["z_cls"]
    grads["head.b2"] = np.array(float(d_logits.sum()))
    grads["head.w2"] = d_logits @ h1
    d_h1 = np.outer(d_logits, t["head.w2"])
    d_pre1 = d_h1 * (pre1 > 0)
    grads["head.b1"] = d_pre1.sum(axis=0)
    grads["head.w1"] = d_pre1.T @ z_cls
    d_zcls = d_pre1 @ t["head.w1"]

    lit, cls = cache["lit"], cache["cls"]
    d_h = np.zeros((len(cache["inputs"][0]), cfg.hidden_dim))
    d_h[cls] = d_zcls
    for l in reversed(range(cfg.num_layers)):
        h_in = cache["inputs"][l]
        d_pre = d_h * (cache["pres"][l] > 0)
        grads[f"gnn{l}.self_lit"] = d_pre[lit].T @ h_in[lit]
        grads[f"gnn{l}.self_cls"] = d_pre[cls].T @ h_in[cls]
        grads[f"gnn{l}.bias_lit"] = d_pre[lit].sum(axis=0)
        grads[f"gnn{l}.bias_cls"] = d_pre[cls].sum(axis=0)
        d_h_next = np.zeros_like(h_in)
        d_h_next[lit] = d_pre[lit] @ t[f"gnn{l}.self_lit"]
        d_h_next[cls] = d_pre[cls] @ t[f"gnn{l}.self_cls"]
        for rel, target, source, a in cache["relations"]:
            back = a.T @ d_pre[target]
            grads[f"gnn{l}.{rel}"] = back.T @ h_in[source]
            d_h_next[source] += back @ t[f"gnn{l}.{rel}"]
        d_h = d_h_next
    return grads


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


def grad_log_prob(params: ModelParams, graph: LiteralClauseGraph,
                  features, mask) -> dict[str, np.ndarray]:
    """Exact gradient of log p(mask) w.r.t. every parameter tensor."""
    _, pullback = _forward_with_pullback(params, graph, features)
    return pullback(mask, 1.0)


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
    with np.load(path) as data:
        if "__meta__" not in data.files:
            raise ValueError(f"{path}: not a checkpoint (no __meta__ entry)")
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {meta.get('format_version')}"
            )
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
    expected = init_params(config, 0).tensors
    if set(tensors) != set(expected):
        raise ValueError("checkpoint tensors do not match the configuration")
    for name, ref in expected.items():
        got = tensors[name]
        if (got.shape, got.dtype) != (ref.shape, ref.dtype):
            raise ValueError(f"{path}: tensor {name} is {got.dtype} "
                             f"{got.shape}, not {ref.dtype} {ref.shape}")
    return ModelParams(config, tensors)
