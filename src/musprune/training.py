"""Weak-supervision REINFORCE training of the pruning model.

The loss of a sampled pruning is 1 when the pruned formula is satisfiable
(unusable) and (kept/total)^2 otherwise, so no pruning also costs 1. The
expected loss is differentiated with the score-function estimator
E[loss * grad log p] and optimized with Adam. Only satisfiability checks
are needed; no labeled MUS data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .cnf import CnfFormula, prune_clauses
from .lcg import build_lcg
from .model import (ModelParams, sample_mask, score_clauses,
                    score_with_pullback)
from .pruning import threshold_prune
from .sat import SatEngine

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
EVAL_K = 10  # evaluate_loss's threshold-search k, the test-time default
MIN_DELTA = 0.01  # relative eval-loss improvement that resets early stopping


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-4
    max_formulas: int = 20_000
    samples_per_formula: int = 1
    early_stop_window: int = 10
    eval_every: int = 25           # steps between eval passes
    seed: int = 0
    use_baseline: bool = False     # moving-average variance reduction

    def __post_init__(self):
        if min(self.batch_size, self.max_formulas, self.samples_per_formula,
               self.early_stop_window, self.eval_every) < 1:
            raise ValueError("counts must be positive")
        if not 0 < self.learning_rate < math.inf:  # NaN included
            raise ValueError("learning_rate must be finite and positive")


@dataclass
class TrainMetrics:
    loss: float
    pruned_fraction: float      # mean over UNSAT-preserving samples
    sat_failure_rate: float     # fraction of samples whose pruning went SAT
    grad_norm: float


HISTORY_COLUMNS = ("step", "formulas_seen",
                   *(f.name for f in fields(TrainMetrics)), "eval_loss")


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    baseline: float = 0.0
    skipped_steps: int = 0


def prune_loss(original: CnfFormula, pruned: CnfFormula, sat_status: bool) -> float:
    """1 if the pruned formula is SAT, else the squared kept-clause ratio."""
    m, mp = original.num_clauses, pruned.num_clauses
    if mp > m:
        raise ValueError("pruned formula has more clauses than the original")
    if sat_status:
        return 1.0
    if m == 0:
        raise ValueError("an UNSAT formula cannot have zero clauses")
    return (mp / m) ** 2


def adam_update(params: ModelParams, state: OptimizerState,
                grads: dict[str, np.ndarray], lr: float) -> ModelParams:
    """One Adam step; returns the new params and updates ``state`` in place.

    A step replaces ``state.m`` and ``state.v`` and advances ``state.t``.
    A non-finite gradient skips the step: it raises
    ``state.skipped_steps`` and returns ``params`` unchanged.
    """
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            state.skipped_steps += 1
            return params
    t = state.t + 1
    new_m, new_v, new_tensors = {}, {}, {}
    for key, theta in params.tensors.items():
        g = grads[key]
        m = state.m.get(key, np.zeros_like(theta))
        v = state.v.get(key, np.zeros_like(theta))
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        new_tensors[key] = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[key], new_v[key] = m, v
    # Swapped in whole: freeing the old moments key by key, between the
    # new tensors' allocations, cost about 10x the page faults per step.
    state.m, state.v, state.t = new_m, new_v, t
    return ModelParams(params.config, new_tensors)


_EVAL_STEP = 2 ** 48  # entropy namespace separating eval from train steps


def _formula_rng_seed(seed: int, step: int, index: int, sample: int):
    return np.random.SeedSequence(entropy=(seed, step, index, sample))


def reinforce_step(params: ModelParams, batch, engine: SatEngine,
                   state: OptimizerState, seed: int,
                   config: TrainConfig, step: int = 0
                   ) -> tuple[ModelParams, OptimizerState, TrainMetrics]:
    """One REINFORCE step over a batch of UNSAT formulas.

    Per formula, one graph; per sample, seeded features, a keep mask, one
    pruning and exactly one SAT call, accumulating loss * grad log p. The
    gradient is averaged over batch x samples and applied with Adam.
    Returns the new params, the given ``state`` (updated in place) and
    the step's metrics.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be nonempty")
    total: dict[str, np.ndarray] = {k: np.zeros_like(v)
                                    for k, v in params.tensors.items()}
    losses, pruned_fracs, sat_failures = [], [], 0
    for idx, formula in enumerate(batch):
        graph = build_lcg(formula)
        for s in range(config.samples_per_formula):
            feat_seed, mask_seed = _formula_rng_seed(seed, step, idx, s).spawn(2)
            mu, pullback = score_with_pullback(params, graph, feat_seed)
            keep, _ = sample_mask(mu, mask_seed)
            pruned, _ = prune_clauses(formula, keep)
            sat_status = engine.is_satisfiable(pruned)
            loss = prune_loss(formula, pruned, sat_status)
            if sat_status:
                sat_failures += 1
            else:
                pruned_fracs.append(1.0 - pruned.num_clauses / formula.num_clauses)
            losses.append(loss)
            signal = loss - state.baseline if config.use_baseline else loss
            grads = pullback(keep, signal)
            for k in total:
                total[k] += grads[k]
    mean_grads = {k: g / len(losses) for k, g in total.items()}
    mean_loss = float(np.mean(losses))
    if config.use_baseline:
        state.baseline = 0.9 * state.baseline + 0.1 * mean_loss
    grad_norm = math.sqrt(sum(float((g * g).sum()) for g in mean_grads.values()))
    new_params = adam_update(params, state, mean_grads, config.learning_rate)
    metrics = TrainMetrics(
        loss=mean_loss,
        pruned_fraction=float(np.mean(pruned_fracs)) if pruned_fracs else 0.0,
        sat_failure_rate=sat_failures / len(losses),
        grad_norm=grad_norm,
    )
    return new_params, state, metrics


def evaluate_loss(params: ModelParams, eval_set, engine: SatEngine,
                  seed: int = 0) -> float:
    """Mean pruning loss of the deterministic test-time pruning.

    Each eval formula is pruned by the threshold binary search actually
    used at test time; its loss is the squared kept fraction (the pruned
    formula is UNSAT by construction, so the SAT penalty never fires and
    a model that cannot prune scores exactly 1).
    """
    losses = []
    for idx, formula in enumerate(eval_set):
        mu = score_clauses(params, formula,
                           _formula_rng_seed(seed, _EVAL_STEP, idx, 0))
        outcome = threshold_prune(formula, mu, EVAL_K, engine)
        losses.append(prune_loss(formula, outcome.pruned, not outcome.unsat))
    if not losses:
        raise ValueError("eval set must be nonempty")
    return float(np.mean(losses))


def train(config: TrainConfig, formula_source, engine: SatEngine,
          eval_set, initial_params: ModelParams
          ) -> tuple[ModelParams, list[dict]]:
    """REINFORCE training loop with periodic evaluation and early stopping.

    Stops after ``max_formulas`` formula presentations or once the eval
    loss fails to improve by ``MIN_DELTA`` (relative) for
    ``early_stop_window`` consecutive evaluations. Returns the checkpoint
    with the best eval loss and the per-step history.
    """
    formulas = list(formula_source)
    if not formulas:
        raise ValueError("formula source is empty")
    for i, f in enumerate(formulas):
        if engine.is_satisfiable(f):
            raise ValueError(f"training formula {i} is satisfiable")
    eval_set = list(eval_set)
    params = initial_params
    state = OptimizerState()
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []
    best_loss = math.inf
    best_params = params.copy()
    stale_evals = 0
    seen = 0
    step = 0
    order: list[int] = []
    while seen < config.max_formulas:
        if len(order) < config.batch_size:
            order.extend(rng.permutation(len(formulas)).tolist())
        batch = [formulas[i] for i in order[:config.batch_size]]
        del order[:config.batch_size]
        params, _, metrics = reinforce_step(
            params, batch, engine, state, config.seed, config, step=step)
        seen += len(batch)
        step += 1
        row = dict(zip(HISTORY_COLUMNS, (step, seen, *astuple(metrics), "")))
        if eval_set and step % config.eval_every == 0:
            eval_loss = evaluate_loss(params, eval_set, engine, seed=config.seed)
            row["eval_loss"] = eval_loss
            if eval_loss < best_loss * (1.0 - MIN_DELTA):
                stale_evals = 0
            else:
                stale_evals += 1
            if eval_loss < best_loss:
                best_loss = eval_loss
                best_params = params.copy()
        history.append(row)
        if stale_evals >= config.early_stop_window:
            break
    if math.isinf(best_loss):
        best_params = params.copy()
    return best_params, history


def history_to_csv(history, path) -> None:
    """Write the training history in ``HISTORY_COLUMNS`` order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_COLUMNS,
                                extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(history)
