"""Test-time formula pruning.

The main routine binary-searches a discretized threshold grid over the
model's per-clause prune scores for the most aggressive pruning that
keeps the formula unsatisfiable, spending O(log k) subset queries to one
``SubsetSolver``; a probe reads only whether its query answers with a
core or with None. The variable-frequency strategy is that routine on
rescaled frequency scores, and the clause-length strategy runs the same
search, ``_grid_search``, on clause lengths; random pruning is a chance
baseline that may produce satisfiable output (recorded in the outcome).
Every pruner builds its outcome in one place, ``_outcome``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cnf import CnfFormula, prune_clauses
from .mus import SubsetSolver
from .sat import SatEngine


@dataclass
class PruneOutcome:
    pruned: CnfFormula
    index_map: list[int]        # kept position -> original clause index
    kept_fraction: float
    sat_calls: int
    method: str
    unsat: bool                 # satisfiability status of the pruned formula


def _outcome(formula: CnfFormula, method: str, sat_calls: int, kept,
             unsat: bool) -> PruneOutcome:
    """The one outcome builder. ``kept`` is a ``(pruned, index_map)`` pair
    from ``prune_clauses``, or ``formula`` itself for the identity
    outcome, which keeps every clause (an empty formula included)."""
    if kept is formula:
        return PruneOutcome(formula, list(range(formula.num_clauses)), 1.0,
                            sat_calls, method, unsat)
    pruned, index_map = kept
    return PruneOutcome(pruned, index_map,
                        pruned.num_clauses / formula.num_clauses,
                        sat_calls, method, unsat)


def none_prune(formula: CnfFormula) -> PruneOutcome:
    """Identity pruner; useful as the no-pruning baseline."""
    return _outcome(formula, "none", 0, formula, True)


def _grid_search(formula: CnfFormula, scores: np.ndarray, levels,
                 engine: SatEngine, method: str) -> PruneOutcome:
    """Smallest level whose kept set {i : score_i <= level} is UNSAT.

    ``levels`` is ascending. Its last entry is an untested UNSAT sentinel
    that stands for the input itself (the input must be UNSAT): it is
    never probed, because a computed top level can round below
    max(scores) and drop a clause. Binary search, at most
    ceil(log2(len(levels))) probes, counted here, each a query to one
    subset solver over the formula; only the chosen kept set is built.
    """
    solver = SubsetSolver(formula, engine)
    lo, hi, probes = 0, len(levels) - 1, 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if solver.query(np.flatnonzero(scores <= levels[mid])) is None:
            lo = mid + 1
        else:
            hi = mid
    if hi == len(levels) - 1:
        return _outcome(formula, method, probes, formula, True)
    return _outcome(formula, method, probes,
                    prune_clauses(formula, scores <= levels[hi]), True)


def _threshold_levels(scores: np.ndarray, k: int) -> list[float]:
    """k+1 equally spaced thresholds from max(scores)/k to max(scores)."""
    top = float(scores.max())
    lowest = top / k
    return [lowest + (top - lowest) * j / k for j in range(k + 1)]


def threshold_prune(formula: CnfFormula, scores, k: int,
                    engine: SatEngine) -> PruneOutcome:
    """Binary-search threshold pruning over model scores.

    Clause i is kept iff score_i <= t; the search runs over k+1 equally
    spaced thresholds from max(scores)/k to max(scores), which ascend
    only because scores must be finite and nonnegative, and returns
    the most aggressive UNSAT-preserving cut, or the original formula
    when no candidate below max(scores) stays UNSAT. Uses at most
    ceil(log2(k+1)) SAT calls.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (formula.num_clauses,):
        raise ValueError("score vector length does not match clause count")
    if not (np.isfinite(scores) & (scores >= 0)).all():
        raise ValueError("scores must be finite and nonnegative")
    if formula.num_clauses == 0:
        return _outcome(formula, "threshold", 0, formula, True)
    return _grid_search(formula, scores, _threshold_levels(scores, k), engine,
                        "threshold")


def clause_length_prune(formula: CnfFormula, steps: int,
                        engine: SatEngine) -> PruneOutcome:
    """Keep short clauses: search the integer length grid for the smallest
    cutoff whose kept set is UNSAT (K equal integer steps between the
    minimum and maximum clause length)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if formula.num_clauses == 0:
        return _outcome(formula, "clause_length", 0, formula, True)
    lengths = np.array([len(c) for c in formula.clauses], dtype=np.float64)
    l_min, l_max = int(lengths.min()), int(lengths.max())
    grid = np.unique(np.rint(np.linspace(l_min, l_max, steps + 1)).astype(int))
    levels = [int(x) for x in grid]
    return _grid_search(formula, lengths, levels, engine, "clause_length")


def variable_frequency_scores(formula: CnfFormula) -> np.ndarray:
    """Clause scores: negated mean frequency of the clause's variables.

    Clauses built from rare variables score high (pruned earlier); empty
    clauses take the minimum score so they are kept first.
    """
    freq = np.zeros(formula.num_vars + 1)
    for clause in formula.clauses:
        for lit in clause:
            freq[abs(lit)] += 1
    means = {j: -float(np.mean([freq[abs(l)] for l in clause]))
             for j, clause in enumerate(formula.clauses) if clause}
    floor = min(means.values(), default=0.0)
    return np.array([means.get(j, floor) for j in range(formula.num_clauses)])


def variable_frequency_prune(formula: CnfFormula, k: int,
                             engine: SatEngine) -> PruneOutcome:
    """Frequency-based pruning: rescale the frequency scores into (0, 1)
    and run :func:`threshold_prune` on them."""
    raw = variable_frequency_scores(formula)
    mu = np.full(formula.num_clauses, 0.5)
    if formula.num_clauses and raw.max() > raw.min():
        mu = 0.1 + 0.8 * (raw - raw.min()) / (raw.max() - raw.min())
    return replace(threshold_prune(formula, mu, k, engine), method="var_freq")


def random_prune(formula: CnfFormula, fraction: float, seed,
                 engine: SatEngine) -> PruneOutcome:
    """Remove a uniform random subset of exactly floor(fraction * M)
    clauses. Chance baseline: the result is frequently satisfiable, and
    the outcome records the resulting status."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    m = formula.num_clauses
    n_remove = int(fraction * m)
    if n_remove == 0:
        return _outcome(formula, "random", 0, formula, True)
    rng = np.random.default_rng(seed)
    removed = rng.choice(m, size=n_remove, replace=False)
    keep = np.ones(m, dtype=bool)
    keep[removed] = False
    pruned, index_map = prune_clauses(formula, keep)
    return _outcome(formula, "random", 1, (pruned, index_map),
                    not engine.is_satisfiable(pruned))
