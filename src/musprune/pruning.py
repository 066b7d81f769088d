"""Test-time formula pruning.

The main routine binary-searches a discretized threshold grid over the
model's per-clause prune scores for the most aggressive pruning that
keeps the formula unsatisfiable, spending O(log k) SAT calls. The
clause-length and variable-frequency strategies reuse the same search
on hand-crafted scores; random pruning is a chance baseline that may
produce satisfiable output (recorded in the outcome).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula, prune_clauses
from .sat import SatEngine


@dataclass
class PruneOutcome:
    pruned: CnfFormula
    index_map: list[int]        # kept position -> original clause index
    kept_fraction: float
    sat_calls: int
    method: str
    unsat: bool                 # satisfiability status of the pruned formula

    @property
    def changed(self) -> bool:
        return len(self.index_map) != 0 and self.kept_fraction < 1.0


def _identity_outcome(formula: CnfFormula, method: str,
                      sat_calls: int) -> PruneOutcome:
    return PruneOutcome(
        pruned=formula,
        index_map=list(range(formula.num_clauses)),
        kept_fraction=1.0,
        sat_calls=sat_calls,
        method=method,
        unsat=True,  # inputs are required to be UNSAT
    )


def none_prune(formula: CnfFormula) -> PruneOutcome:
    """Identity pruner; useful as the no-pruning baseline."""
    return _identity_outcome(formula, "none", 0)


def _grid_search(formula: CnfFormula, scores: np.ndarray, levels,
                 engine: SatEngine, method: str) -> PruneOutcome:
    """Smallest level whose kept set {i : score_i <= level} is UNSAT.

    ``levels`` is ascending and its last entry keeps every clause, so it
    acts as an untested UNSAT sentinel (the input must be UNSAT). Binary
    search, at most ceil(log2(len(levels))) SAT calls.
    """
    calls_before = engine.calls
    lo, hi = 0, len(levels) - 1
    best = None
    while lo < hi:
        mid = (lo + hi) // 2
        keep = scores <= levels[mid]
        pruned, index_map = prune_clauses(formula, keep)
        if engine.is_satisfiable(pruned):
            lo = mid + 1
        else:
            best = (pruned, index_map)
            hi = mid
    sat_calls = engine.calls - calls_before
    if best is None:
        return _identity_outcome(formula, method, sat_calls)
    pruned, index_map = best
    return PruneOutcome(
        pruned=pruned,
        index_map=index_map,
        kept_fraction=pruned.num_clauses / formula.num_clauses,
        sat_calls=sat_calls,
        method=method,
        unsat=True,
    )


def threshold_prune(formula: CnfFormula, scores, k: int,
                    engine: SatEngine | None = None,
                    method: str = "threshold") -> PruneOutcome:
    """Binary-search threshold pruning over model scores.

    Clause i is kept iff score_i <= t; the search runs over k+1 equally
    spaced thresholds from max(scores)/k to max(scores) and returns the
    most aggressive UNSAT-preserving cut, or the original formula when
    no candidate below max(scores) stays UNSAT. Uses at most
    ceil(log2(k+1)) + 1 SAT calls.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    engine = engine if engine is not None else SatEngine()
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (formula.num_clauses,):
        raise ValueError("score vector length does not match clause count")
    if formula.num_clauses == 0:
        return _identity_outcome(formula, method, 0)
    top = float(scores.max())
    lowest = top / k
    levels = [lowest + (top - lowest) * j / k for j in range(k + 1)]
    return _grid_search(formula, scores, levels, engine, method)


def clause_length_prune(formula: CnfFormula, steps: int = 100,
                        engine: SatEngine | None = None) -> PruneOutcome:
    """Keep short clauses: search the integer length grid for the smallest
    cutoff whose kept set is UNSAT (K equal integer steps between the
    minimum and maximum clause length)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    engine = engine if engine is not None else SatEngine()
    if formula.num_clauses == 0:
        return _identity_outcome(formula, "clause_length", 0)
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
    raw = np.array([
        -float(np.mean([freq[abs(l)] for l in clause])) if clause else np.nan
        for clause in formula.clauses
    ])
    if np.isnan(raw).any():
        floor = np.nanmin(raw) if not np.isnan(raw).all() else 0.0
        raw = np.where(np.isnan(raw), floor, raw)
    return raw


def variable_frequency_prune(formula: CnfFormula, k: int = 10,
                             engine: SatEngine | None = None) -> PruneOutcome:
    """Frequency-based pruning: rescale the frequency scores into (0, 1)
    and run the same threshold search used for model scores."""
    if k < 1:
        raise ValueError("k must be >= 1")
    engine = engine if engine is not None else SatEngine()
    if formula.num_clauses == 0:
        return _identity_outcome(formula, "var_freq", 0)
    raw = variable_frequency_scores(formula)
    lo, hi = float(raw.min()), float(raw.max())
    if hi == lo:
        mu = np.full(formula.num_clauses, 0.5)
    else:
        mu = 0.1 + 0.8 * (raw - lo) / (hi - lo)
    return threshold_prune(formula, mu, k, engine, method="var_freq")


def random_prune(formula: CnfFormula, fraction: float, seed,
                 engine: SatEngine | None = None) -> PruneOutcome:
    """Remove a uniform random subset of exactly floor(fraction * M)
    clauses. Chance baseline: the result is frequently satisfiable, and
    the outcome records the resulting status."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    engine = engine if engine is not None else SatEngine()
    m = formula.num_clauses
    n_remove = int(fraction * m)
    if n_remove == 0:
        return _identity_outcome(formula, "random", 0)
    rng = np.random.default_rng(seed)
    removed = rng.choice(m, size=n_remove, replace=False)
    keep = np.ones(m, dtype=bool)
    keep[removed] = False
    pruned, index_map = prune_clauses(formula, keep)
    unsat = not engine.is_satisfiable(pruned)
    return PruneOutcome(
        pruned=pruned,
        index_map=index_map,
        kept_fraction=pruned.num_clauses / m,
        sat_calls=1,
        method="random",
        unsat=unsat,
    )
