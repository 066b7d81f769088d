"""Literal-clause graph construction and GNN input features.

Node layout for a formula with N variables and M clauses:
rows 0..N-1 are positive literals, rows N..2N-1 the matching negations,
rows 2N..2N+M-1 the clauses. Membership edges connect a literal node to
every clause it occurs in; negation edges pair each literal with its
negation. Both directions of every edge are used during message passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .cnf import CnfFormula


@dataclass(frozen=True)
class LiteralClauseGraph:
    num_vars: int
    num_clauses: int
    membership_edges: np.ndarray  # (E1, 2) int64 rows [literal_node, clause_node]
    negation_edges: np.ndarray    # (N, 2) int64 rows [positive_node, negative_node]

    @property
    def num_literal_nodes(self) -> int:
        return 2 * self.num_vars

    @property
    def num_nodes(self) -> int:
        return 2 * self.num_vars + self.num_clauses

    @cached_property
    def node_type_onehot(self) -> np.ndarray:
        """(|V|, 2) one-hot rows: column 0 literal nodes, column 1 clause nodes."""
        x = np.zeros((self.num_nodes, 2), dtype=np.float64)
        x[: self.num_literal_nodes, 0] = 1.0
        x[self.num_literal_nodes:, 1] = 1.0
        return x


def literal_node(lit: int, num_vars: int) -> int:
    """Graph row of a literal: positives first, then negations."""
    return lit - 1 if lit > 0 else num_vars + (-lit) - 1


def build_lcg(formula: CnfFormula) -> LiteralClauseGraph:
    """Build the literal-clause graph; clause node j maps to clause index j."""
    n, m = formula.num_vars, formula.num_clauses
    lengths = np.fromiter(map(len, formula.clauses), dtype=np.int64, count=m)
    lits = np.fromiter(chain.from_iterable(formula.clauses), dtype=np.int64,
                       count=int(lengths.sum()))
    literal_nodes = np.where(lits > 0, lits - 1, n - lits - 1)
    clause_nodes = np.repeat(np.arange(2 * n, 2 * n + m, dtype=np.int64), lengths)
    positives = np.arange(n, dtype=np.int64)
    return LiteralClauseGraph(
        num_vars=n,
        num_clauses=m,
        membership_edges=np.column_stack([literal_nodes, clause_nodes]),
        negation_edges=np.column_stack([positives, positives + n]),
    )


def recover_formula(graph: LiteralClauseGraph) -> CnfFormula:
    """Inverse of :func:`build_lcg`; reads clause membership off the edges."""
    n = graph.num_vars
    clauses: list[list[int]] = [[] for _ in range(graph.num_clauses)]
    for lit_node, clause_node in graph.membership_edges:
        j = int(clause_node) - 2 * n
        if not 0 <= j < graph.num_clauses:
            raise ValueError(f"membership edge targets non-clause node {clause_node}")
        if not 0 <= int(lit_node) < 2 * n:
            raise ValueError(f"membership edge from non-literal node {lit_node}")
        lit = int(lit_node) + 1 if lit_node < n else -(int(lit_node) - n + 1)
        clauses[j].append(lit)
    return CnfFormula(n, clauses)


def make_input_features(graph: LiteralClauseGraph, d_r: int,
                        seed) -> np.ndarray:
    """Node features [X_V, R]: type one-hots plus d_r standard-normal columns.

    Deterministic for a given seed; rows align with the graph node layout.
    """
    if d_r < 0:
        raise ValueError("d_r must be nonnegative")
    x_v = graph.node_type_onehot
    if d_r == 0:
        return x_v.copy()
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((graph.num_nodes, d_r))
    return np.hstack([x_v, r])

