"""Literal-clause graph construction and GNN input features.

Node layout for a formula with N variables and M clauses:
rows 0..N-1 are positive literals, rows N..2N-1 the matching negations,
rows 2N..2N+M-1 the clauses. The graph is its clause-by-literal
incidence, an (M, 2N) CSR matrix with one 1.0 per literal occurrence;
negation pairs literal row i with row (i + N) mod 2N. Message passing
reads the incidence, its transpose and that permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .cnf import CnfFormula


@dataclass(frozen=True)
class LiteralClauseGraph:
    num_vars: int
    # (M, 2N) CSR: row j holds clause j's literal rows in clause order; a
    # literal repeated in a clause is two entries, which products count as 2.
    incidence: sp.csr_matrix

    @property
    def num_clauses(self) -> int:
        return self.incidence.shape[0]

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

    @cached_property
    def incidence_t(self) -> sp.csr_matrix:
        """The (2N, M) literal-by-clause transpose, as CSR."""
        return self.incidence.T.tocsr()

    @cached_property
    def negation(self) -> np.ndarray:
        """Literal row i's negation is row ``negation[i]``."""
        return np.roll(np.arange(2 * self.num_vars), self.num_vars)


def build_lcg(formula: CnfFormula) -> LiteralClauseGraph:
    """Build the literal-clause graph; clause row j is clause index j."""
    n, m = formula.num_vars, formula.num_clauses
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, formula.clauses), dtype=np.int64, count=m),
              out=indptr[1:])
    lits = np.fromiter(chain.from_iterable(formula.clauses), dtype=np.int64,
                       count=int(indptr[-1]))
    literal_rows = np.where(lits > 0, lits - 1, n - lits - 1)
    return LiteralClauseGraph(n, sp.csr_matrix(
        (np.ones(len(lits)), literal_rows, indptr), shape=(m, 2 * n)))


def recover_formula(graph: LiteralClauseGraph) -> CnfFormula:
    """Inverse of :func:`build_lcg`; reads each clause off its row."""
    n = graph.num_vars
    indptr, indices = graph.incidence.indptr, graph.incidence.indices
    if len(indices) and not 0 <= indices.min() <= indices.max() < 2 * n:
        raise ValueError(f"incidence column outside the {2 * n} literal rows")
    lits = np.where(indices < n, indices + 1, n - indices - 1).tolist()
    return CnfFormula(n, [lits[indptr[j]:indptr[j + 1]]
                          for j in range(graph.num_clauses)])


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
