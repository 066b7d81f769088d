import numpy as np
import pytest
import scipy.sparse as sp

from musprune.cnf import CnfFormula
from musprune.generators import gen_graph_coloring, gen_sr_random
from musprune.lcg import (LiteralClauseGraph, build_lcg, make_input_features,
                          recover_formula)

F1 = CnfFormula(2, [[1], [-1], [1, 2], [-2]])


class TestBuildLcg:
    def test_f1_counts(self):
        g = build_lcg(F1)
        assert g.num_literal_nodes == 4
        assert g.num_clauses == 4
        assert g.incidence.shape == (4, 4)
        assert g.incidence.nnz == 5  # occurrences 1+1+2+1
        assert g.negation.tolist() == [2, 3, 0, 1]

    def test_empty_formula(self):
        g = build_lcg(CnfFormula(0, []))
        assert g.num_nodes == 0
        assert g.incidence.shape == (0, 0)
        assert g.incidence.nnz == 0
        assert len(g.negation) == 0

    def test_unused_variable_still_present(self):
        g = build_lcg(CnfFormula(3, [[1]]))
        assert g.num_literal_nodes == 6
        assert g.incidence.shape == (1, 6)
        assert g.negation.tolist() == [3, 4, 5, 0, 1, 2]

    def test_edge_counts_exact(self):
        for i in range(10):
            f = gen_sr_random(9, seed=i)
            g = build_lcg(f)
            assert g.incidence.nnz == sum(len(c) for c in f.clauses)
            assert g.incidence_t.nnz == g.incidence.nnz
            assert len(g.negation) == 2 * f.num_vars

    def test_node_type_onehot(self):
        g = build_lcg(F1)
        x = g.node_type_onehot
        assert x.shape == (8, 2)
        assert (x.sum(axis=1) == 1).all()
        assert (x[:4, 0] == 1).all() and (x[4:, 1] == 1).all()


def reference_incidence(formula):
    """build_lcg's incidence, its transpose and the negation permutation,
    each as index lists, from one loop step per literal occurrence:
    literal v is row v - 1 and literal -v row N + v - 1."""
    n = formula.num_vars
    indptr, indices = [0], []
    by_literal = [[] for _ in range(2 * n)]
    for j, clause in enumerate(formula.clauses):
        for lit in clause:
            row = lit - 1 if lit > 0 else n - lit - 1
            indices.append(row)
            by_literal[row].append(j)
        indptr.append(len(indices))
    t_indptr = [0]
    for clauses in by_literal:
        t_indptr.append(t_indptr[-1] + len(clauses))
    negation = [i + n if i < n else i - n for i in range(2 * n)]
    return ((indptr, indices), (t_indptr, sum(by_literal, [])), negation)


class TestBuildLcgAgainstLoop:
    @pytest.mark.parametrize("formula", [
        CnfFormula(0, []), CnfFormula(0, [[]]), CnfFormula(2, [[], [1, -2], []]),
        CnfFormula(4, [[1], [-1]]), CnfFormula(3, [[1, 1, -2], [-3, -3], [2]]),
        CnfFormula(5, []), F1,
    ], ids=["empty", "empty_clause_no_vars", "empty_clauses", "unused_vars",
            "duplicate_literals", "no_clauses", "f1"])
    def test_edge_cases(self, formula):
        self.check(formula)

    def test_generated(self):
        for i in range(20):
            self.check(gen_sr_random(5 + i, seed=i))
            self.check(gen_graph_coloring((6, 9), 0.4, (3, 3), seed=i))

    @staticmethod
    def check(formula):
        g = build_lcg(formula)
        m, n_lit = formula.num_clauses, 2 * formula.num_vars
        (indptr, indices), (t_indptr, t_indices), negation = \
            reference_incidence(formula)
        for got, shape, ref_indptr, ref_indices in (
                (g.incidence, (m, n_lit), indptr, indices),
                (g.incidence_t, (n_lit, m), t_indptr, t_indices)):
            assert isinstance(got, sp.csr_matrix)
            assert got.dtype == np.float64
            assert got.shape == shape
            assert got.indptr.tolist() == ref_indptr
            assert got.indices.tolist() == ref_indices
            assert got.data.tolist() == [1.0] * len(ref_indices)
        assert g.negation.tolist() == negation
        assert recover_formula(g) == formula


class TestRecoverFormula:
    def test_round_trip_f1(self):
        assert recover_formula(build_lcg(F1)) == F1

    def test_round_trip_generated(self):
        for i in range(15):
            f = gen_sr_random(10, seed=i)
            assert recover_formula(build_lcg(f)) == f

    def test_round_trip_with_empty_clause(self):
        f = CnfFormula(2, [[], [1, -2]])
        assert recover_formula(build_lcg(f)) == f

    @pytest.mark.parametrize("column", [4, 7, -1])
    def test_column_outside_literal_rows_rejected(self, column):
        # scipy checks no column bounds when a CSR matrix is built
        incidence = sp.csr_matrix(([1.0, 1.0], [0, column], [0, 1, 2]),
                                  shape=(2, 4))
        with pytest.raises(ValueError):
            recover_formula(LiteralClauseGraph(2, incidence))


class TestInputFeatures:
    def test_zero_dim_gives_types_only(self):
        g = build_lcg(F1)
        x = make_input_features(g, 0, 0)
        assert np.array_equal(x, g.node_type_onehot)

    def test_deterministic_given_seed(self):
        g = build_lcg(F1)
        a = make_input_features(g, 8, 123)
        b = make_input_features(g, 8, 123)
        assert np.array_equal(a, b)
        c = make_input_features(g, 8, 124)
        assert not np.array_equal(a, c)

    def test_shape(self):
        g = build_lcg(F1)
        assert make_input_features(g, 5, 0).shape == (8, 7)

    def test_random_block_statistics(self):
        # ~10^4 samples: mean near 0 and variance near 1 (z-test scale).
        f = gen_sr_random(30, seed=0)
        g = build_lcg(f)
        d_r = -(-10_000 // g.num_nodes)
        r = make_input_features(g, d_r, 7)[:, 2:]
        n = r.size
        assert n >= 10_000
        assert abs(r.mean()) < 3.29 / np.sqrt(n)  # alpha = 0.001
        assert 0.9 < r.var() < 1.1

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            make_input_features(build_lcg(F1), -1, 0)
