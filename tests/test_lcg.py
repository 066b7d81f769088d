import numpy as np
import pytest

from musprune.cnf import CnfFormula
from musprune.generators import gen_graph_coloring, gen_sr_random
from musprune.lcg import (build_lcg, literal_node, make_input_features,
                          recover_formula)

F1 = CnfFormula(2, [[1], [-1], [1, 2], [-2]])


class TestBuildLcg:
    def test_f1_counts(self):
        g = build_lcg(F1)
        assert g.num_literal_nodes == 4
        assert g.num_clauses == 4
        assert len(g.membership_edges) == 5  # occurrences 1+1+2+1
        assert len(g.negation_edges) == 2

    def test_empty_formula(self):
        g = build_lcg(CnfFormula(0, []))
        assert g.num_nodes == 0
        assert len(g.membership_edges) == 0
        assert len(g.negation_edges) == 0

    def test_unused_variable_still_present(self):
        g = build_lcg(CnfFormula(3, [[1]]))
        assert g.num_literal_nodes == 6
        assert len(g.negation_edges) == 3

    def test_edge_counts_exact(self):
        for i in range(10):
            f = gen_sr_random(9, seed=i)
            g = build_lcg(f)
            assert len(g.membership_edges) == sum(len(c) for c in f.clauses)
            assert len(g.negation_edges) == f.num_vars

    def test_node_type_onehot(self):
        g = build_lcg(F1)
        x = g.node_type_onehot
        assert x.shape == (8, 2)
        assert (x.sum(axis=1) == 1).all()
        assert (x[:4, 0] == 1).all() and (x[4:, 1] == 1).all()

    def test_literal_node_layout(self):
        assert literal_node(1, 3) == 0
        assert literal_node(3, 3) == 2
        assert literal_node(-1, 3) == 3
        assert literal_node(-3, 3) == 5


def reference_edges(formula):
    """build_lcg's edge arrays from one loop step per literal occurrence."""
    n = formula.num_vars
    membership = [(literal_node(lit, n), 2 * n + j)
                  for j, clause in enumerate(formula.clauses) for lit in clause]
    negation = [(i, n + i) for i in range(n)]
    return (np.array(membership, dtype=np.int64).reshape(-1, 2),
            np.array(negation, dtype=np.int64).reshape(-1, 2))


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
        for got, ref in zip((g.membership_edges, g.negation_edges),
                            reference_edges(formula)):
            assert got.dtype == ref.dtype == np.int64
            assert got.shape == ref.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == ref.tobytes()
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
