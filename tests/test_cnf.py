import numpy as np
import pytest

from musprune.cnf import (CnfFormula, DimacsFormatError, clause_stats,
                          parse_dimacs, prune_clauses, write_dimacs)
from musprune.generators import gen_sr_random


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 2\n1 0\n-1 0\n")
        assert f.num_vars == 2
        assert f.clauses == ((1,), (-1,))

    def test_comment_and_multiline_clause(self):
        f = parse_dimacs("c comment\np cnf 1 1\n1 -1 0")
        assert f.num_vars == 1
        assert f.clauses == ((1, -1),)

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1\n2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_bytes_input(self):
        f = parse_dimacs(b"p cnf 1 1\n1 0\n")
        assert f.clauses == ((1,),)

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsFormatError, match="line"):
            parse_dimacs("p cnf 2 3\n1 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("p dnf 2 2\n1 0\n-1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsFormatError, match="exceeds"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_missing_terminator(self):
        with pytest.raises(DimacsFormatError, match="terminating 0"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("1 0\n")

    @pytest.mark.parametrize("text, message", [
        ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate header"),
        ("p cnf 2 x\n", "line 1: non-integer header fields 'p cnf 2 x'"),
        ("c two clauses\np cnf -1 2\n", "line 2: negative header counts"),
        ("c no header\n\n", "missing 'p cnf' header"),
    ], ids=["duplicate", "non_integer", "negative", "no_header"])
    def test_header_faults_are_named(self, text, message):
        with pytest.raises(DimacsFormatError) as info:
            parse_dimacs(text)
        assert str(info.value) == message

    def test_empty_clause_allowed(self):
        f = parse_dimacs("p cnf 1 2\n0\n1 0\n")
        assert f.clauses == ((), (1,))


class TestWriteDimacs:
    def test_basic(self):
        f = CnfFormula(2, [[1], [-1]])
        assert write_dimacs(f) == "p cnf 2 2\n1 0\n-1 0\n"

    def test_degenerate(self):
        assert write_dimacs(CnfFormula(0, [])) == "p cnf 0 0\n"

    def test_round_trip_generated(self):
        for i in range(25):
            f = gen_sr_random(8, seed=i)
            assert parse_dimacs(write_dimacs(f)) == f

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            clauses = []
            for _ in range(int(rng.integers(0, 12))):
                k = int(rng.integers(1, n + 1))
                vs = rng.choice(n, size=k, replace=False) + 1
                signs = rng.integers(0, 2, size=k) * 2 - 1
                clauses.append([int(v * s) for v, s in zip(vs, signs)])
            f = CnfFormula(n, clauses)
            assert parse_dimacs(write_dimacs(f)) == f


class TestPruneClauses:
    def test_basic(self):
        f = CnfFormula(2, [[1], [-1], [1, 2]])
        pruned, index_map = prune_clauses(f, [True, True, False])
        assert pruned.clauses == ((1,), (-1,))
        assert index_map == [0, 1]
        assert pruned.num_vars == f.num_vars  # numbering preserved

    def test_all_true(self):
        f = CnfFormula(2, [[1], [-1], [1, 2]])
        pruned, index_map = prune_clauses(f, [True] * 3)
        assert pruned == f
        assert index_map == [0, 1, 2]

    def test_all_false(self):
        f = CnfFormula(2, [[1], [-1], [1, 2]])
        pruned, index_map = prune_clauses(f, [False] * 3)
        assert pruned.num_clauses == 0
        assert index_map == []

    def test_length_mismatch(self):
        f = CnfFormula(2, [[1], [-1]])
        with pytest.raises(ValueError, match="mask length"):
            prune_clauses(f, [True])

    def test_index_map_identifies_identical_clauses(self):
        rng = np.random.default_rng(3)
        f = gen_sr_random(10, seed=4)
        mask = rng.random(f.num_clauses) < 0.6
        pruned, index_map = prune_clauses(f, mask)
        for j, orig in enumerate(index_map):
            assert pruned.clauses[j] == f.clauses[orig]

    def test_order_and_subset(self):
        f = gen_sr_random(10, seed=5)
        mask = np.random.default_rng(1).random(f.num_clauses) < 0.5
        pruned, index_map = prune_clauses(f, mask)
        assert index_map == sorted(index_map)
        assert set(pruned.clauses) <= set(f.clauses)


class TestClauseStats:
    def test_basic(self):
        s = clause_stats(CnfFormula(2, [[1], [-1], [1, 2]]))
        assert s.clause_to_variable_ratio == 1.5
        assert s.clause_length_histogram == {1: 2, 2: 1}

    def test_empty(self):
        s = clause_stats(CnfFormula(0, []))
        assert s.clause_to_variable_ratio == 0.0
        assert s.clause_length_histogram == {}

    def test_histogram_sums_to_clause_count(self):
        for i in range(10):
            f = gen_sr_random(12, seed=i)
            s = clause_stats(f)
            assert sum(s.clause_length_histogram.values()) == f.num_clauses


class TestCnfFormula:
    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            CnfFormula(1, [[0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CnfFormula(1, [[2]])

    @pytest.mark.parametrize("clauses, message", [
        ([[1, -2], [2, 0, 3]], "clause 1: literal 0 is not allowed"),
        ([[1], [-1, 2], [2, 3, 0]],
         "clause 2: literal 3 exceeds variable count 2"),
        ([[1, 2], [-2], [1, -3, 0]],
         "clause 2: literal -3 exceeds variable count 2"),
    ])
    def test_names_the_first_offending_literal(self, clauses, message):
        with pytest.raises(ValueError) as info:
            CnfFormula(2, clauses)
        assert str(info.value) == message

    def test_numpy_integer_literals_become_ints(self):
        f = CnfFormula(np.int64(3), [np.array([1, -3]), (np.int64(2),)])
        assert f.num_vars == 3 and f.clauses == ((1, -3), (2,))
        assert all(type(lit) is int for c in f.clauses for lit in c)

    def test_immutable(self):
        f = CnfFormula(1, [[1]])
        with pytest.raises(AttributeError):
            f.num_vars = 3
