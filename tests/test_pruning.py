import math

import numpy as np
import pytest

from musprune import pruning
from musprune.cnf import CnfFormula, prune_clauses
from musprune.generators import gen_graph_coloring, gen_sr_random
from musprune.mus import truth_table_satisfiable
from musprune.pruning import (clause_length_prune, none_prune, random_prune,
                              threshold_prune, variable_frequency_prune,
                              variable_frequency_scores)
from musprune.sat import SatEngine

F1 = CnfFormula(2, [[1], [-1], [1, 2], [-2]])


class TestThresholdPrune:
    def test_f1_informative_scores(self):
        engine = SatEngine()
        out = threshold_prune(F1, [0.02, 0.03, 0.9, 0.6], 10, engine)
        assert out.pruned.clauses == ((1,), (-1,))
        assert out.index_map == [0, 1]
        assert out.kept_fraction == 0.5
        assert out.unsat

    def test_uniform_scores_fall_back_to_original(self):
        out = threshold_prune(F1, [0.4] * 4, 10, SatEngine())
        assert out.pruned == F1
        assert out.kept_fraction == 1.0

    def test_core_scored_high_falls_back(self):
        # the contradiction pair scored highest: every candidate cut is SAT
        engine = SatEngine()
        f = CnfFormula(1, [[1], [-1]])
        out = threshold_prune(f, [0.9, 0.8], 10, engine)
        assert out.pruned == f
        assert out.sat_calls <= math.ceil(math.log2(11)) + 1

    def test_sat_call_budget(self):
        rng = np.random.default_rng(0)
        for k in (1, 2, 5, 10, 100):
            limit = math.ceil(math.log2(k + 1)) + 1
            for i in range(8):
                f = gen_sr_random(8, seed=(k, i))
                engine = SatEngine()
                scores = rng.random(f.num_clauses)
                out = threshold_prune(f, scores, k, engine)
                assert out.sat_calls <= limit
                assert engine.calls == out.sat_calls

    def test_unsat_preservation(self):
        rng = np.random.default_rng(1)
        for i in range(25):
            f = gen_sr_random(8, seed=i)
            out = threshold_prune(f, rng.random(f.num_clauses), 10, SatEngine())
            if out.kept_fraction < 1:
                assert not truth_table_satisfiable(out.pruned)

    def test_keep_rule_ties_kept(self):
        # all scores equal to max -> kept at the top threshold only;
        # a two-level pattern keeps the lower tier together
        f = CnfFormula(1, [[1], [-1], [1, -1]])
        out = threshold_prune(f, [0.2, 0.2, 0.8], 10, SatEngine())
        assert out.pruned.clauses == ((1,), (-1,))

    def test_monotone_keep_rule(self):
        scores = np.array([0.1, 0.5, 0.9, 0.3])
        kept_sets = []
        for t in np.linspace(0.05, 1.0, 12):
            kept_sets.append(frozenset(np.flatnonzero(scores <= t).tolist()))
        for a, b in zip(kept_sets, kept_sets[1:]):
            assert a <= b

    def test_index_map_correct(self):
        out = threshold_prune(F1, [0.02, 0.03, 0.9, 0.6], 10, SatEngine())
        for j, orig in enumerate(out.index_map):
            assert out.pruned.clauses[j] == F1.clauses[orig]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            threshold_prune(F1, [0.1] * 4, 0, SatEngine())

    def test_score_length_mismatch(self):
        with pytest.raises(ValueError):
            threshold_prune(F1, [0.1] * 3, 10, SatEngine())

    @pytest.mark.parametrize("scores", [
        [-0.9, -0.8, -0.1, -0.2], [0.02, 0.03, 0.9, -1e-12],
        [0.02, float("nan"), 0.9, 0.6], [0.02, 0.03, float("inf"), 0.6]],
        ids=["negative", "one_negative", "nan", "inf"])
    def test_negative_or_nan_scores_rejected(self, scores):
        # A negative max makes the grid descend, which the binary search
        # cannot read: [-0.9, -0.8, -0.1, -0.2] kept all four clauses. An
        # infinite max makes every threshold NaN, so each probe asks the
        # empty set: [0.02, 0.03, inf, 0.6] kept all four after 3 probes.
        engine = SatEngine()
        with pytest.raises(ValueError, match="finite and nonnegative"):
            threshold_prune(F1, scores, 10, engine)
        assert engine.calls == 0


class TestClauseLengthPrune:
    def test_short_core(self):
        f = CnfFormula(3, [[1], [-1], [1, 2, 3], [-2, 3]])
        out = clause_length_prune(f, 100, SatEngine())
        assert out.pruned.clauses == ((1,), (-1,))
        assert out.unsat

    def test_uniform_lengths_fall_back(self):
        f = CnfFormula(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
        out = clause_length_prune(f, 100, SatEngine())
        assert out.pruned == f

    def test_sat_prefixes_fall_back(self):
        # every strict length-prefix is SAT; only the full formula is UNSAT
        f = CnfFormula(2, [[1], [2], [-1, -2]])
        out = clause_length_prune(f, 100, SatEngine())
        assert out.pruned == f

    def test_unsat_preservation(self):
        for i in range(15):
            f = gen_sr_random(8, seed=100 + i)
            out = clause_length_prune(f, 100, SatEngine())
            if out.kept_fraction < 1:
                assert not truth_table_satisfiable(out.pruned)

    def test_invalid_steps(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            clause_length_prune(F1, 0, SatEngine())


class TestVariableFrequencyPrune:
    def test_f1_scores(self):
        # f = {1: 3, 2: 2}; scores -3, -3, -2.5, -2
        scores = variable_frequency_scores(F1)
        assert scores.tolist() == [-3.0, -3.0, -2.5, -2.0]

    def test_rare_variables_score_higher(self):
        f = CnfFormula(3, [[1, 2], [1, 2], [1, 2], [3]])
        scores = variable_frequency_scores(f)
        assert scores[3] > scores[0]

    def test_identical_scores_pruned_or_kept_together(self):
        f = CnfFormula(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
        out = variable_frequency_prune(f, 10, SatEngine())
        assert out.pruned == f  # single score level -> fallback

    def test_unsat_preservation(self):
        for i in range(15):
            f = gen_sr_random(8, seed=200 + i)
            out = variable_frequency_prune(f, 10, SatEngine())
            if out.kept_fraction < 1:
                assert not truth_table_satisfiable(out.pruned)

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            variable_frequency_prune(F1, 0, SatEngine())


class TestRandomPrune:
    def test_fraction_zero_identity(self):
        out = random_prune(F1, 0.0, 0, SatEngine())
        assert out.pruned == F1
        assert out.sat_calls == 0

    def test_fraction_one_empty_and_sat(self):
        out = random_prune(F1, 1.0, 0, SatEngine())
        assert out.pruned.num_clauses == 0
        assert not out.unsat

    def test_exact_removal_count(self):
        f = gen_sr_random(10, seed=0)
        for fraction in (0.1, 0.33, 0.5):
            out = random_prune(f, fraction, 1, SatEngine())
            expected = f.num_clauses - int(fraction * f.num_clauses)
            assert out.pruned.num_clauses == expected

    def test_deterministic_under_seed(self):
        f = gen_sr_random(10, seed=1)
        a = random_prune(f, 0.3, 42, SatEngine())
        b = random_prune(f, 0.3, 42, SatEngine())
        assert a.pruned == b.pruned

    def test_status_recorded_correctly(self):
        rng = np.random.default_rng(2)
        for i in range(10):
            f = gen_sr_random(8, seed=300 + i)
            out = random_prune(f, 0.25, i, SatEngine())
            assert out.unsat == (not truth_table_satisfiable(out.pruned))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            random_prune(F1, 1.5, 0, SatEngine())


class TestNonePrune:
    def test_identity(self):
        out = none_prune(F1)
        assert out.pruned == F1
        assert out.index_map == [0, 1, 2, 3]
        assert out.sat_calls == 0
        assert out.kept_fraction == 1.0


@pytest.mark.parametrize("prune", [
    lambda f, engine: threshold_prune(f, [], 10, engine),
    lambda f, engine: clause_length_prune(f, 100, engine),
    lambda f, engine: variable_frequency_prune(f, 10, engine),
    lambda f, engine: random_prune(f, 1.0, 0, engine),
    lambda f, engine: none_prune(f),
], ids=["threshold", "clause_length", "var_freq", "random", "none"])
def test_empty_formula_returned_as_is(prune):
    empty = CnfFormula(0, [])
    engine = SatEngine()
    out = prune(empty, engine)
    assert out.pruned is empty
    assert out.index_map == []
    assert out.kept_fraction == 1.0
    assert out.sat_calls == engine.calls == 0


def reference_grid_search(formula, scores, levels, engine, method):
    """The threshold search with one formula and one solver per probe:
    the same binary search over the same levels, asked through
    ``prune_clauses`` and ``SatEngine.is_satisfiable``."""
    lo, hi = 0, len(levels) - 1
    kept, probes = formula, 0
    while lo < hi:
        mid = (lo + hi) // 2
        pruned, index_map = prune_clauses(formula, scores <= levels[mid])
        probes += 1
        if engine.is_satisfiable(pruned):
            lo = mid + 1
        else:
            kept = (pruned, index_map)
            hi = mid
    return pruning._outcome(formula, method, probes, kept, True)


PRUNERS = {
    "threshold": lambda f, engine: threshold_prune(
        f, np.random.default_rng(f.num_clauses).random(f.num_clauses), 10,
        engine),
    "var_freq": lambda f, engine: variable_frequency_prune(f, 10, engine),
    "clause_length": lambda f, engine: clause_length_prune(f, 4, engine),
}


@pytest.fixture(scope="module")
def differential_set():
    """200 small SR formulas and 200 small UNSAT colourings."""
    return ([gen_sr_random(6 + i % 7, seed=(18, i)) for i in range(200)]
            + [gen_graph_coloring((5, 8), 0.5, (2, 3), seed=(18, i))
               for i in range(200)])


@pytest.mark.parametrize("name", sorted(PRUNERS))
def test_subset_solver_search_matches_reference(name, differential_set,
                                                monkeypatch):
    prune = PRUNERS[name]
    found = []
    for f in differential_set:
        engine = SatEngine()
        out = prune(f, engine)
        assert engine.calls == out.sat_calls
        found.append(out)
    monkeypatch.setattr(pruning, "_grid_search", reference_grid_search)
    pruned = 0
    for f, out in zip(differential_set, found):
        assert out == prune(f, SatEngine())  # every PruneOutcome field
        pruned += out.kept_fraction < 1
    assert pruned >= 50, pruned  # the cuts are exercised, not only fallbacks


@pytest.mark.parametrize("name", sorted(PRUNERS))
def test_search_builds_one_formula_and_no_oneshot_solver(name, monkeypatch):
    counts = {"prune_clauses": 0, "solve": 0}
    build, solve = pruning.prune_clauses, SatEngine.solve

    def counted_build(formula, mask):
        counts["prune_clauses"] += 1
        return build(formula, mask)

    def counted_solve(self, formula):
        counts["solve"] += 1
        return solve(self, formula)

    monkeypatch.setattr(pruning, "prune_clauses", counted_build)
    monkeypatch.setattr(SatEngine, "solve", counted_solve)
    probes = 0
    for i in range(10):
        f = gen_sr_random(10, seed=(19, i))
        counts["prune_clauses"] = 0
        probes += PRUNERS[name](f, SatEngine()).sat_calls
        assert counts["prune_clauses"] <= 1
    assert counts["solve"] == 0
    assert probes >= 20
