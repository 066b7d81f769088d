import time

import numpy as np
import pytest

from musprune.cnf import CnfFormula
from musprune.mus import truth_table_satisfiable
from musprune.sat import SAT, UNKNOWN, UNSAT, SatEngine, Solver


def random_formula(rng, n_lo=1, n_hi=16, density=4.3):
    n = int(rng.integers(n_lo, n_hi + 1))
    m = max(1, int(density * n) + int(rng.integers(-4, 5)))
    clauses = []
    for _ in range(m):
        k = int(rng.integers(1, min(3, n) + 1))
        vs = rng.choice(n, size=k, replace=False) + 1
        signs = rng.integers(0, 2, size=k) * 2 - 1
        clauses.append([int(v * s) for v, s in zip(vs, signs)])
    return CnfFormula(n, clauses)


class TestSolveBasics:
    def test_contradiction_pair(self):
        assert SatEngine().solve(CnfFormula(1, [[1], [-1]])).status == UNSAT

    def test_simple_sat_with_model(self):
        r = SatEngine().solve(CnfFormula(2, [[1, 2]]))
        assert r.status == SAT
        assert {1, 2} & r.model

    def test_all_sign_patterns_unsat(self):
        f = CnfFormula(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]])
        assert SatEngine().solve(f).status == UNSAT

    def test_empty_clause_set_is_sat(self):
        assert SatEngine().is_satisfiable(CnfFormula(3, []))

    def test_empty_clause_is_unsat(self):
        assert not SatEngine().is_satisfiable(CnfFormula(1, [[], [1]]))

    def test_model_is_total(self):
        r = SatEngine().solve(CnfFormula(5, [[1]]))
        assert {abs(lit) for lit in r.model} == {1, 2, 3, 4, 5}
        assert len(r.model) == 5

    def test_duplicate_literals_handled(self):
        assert SatEngine().is_satisfiable(CnfFormula(1, [[1, 1]]))
        assert not SatEngine().is_satisfiable(CnfFormula(1, [[1, 1], [-1]]))

    def test_tautology_dropped(self):
        assert SatEngine().is_satisfiable(CnfFormula(1, [[1, -1], [-1]]))

    @pytest.mark.parametrize("assumptions", [(), (4,), (-4, 5)])
    def test_root_propagation_refutes(self, assumptions):
        # The units leave 2 v 3 with both literals false: one conflict at
        # the root, whatever is assumed, and no core.
        solver = Solver(num_vars=5)
        for clause in ([1], [-1, 2, 3], [-2], [-3]):
            solver.add_clause(clause)
        r = solver.solve(assumptions)
        assert (r.status, r.core, solver.ok) == (UNSAT, None, False)
        assert r.stats.conflicts == 1
        assert solver.solve().status == UNSAT


class TestAgainstTruthTables:
    def test_agreement_small(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            f = random_formula(rng, 1, 10)
            assert SatEngine().is_satisfiable(f) == truth_table_satisfiable(f)

    def test_agreement_to_16_vars(self):
        rng = np.random.default_rng(1)
        for _ in range(80):
            f = random_formula(rng, 8, 16)
            assert SatEngine().is_satisfiable(f) == truth_table_satisfiable(f)

    def test_models_validate(self):
        # SatEngine verifies internally; this re-checks at the test level.
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = random_formula(rng, 2, 12)
            r = SatEngine().solve(f)
            if r.status == SAT:
                for clause in f.clauses:
                    assert not r.model.isdisjoint(clause)


class TestAssumptions:
    def test_assumption_forces_polarity(self):
        r = SatEngine().solve(CnfFormula(2, [[1, 2]]), assumptions=[-1])
        assert r.status == SAT
        assert r.model == {-1, 2}

    def test_unsat_under_assumptions(self):
        r = SatEngine().solve(CnfFormula(2, [[1, 2]]), assumptions=[-1, -2])
        assert r.status == UNSAT

    def test_conflicting_assumptions_rejected(self):
        with pytest.raises(ValueError, match="both ways"):
            SatEngine().solve(CnfFormula(1, [[1]]), assumptions=[1, -1])

    @pytest.mark.parametrize("assumptions, message", [
        ([1, -1, 99], "assumptions set variable 1 both ways"),
        ([1, 2, -2, -1], "assumptions set variable 2 both ways"),
        ([99, 1, -1], "assumption literal 99 out of range"),
        ([1, 0, -1], "assumption literal 0 out of range"),
        ([2, -3, -4], "assumption literal -4 out of range"),
    ])
    def test_first_bad_assumption_is_named(self, assumptions, message):
        solver = Solver(3)
        solver.add_clause([1, 2, 3])
        with pytest.raises(ValueError, match=f"^{message}$"):
            solver.solve(assumptions)

    def test_equals_unit_clause_addition(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            f = random_formula(rng, 2, 8)
            n_assume = int(rng.integers(1, f.num_vars + 1))
            vs = rng.choice(f.num_vars, size=n_assume, replace=False) + 1
            assumptions = [int(v) if rng.random() < 0.5 else -int(v) for v in vs]
            direct = SatEngine().solve(f, assumptions).status
            augmented = CnfFormula(
                f.num_vars, list(f.clauses) + [[a] for a in assumptions])
            assert direct == SatEngine().solve(augmented).status

    def test_solver_reusable_after_assumption_unsat(self):
        engine = SatEngine()
        session = engine.session(2)
        session.add_clause([1, 2])
        assert session.solve([-1, -2]).status == UNSAT
        assert session.solve([]).status == SAT
        assert session.solve([-2]).status == SAT


class TestCores:
    def test_core_names_the_failing_assumptions(self):
        r = SatEngine().solve(CnfFormula(3, [[1, 2]]), assumptions=[3, -1, -2])
        assert r.status == UNSAT
        assert sorted(r.core) == [-2, -1]

    def test_core_through_implications(self):
        # 1 -> 2 -> 3, so assuming 1 and -3 fails; 4 plays no part.
        f = CnfFormula(4, [[-1, 2], [-2, 3]])
        r = SatEngine().solve(f, assumptions=[4, 1, -3])
        assert r.status == UNSAT
        assert sorted(r.core) == [-3, 1]

    def test_assumption_false_at_root_is_the_core(self):
        r = SatEngine().solve(CnfFormula(2, [[-1]]), assumptions=[2, 1])
        assert r.status == UNSAT
        assert r.core == [1]

    def test_duplicate_assumptions_accepted(self):
        f = CnfFormula(2, [[-1, 2]])
        r = SatEngine().solve(f, assumptions=[1, 1])
        assert r.status == SAT and 1 in r.model and 2 in r.model
        r = SatEngine().solve(f, assumptions=[1, 1, -2])
        assert r.status == UNSAT and sorted(r.core) == [-2, 1]

    def test_reversed_assumptions_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            f = random_formula(rng, 2, 8, density=2.0)
            vs = rng.choice(f.num_vars, size=f.num_vars, replace=False) + 1
            assumptions = [int(v) if rng.random() < 0.5 else -int(v)
                           for v in vs]
            forward = SatEngine().solve(f, assumptions)
            backward = SatEngine().solve(f, assumptions[::-1])
            assert forward.status == backward.status
            for r in (forward, backward):
                if r.core is not None:
                    assert set(r.core) <= set(assumptions)
                    assert not truth_table_satisfiable(CnfFormula(
                        f.num_vars, list(f.clauses) + [[a] for a in r.core]))

    def test_root_unsat_has_no_core(self):
        r = SatEngine().solve(CnfFormula(2, [[1], [-1]]), assumptions=[2])
        assert r.status == UNSAT and r.core is None

    def test_sat_and_unknown_have_no_core(self):
        r = SatEngine().solve(CnfFormula(2, [[1, 2]]), assumptions=[1])
        assert r.status == SAT and r.core is None
        solver = Solver(num_vars=30)
        for clause in pigeonhole(5):
            solver.add_clause(clause)
        r = solver.solve([1], deadline=time.perf_counter())
        assert r.status == UNKNOWN and r.core is None

    def test_cores_are_unsat_subsets(self):
        rng = np.random.default_rng(8)
        seen = 0
        for _ in range(150):
            f = random_formula(rng, 2, 8, density=2.0)
            vs = rng.choice(f.num_vars, size=f.num_vars, replace=False) + 1
            assumptions = [int(v) if rng.random() < 0.5 else -int(v)
                           for v in vs]
            r = SatEngine().solve(f, assumptions)
            if r.core is None:
                continue
            seen += 1
            assert set(r.core) <= set(assumptions)
            forced = CnfFormula(f.num_vars,
                                list(f.clauses) + [[a] for a in r.core])
            assert not truth_table_satisfiable(forced)
        assert seen > 40


def pigeonhole(holes):
    def var(p, h):
        return p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p in range(holes + 1):
            for q in range(p + 1, holes + 1):
                clauses.append([-var(p, h), -var(q, h)])
    return clauses


class TestDeadline:
    def test_passed_deadline_reports_unknown(self):
        solver = Solver(num_vars=42)
        for clause in pigeonhole(6):
            solver.add_clause(clause)
        r = solver.solve(deadline=time.perf_counter())
        assert r.status == UNKNOWN
        assert r.stats.conflicts == 1

    def test_deadline_holds_on_hard_instance(self):
        # PHP(9, 8) takes this engine far longer than the deadline.
        solver = Solver(num_vars=72)
        for clause in pigeonhole(8):
            solver.add_clause(clause)
        start = time.perf_counter()
        r = solver.solve(deadline=start + 0.1)
        assert r.status == UNKNOWN
        # The deadline is read at conflicts only; the bound leaves room for
        # a slow host without reaching the full refutation's time.
        assert time.perf_counter() - start < 0.1 + 2.0

    def test_far_deadline_changes_nothing(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            f = random_formula(rng, 4, 12)
            solver = Solver(num_vars=f.num_vars)
            for clause in f.clauses:
                solver.add_clause(clause)
            r = solver.solve(deadline=time.perf_counter() + 1e6)
            assert r.status == SatEngine().solve(f).status
            assert r.stats == SatEngine().solve(f).stats


class TestIncremental:
    def test_session_model(self):
        session = SatEngine().session(2)
        session.add_clause([1, 2])
        assert session.model([-1]) == {-1, 2}
        assert session.model([-1, -2]) is None

    def test_guarded_clause_cannot_name_its_own_selector(self):
        """Literal 3 of a 2-variable solver would be the guarded clause's
        own selector, which turns the clause into a tautology."""
        solver = Solver(2)
        with pytest.raises(ValueError, match="literal 3 out of range"):
            solver.add_guarded_clause([1, 3])
        assert solver.num_vars == 2

    def test_clause_addition_monotone(self):
        engine = SatEngine()
        session = engine.session(3)
        session.add_clause([1, 2])
        assert session.model() is not None
        session.add_clause([-1])
        assert session.model() is not None
        session.add_clause([-2])
        assert session.model() is None

    def test_incremental_matches_fresh(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            f = random_formula(rng, 2, 8)
            engine = SatEngine()
            session = engine.session(f.num_vars)
            for i, clause in enumerate(f.clauses):
                session.add_clause(clause)
                partial = CnfFormula(f.num_vars, f.clauses[: i + 1])
                expected = truth_table_satisfiable(partial)
                assert (session.model() is not None) == expected


    def test_kept_trail_saves_decisions(self):
        """A count, not a timing. An assumption-free SAT answer leaves its
        trail in place; a clause that rules out the two latest decisions
        sends the search back only past their levels, so the next solve
        takes fewer decisions than a fresh solver on the same clauses."""
        rng = np.random.default_rng(13)
        f = CnfFormula(40, [[int(v) * int(s) for v, s in zip(
            rng.choice(40, size=3, replace=False) + 1,
            rng.integers(0, 2, size=3) * 2 - 1)] for _ in range(100)])
        solver = Solver(num_vars=f.num_vars)
        for clause in f.clauses:
            solver.add_clause(clause)
        assert solver.solve().status == SAT
        assert len(solver._trail_lim) > 4
        clause = [-solver._trail[i] for i in solver._trail_lim[-2:]]
        solver.add_clause(clause)
        kept = solver.solve()
        fresh = SatEngine().solve(CnfFormula(f.num_vars, [*f.clauses, clause]))
        assert kept.status == fresh.status == SAT
        assert kept.stats.decisions < fresh.stats.decisions

    def test_unit_clause_keeps_the_trail_below_its_level(self):
        """A unit clause on a variable assigned at level L > 1 sends the
        trail back to level L - 1 only, and its literal joins the trail at
        level 0. The next solve goes on from there and agrees with a fresh
        solver."""
        rng = np.random.default_rng(13)
        f = CnfFormula(40, [[int(v) * int(s) for v, s in zip(
            rng.choice(40, size=3, replace=False) + 1,
            rng.integers(0, 2, size=3) * 2 - 1)] for _ in range(100)])
        solver = Solver(num_vars=f.num_vars)
        for clause in f.clauses:
            solver.add_clause(clause)
        assert solver.solve().status == SAT
        assert len(solver._trail_lim) > 6
        lim = list(solver._trail_lim)
        level = 5
        unit = -solver._trail[lim[level - 1]]  # against level 5's decision
        assert solver._level[abs(unit)] == level
        prefix = solver._trail[:lim[level - 1]]
        solver.add_clause([unit])
        assert solver._trail_lim == lim[:level - 1]
        assert solver._trail == [*prefix, unit]
        assert solver._level[abs(unit)] == 0
        kept = solver.solve()
        fresh = SatEngine().solve(CnfFormula(f.num_vars, [*f.clauses, [unit]]))
        assert kept.status == fresh.status
        if kept.status == SAT:
            assert unit in kept.model
            assert all(not kept.model.isdisjoint(c) for c in f.clauses)

    @pytest.mark.parametrize("extra, levels, status", [
        ([], [1, 2, 0, 0], SAT), ([[-1]], [0, 1, 0, 0], UNSAT)],
        ids=["sat", "unsat"])
    def test_conflict_below_the_current_level(self, extra, levels, status):
        """A SAT answer decides -1, -2, -3, -4 in turn. The units 3 and 4
        then join the trail at level 0 above the decision -2, so together
        they falsify ``-3 or -4 or 1`` with no literal at the current
        level. The conflict's highest level is 1, where it is analysed and
        teaches ``1``. With ``-1`` a clause too, that highest level is 0,
        so the answer is UNSAT."""
        clauses = [[-3, -4, 1], *extra]
        solver = Solver(num_vars=4)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve().status == SAT
        assert solver._trail == [-1, -2, -3, -4]
        for unit in ([3], [4]):
            solver.add_clause(unit)
            clauses.append(unit)
        assert solver._trail == [-1, -2, 3, 4]
        assert [solver._level[v] for v in range(1, 5)] == levels
        result = solver.solve()
        assert result.status == status
        assert (status == SAT) == truth_table_satisfiable(
            CnfFormula(4, clauses))
        if status == SAT:
            assert result.model == {1, -2, 3, 4}
            assert result.stats.conflicts == 1


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_formula(rng, 4, 12)
            r1, r2 = SatEngine().solve(f), SatEngine().solve(f)
            assert r1.status == r2.status
            assert r1.model == r2.model
            assert r1.stats.decisions == r2.stats.decisions
            assert r1.stats.conflicts == r2.stats.conflicts


class TestBudget:
    def test_unlimited_budget_never_unknown(self):
        rng = np.random.default_rng(7)
        engine = SatEngine()
        for _ in range(30):
            assert engine.solve(random_formula(rng, 2, 8)).status != UNKNOWN


class TestEngineBookkeeping:
    def test_call_counter(self):
        engine = SatEngine()
        f = CnfFormula(1, [[1]])
        engine.solve(f)
        engine.is_satisfiable(f)
        assert engine.calls == 2

    def test_stats_populated(self):
        f = CnfFormula(3, [[1, 2], [-1, 3], [-3, -2], [2, 3]])
        r = SatEngine().solve(f)
        assert r.stats.propagations > 0
