"""Property tests of the SAT and MUS core against the truth-table oracle.

Settings are deterministic (derandomized, no example database) so every
run draws the same examples.
"""

import random
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from musprune import sat
from musprune.cnf import CnfFormula
from musprune.mus import (brute_force_muses, enumerate_marco, is_mus, shrink,
                          truth_table_satisfiable)
from musprune.sat import SAT, UNKNOWN, UNSAT, Solver

SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                    deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


@st.composite
def formulas(draw, max_vars=10, max_clauses=45, min_clauses=0):
    n = draw(st.integers(1, max_vars))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3),
                            min_size=min_clauses, max_size=max_clauses))
    return CnfFormula(n, clauses)


@st.composite
def three_sat(draw, min_vars=8, max_vars=12):
    """Random 3-SAT near the threshold ratio, where the search backtracks."""
    n = draw(st.integers(min_vars, max_vars))
    m = round(n * draw(st.floats(3.8, 4.8)))
    clause = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)
    clauses = draw(st.lists(clause, min_size=m, max_size=m))
    signs = draw(st.lists(st.booleans(), min_size=3 * m, max_size=3 * m))
    return CnfFormula(n, [[v if signs[3 * i + k] else -v
                           for k, v in enumerate(c)]
                          for i, c in enumerate(clauses)])


@st.composite
def with_assumptions(draw, formula_strategy=formulas()):
    f = draw(formula_strategy)
    vs = draw(st.lists(st.integers(1, f.num_vars), unique=True,
                       max_size=f.num_vars))
    signs = draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
    return f, [v if s else -v for v, s in zip(vs, signs)]


def with_units(f, lits):
    return CnfFormula(f.num_vars, list(f.clauses) + [[a] for a in lits])


def random_3sat(n, m, seed):
    rng = random.Random(seed)
    return CnfFormula(n, [[v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, n + 1), 3)]
                          for _ in range(m)])


def make_solver(f):
    solver = Solver(num_vars=f.num_vars)
    for clause in f.clauses:
        solver.add_clause(clause)
    return solver


def solve_or_give_up(f, assumptions, give_up):
    """Solve, under an already passed deadline if ``give_up``.

    A passed deadline trips at the first conflict with UNKNOWN and no
    core; the same solver is then asked again without one.
    """
    solver = make_solver(f)
    r = solver.solve(assumptions, time.perf_counter() if give_up else None)
    if r.status == UNKNOWN:
        assert give_up
        assert r.stats.conflicts == 1 and r.core is None
        r = solver.solve(assumptions)
    assert r.status != UNKNOWN
    return r


def satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


@st.composite
def small_unsat(draw):
    f = draw(formulas(max_vars=5, max_clauses=11, min_clauses=2))
    if truth_table_satisfiable(f):
        # Add the negations of a model's literals until UNSAT: every
        # drawn formula is used, none rejected.
        while truth_table_satisfiable(f):
            model = sat.SatEngine().solve(f).model
            v = draw(st.integers(1, f.num_vars))
            f = CnfFormula(f.num_vars,
                           list(f.clauses) + [[-v if model[v] else v]])
    return f


class TestCdcl:
    @SETTINGS
    @given(with_assumptions(st.one_of(formulas(), three_sat())),
           st.booleans())
    def test_agrees_with_truth_table(self, case, give_up):
        f, assumptions = case
        r = solve_or_give_up(f, assumptions, give_up)
        expected = truth_table_satisfiable(with_units(f, assumptions))
        assert (r.status == SAT) == expected
        if r.status == SAT:
            assert satisfies(r.model, f.clauses)
            assert all(r.model[abs(a)] == (a > 0) for a in assumptions)

    @SETTINGS
    @given(with_assumptions(), st.lists(st.integers(0, 44), max_size=6))
    def test_interleaved_add_and_solve(self, case, solve_points):
        f, assumptions = case
        session = sat.SatEngine().session(f.num_vars)
        for i, clause in enumerate(f.clauses):
            session.add_clause(clause)
            if i in solve_points:
                prefix = CnfFormula(f.num_vars, f.clauses[: i + 1])
                expected = truth_table_satisfiable(with_units(prefix, assumptions))
                assert (session.model(assumptions) is not None) == expected
        assert (session.model() is not None) == truth_table_satisfiable(f)

    @SETTINGS
    @given(with_assumptions(st.one_of(formulas(), three_sat())),
           st.booleans())
    def test_cores(self, case, give_up):
        f, assumptions = case
        r = solve_or_give_up(f, assumptions, give_up)
        if r.status != UNSAT:
            assert r.core is None
            return
        if r.core is None:
            assert not truth_table_satisfiable(f)
            return
        assert set(r.core) <= set(assumptions)
        assert not truth_table_satisfiable(with_units(f, r.core))


class TestDecisionHeap:
    @SETTINGS
    @given(with_assumptions(st.one_of(formulas(), three_sat())),
           st.sampled_from([sat._ACTIVITY_RESCALE, 2.0]))
    # Rescales while bumped variables are free, which drawn formulas
    # reach only now and then.
    @example(case=(random_3sat(20, 86, 3), []), rescale=2.0)
    def test_pick_equals_linear_scan(self, case, rescale):
        """Every decision is the free variable of highest activity, ties
        to the lowest index; every free variable has an entry at its
        current activity, and the heap never holds more than 2 * num_vars
        entries. A low rescale threshold exercises the rebuild after
        rescaling; a variable added between queries joins the heap."""
        f, assumptions = case
        decide = Solver._decide

        def checked(self):
            free = [v for v in range(1, self.num_vars + 1)
                    if self._assign[v] == 0]
            best = max(free, key=lambda v: (self._activity[v], -v))
            entries = set(self._heap)
            assert all((-self._activity[v], v) in entries for v in free)
            assert len(self._heap) <= 2 * self.num_vars
            decide(self)
            assert abs(self._trail[-1]) == best
            assert len(self._heap) <= 2 * self.num_vars

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Solver, "_decide", checked)
            mp.setattr(sat, "_ACTIVITY_RESCALE", rescale)
            solver = make_solver(f)
            solver.solve(assumptions)
            extra = solver.add_variable()
            solver.add_clause([extra, -1])
            solver.solve()
        assert len(solver._heap) <= 2 * solver.num_vars


class TestMus:
    @SETTINGS
    @given(small_unsat())
    def test_exhausted_marco_equals_brute_force(self, f):
        trace = enumerate_marco(f, 60.0)
        assert trace.exhausted
        assert ({r.clause_indices for r in trace.muses}
                == {r.clause_indices for r in brute_force_muses(f)})

    @SETTINGS
    @given(small_unsat(), st.data())
    def test_shrink_returns_mus_inside_seed(self, f, data):
        m = f.num_clauses
        extra = data.draw(st.sets(st.integers(0, m - 1)))
        # A seed that contains a MUS is UNSAT.
        some_mus = min(brute_force_muses(f), key=lambda r: r.sorted_indices())
        seed = set(some_mus.clause_indices) | extra
        record = shrink(f, seed)
        assert record.clause_indices <= seed
        assert is_mus(f, record.clause_indices)
