"""Property tests of the SAT and MUS core against the truth-table oracle.

Settings are deterministic (derandomized, no example database) so every
run draws the same examples.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from musprune import mus, sat
from musprune.cnf import (CnfFormula, DimacsFormatError, parse_dimacs,
                          write_dimacs)
from musprune.lcg import build_lcg, make_input_features
from musprune.model import ModelConfig, forward, init_params
from musprune.mus import (BRUTE_FORCE_CLAUSE_LIMIT, _grow_in, _rotate,
                          _shrink_in, SubsetSolver, brute_force_muses,
                          enumerate_marco, is_mus, lift_muses, shrink,
                          truth_table_satisfiable)
from musprune.pruning import (clause_length_prune, threshold_prune,
                              variable_frequency_prune)
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
def assumption_sets(draw, num_vars):
    """Literals over distinct variables of 1..num_vars, in drawn order."""
    vs = draw(st.lists(st.integers(1, num_vars), unique=True,
                       max_size=num_vars))
    signs = draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
    return [v if s else -v for v, s in zip(vs, signs)]


@st.composite
def with_assumptions(draw, formula_strategy=formulas()):
    f = draw(formula_strategy)
    return f, draw(assumption_sets(f.num_vars))


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
    return all(not model.isdisjoint(c) for c in clauses)


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
                           list(f.clauses) + [[-v if v in model else v]])
    return f


@st.composite
def noisy_unsat(draw):
    """A small UNSAT formula with one to three clauses spliced in, each a
    tautology or a clause that repeats a literal; ``CnfFormula`` keeps
    both as given."""
    f = draw(small_unsat())
    clauses = list(f.clauses)
    literal = st.integers(1, f.num_vars).flatmap(
        lambda v: st.sampled_from([v, -v]))
    for _ in range(draw(st.integers(1, 3))):
        lit, other = draw(literal), draw(literal)
        clause = draw(st.sampled_from([[lit, other, -lit], [lit, other, lit]]))
        clauses.insert(draw(st.integers(0, len(clauses))), clause)
    return CnfFormula(f.num_vars, clauses)


def assignments(num_vars):
    """Every total assignment of variables 1..num_vars, as the set of its
    true literals."""
    for bits in range(1 << num_vars):
        yield {v if bits >> (v - 1) & 1 else -v
               for v in range(1, num_vars + 1)}


def induced(f, indices):
    """The sub-formula of ``f``'s clauses at ``indices``, in ascending
    order."""
    return CnfFormula(f.num_vars, [f.clauses[j] for j in sorted(indices)])


def unsat_subset(f, data):
    """A drawn UNSAT subset of ``f``'s clauses; all of them if the drawn
    one is SAT."""
    subset = data.draw(st.sets(st.integers(0, f.num_clauses - 1)))
    if truth_table_satisfiable(induced(f, subset)):
        return set(range(f.num_clauses))
    return subset


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
            assert r.model.issuperset(assumptions)

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
                assert (session.solve(assumptions).model is not None) == expected
        assert (session.solve().model is not None) == truth_table_satisfiable(f)

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

    @SETTINGS
    @given(st.one_of(formulas(), three_sat()), st.data())
    def test_cores_on_a_reused_solver(self, f, data):
        """One solver answers a drawn sequence of assumption sets, so the
        clauses learned on one query carry over to the next. Every answer
        agrees with the truth table, and every core is a subset of its
        query's assumptions that is UNSAT with the clauses."""
        solver = make_solver(f)
        for assumptions in data.draw(st.lists(assumption_sets(f.num_vars),
                                              min_size=1, max_size=10)):
            r = solver.solve(assumptions)
            assert (r.status == SAT) == truth_table_satisfiable(
                with_units(f, assumptions))
            if r.core is None:
                assert r.status == SAT or not truth_table_satisfiable(f)
                continue
            assert set(r.core) <= set(assumptions)
            assert not truth_table_satisfiable(with_units(f, r.core))
        assert (solver.solve().status == SAT) == truth_table_satisfiable(f)


@st.composite
def guarded(draw):
    """A formula, assumption literals over its variables, and k selectors
    n+1..n+k: clause j is guarded by the negations of one or two of them
    (``guards[j]``) and is active when all of those are assumed."""
    f, lits = draw(with_assumptions(st.one_of(formulas(), three_sat())))
    n = f.num_vars
    selector = st.integers(n + 1, n + draw(st.integers(1, f.num_clauses + 1)))
    guards = [sorted(draw(st.frozensets(selector, min_size=1, max_size=2)))
              for _ in f.clauses]
    assumed = sorted(draw(st.frozensets(selector)))
    return f, lits, guards, assumed


def guarded_solver(f, guards, assumed):
    """A solver over ``f``'s clauses with their guards, every selector
    out of the decision order. Guards may be shared or doubled, which
    ``Solver.add_guarded_clause`` never builds, so the selectors are made
    by the private ``_new_variables`` directly."""
    solver = Solver(num_vars=f.num_vars)
    solver._new_variables(
        max([f.num_vars, *assumed, *sum(guards, [])]) - f.num_vars, False)
    for clause, g in zip(f.clauses, guards):
        solver.add_clause(list(clause) + [-s for s in g])
    return solver


class TestDecisionHeap:
    @SETTINGS
    @given(st.one_of(with_assumptions(st.one_of(formulas(), three_sat()))
                     .map(lambda case: (*case, None, [])), guarded()),
           st.sampled_from([sat._ACTIVITY_RESCALE, 2.0]))
    # Rescales while bumped variables are free, which drawn formulas
    # reach only now and then.
    @example(case=(random_3sat(20, 86, 3), [], None, []), rescale=2.0)
    def test_pick_equals_linear_scan(self, case, rescale):
        """Every decision is the free decision variable of highest
        activity, ties to the lowest index, and the answer is SAT only
        when no free decision variable is left; every free decision
        variable has an entry at its current activity, no entry names a
        non-decision variable, and the heap never holds more than
        2 * num_vars entries. A low rescale threshold
        exercises the rebuild after rescaling; a selector added between
        queries stays out of the heap. Guarded cases add non-decision
        selectors, some of them assumed."""
        f, lits, guards, assumed = case
        decide = Solver._decide

        def checked(self):
            free = [v for v in range(1, self.num_vars + 1)
                    if self._assign[v] == 0 and self._decision[v]]
            entries = set(self._heap)
            assert all((-self._activity[v], v) in entries for v in free)
            assert all(self._decision[v] for _, v in self._heap)
            assert len(self._heap) <= 2 * self.num_vars
            decided = decide(self)
            assert decided == bool(free)
            if free:
                best = max(free, key=lambda v: (self._activity[v], -v))
                assert abs(self._trail[-1]) == best
            assert len(self._heap) <= 2 * self.num_vars
            return decided

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Solver, "_decide", checked)
            mp.setattr(sat, "_ACTIVITY_RESCALE", rescale)
            solver = (make_solver(f) if guards is None
                      else guarded_solver(f, guards, assumed))
            solver.solve(lits + assumed)
            extra = solver.add_guarded_clause([-1])
            solver.solve([extra])
        assert len(solver._heap) <= 2 * solver.num_vars


def recording_decide(picks):
    """``Solver._decide`` that appends every variable it branches on to
    ``picks``."""
    decide = Solver._decide

    def recorded(self):
        depth = len(self._trail_lim)
        decided = decide(self)
        if len(self._trail_lim) > depth:
            picks.append(abs(self._trail[-1]))
        return decided
    return recorded


class TestNonDecisionSelectors:
    @SETTINGS
    @given(guarded(), st.booleans())
    def test_models_satisfy_guarded_clauses(self, case, give_up):
        """With selectors that occur only negatively marked non-decision,
        the answer agrees with the truth table on the active clauses, and
        a SAT model, unassigned selectors read false, satisfies every
        guarded clause and every assumption."""
        f, lits, guards, assumed = case
        solver = guarded_solver(f, guards, assumed)
        assumptions = lits + assumed
        r = solver.solve(assumptions,
                         time.perf_counter() if give_up else None)
        if r.status == UNKNOWN:
            r = solver.solve(assumptions)
        active = CnfFormula(f.num_vars, [c for c, g in zip(f.clauses, guards)
                                         if set(g) <= set(assumed)])
        assert (r.status == SAT) == truth_table_satisfiable(
            with_units(active, lits))
        if r.status == SAT:
            assert satisfies(r.model, [list(c) + [-s for s in g]
                                       for c, g in zip(f.clauses, guards)])
            assert r.model.issuperset(assumptions)

    @SETTINGS
    @given(with_assumptions(st.one_of(formulas(), three_sat())), st.data())
    def test_add_guarded_clause(self, case, data):
        """Each clause gets a fresh selector after the formula's variables;
        the solver never branches on one, the answer agrees with the truth
        table on the clauses whose selectors are assumed, and a SAT model
        holds one literal per variable and satisfies every guarded
        clause."""
        f, lits = case
        solver = Solver(num_vars=f.num_vars)
        selectors = [solver.add_guarded_clause(c) for c in f.clauses]
        n = f.num_vars
        assert selectors == list(range(n + 1, n + 1 + f.num_clauses))
        active = data.draw(st.sets(st.sampled_from(range(f.num_clauses)))
                           if f.num_clauses else st.just(set()))
        picks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Solver, "_decide", recording_decide(picks))
            r = solver.solve(lits + [selectors[j] for j in sorted(active)])
        assert all(v <= n for v in picks)
        subset = CnfFormula(n, [f.clauses[j] for j in sorted(active)])
        assert (r.status == SAT) == truth_table_satisfiable(
            with_units(subset, lits))
        if r.status == SAT:
            assert {abs(lit) for lit in r.model} == set(
                range(1, solver.num_vars + 1))
            assert len(r.model) == solver.num_vars
            assert satisfies(r.model, [list(c) + [-s] for c, s
                                       in zip(f.clauses, selectors)])

    @SETTINGS
    @given(small_unsat(), st.data())
    def test_subset_queries_never_decide_a_selector(self, f, data):
        """Every variable a subset query branches on is a variable of the
        formula, never a clause selector."""
        picks = []
        subsets = data.draw(st.lists(
            st.sets(st.integers(0, f.num_clauses - 1)), min_size=1,
            max_size=8))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Solver, "_decide", recording_decide(picks))
            solver = SubsetSolver(f)
            for subset in subsets:
                solver.query(subset)
        assert all(v <= f.num_vars for v in picks)

    @SETTINGS
    @given(st.one_of(small_unsat(), three_sat()), st.data())
    def test_subset_cores_on_a_reused_solver(self, f, data):
        """One subset solver answers a drawn sequence of clause subsets.
        Every answer agrees with the truth table on the subset, every
        core is a subset of its query's clauses that is UNSAT, and every
        model sets each variable of the formula once and satisfies the
        subset. A SAT answer is None and stores exactly one witness, whose
        model is read from there; an UNSAT answer stores none."""
        def clauses(indices):
            return CnfFormula(f.num_vars, [f.clauses[j] for j in indices])

        solver = SubsetSolver(f)
        subsets = data.draw(st.lists(
            st.sets(st.integers(0, f.num_clauses - 1)), min_size=1,
            max_size=10))
        for subset in subsets:
            stored = len(solver.witnesses)
            core = solver.query(subset)
            assert (core is None) == truth_table_satisfiable(clauses(subset))
            assert len(solver.witnesses) == stored + (core is None)
            if core is not None:
                assert core <= subset
                assert not truth_table_satisfiable(clauses(core))
            else:
                model = solver.witnesses[-1][1]
                assert {abs(lit) for lit in model} == set(
                    range(1, f.num_vars + 1))
                assert len(model) == f.num_vars
                assert satisfies(model, clauses(subset).clauses)


@st.composite
def bulk_loads(draw):
    """A noisy UNSAT formula (with tautologies and repeats) with unit and
    empty clauses spliced in."""
    f = draw(noisy_unsat())
    clauses = list(f.clauses)
    literal = st.integers(1, f.num_vars).flatmap(
        lambda v: st.sampled_from([v, -v]))
    for _ in range(draw(st.integers(0, 3))):
        clause = draw(st.sampled_from([[], [draw(literal)]]))
        clauses.insert(draw(st.integers(0, len(clauses))), clause)
    return CnfFormula(f.num_vars, clauses)


def per_clause_load(f, guarded):
    """The solver ``Solver.load`` must equal, built a clause at a time,
    and the selectors ``add_guarded_clause`` returned."""
    solver = Solver(num_vars=f.num_vars)
    if guarded:
        return solver, [solver.add_guarded_clause(c) for c in f.clauses]
    for clause in f.clauses:
        solver.add_clause(clause)
    return solver, []


def engine_state(solver):
    return (solver.num_vars, solver.ok, solver._recorded, solver._watches,
            solver._trail, solver._trail_lim, solver._assign, solver._level,
            solver._decision, sorted(solver._heap))


class TestBulkLoad:
    @SETTINGS
    @given(bulk_loads(), st.booleans(), st.data())
    def test_equals_per_clause_loading(self, f, guarded, data):
        """``Solver.load`` leaves the engine as ``add_clause`` (or
        ``add_guarded_clause``) per clause does: the same recorded
        clauses, watch lists in order, trail, ``ok`` and decision heap,
        with clause ``j``'s selector the returned first one plus ``j``;
        then the same answers, models, cores and decisions over a drawn
        sequence of solves."""
        bulk = Solver()
        first = bulk.load(f, guarded)
        reference, selectors = per_clause_load(f, guarded)
        assert first == f.num_vars + 1
        assert selectors == [first + j for j in range(len(selectors))]
        assert engine_state(bulk) == engine_state(reference)
        assert sorted(v for _, v in bulk._heap) == list(
            range(1, f.num_vars + 1))
        for _ in range(data.draw(st.integers(1, 4))):
            assumptions = data.draw(assumption_sets(bulk.num_vars))
            a, b = bulk.solve(assumptions), reference.solve(assumptions)
            assert (a.status, a.model, a.core, a.stats) \
                == (b.status, b.model, b.core, b.stats)
        assert engine_state(bulk) == engine_state(reference)

    def test_guarded_load_checks_formula_literals_only(self):
        """Literal 3 of a 2-variable formula names no formula variable,
        only the selector a guarded clause would get; a clause that holds
        it is rejected built a clause at a time as well as by the
        formula a bulk load takes."""
        with pytest.raises(ValueError, match="literal 3 out of range"):
            Solver(2).add_guarded_clause([1, 3])
        with pytest.raises(ValueError, match="literal 3 exceeds"):
            CnfFormula(2, [[1, 3]])

    def test_needs_a_solver_with_no_variables(self):
        with pytest.raises(ValueError, match="no variables"):
            Solver(1).load(CnfFormula(1, [[1]]), False)


@st.composite
def trail_clause(draw, num_vars, model):
    """A clause over variables 1..num_vars, in drawn order: a random one,
    a unit, a tautology or one that repeats a literal; and, given the
    last SAT answer's model (whose trail an assumption-free solve leaves
    in place), one it satisfies, one it falsifies, or one true on a
    single literal with the rest false."""
    literal = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from([v, -v]))
    kinds = ["random", "unit", "tautology", "repeat"]
    if model is not None:
        kinds += ["satisfied", "falsified", "one_true"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        clause = draw(st.lists(literal, min_size=1, max_size=4))
    elif kind == "unit":
        clause = [draw(literal)]
    elif kind in ("tautology", "repeat"):
        lit = draw(literal)
        clause = [lit, draw(literal), -lit if kind == "tautology" else lit]
    else:
        true = st.sampled_from(sorted(lit for lit in model
                                      if abs(lit) <= num_vars))
        false = true.map(lambda lit: -lit)
        if kind == "satisfied":
            clause = (draw(st.lists(true, min_size=1, max_size=2))
                      + draw(st.lists(literal, max_size=2)))
        elif kind == "falsified":
            clause = draw(st.lists(false, min_size=1, max_size=4))
        else:
            clause = [draw(true)] + draw(st.lists(false, max_size=3))
    return draw(st.permutations(clause))


class TestKeptTrail:
    @settings(SETTINGS, max_examples=400)
    @given(st.integers(1, 10), st.data())
    def test_interleavings_agree_with_truth_table(self, n, data):
        """One solver takes a drawn interleaving of clause additions,
        guarded clause additions and solves, with and without assumptions,
        some under a passed deadline. An assumption-free SAT answer leaves
        its trail in place, so clauses arrive while decisions stand:
        satisfied, falsified, or true on one literal under the kept trail,
        and unit on a fresh selector when a falsified clause is guarded.
        Every answer agrees with the truth table on the clauses so far,
        every model satisfies all of them and the assumptions, and every
        core is a subset of the assumptions that is UNSAT with them."""
        solver = Solver(num_vars=n)
        clauses: list[list[int]] = []  # guarded ones with their selector
        selectors: list[int] = []
        model = None
        for _ in range(data.draw(st.integers(1, 24))):
            op = data.draw(st.sampled_from(["add", "add", "guard", "solve"]))
            if op == "guard" and len(selectors) < 4:
                clause = data.draw(trail_clause(n, model))
                s = solver.add_guarded_clause(clause)
                selectors.append(s)
                clauses.append([*clause, -s])
                continue
            if op != "solve":
                clause = data.draw(trail_clause(n, model))
                solver.add_clause(clause)
                clauses.append(clause)
                continue
            assumptions = []
            if data.draw(st.booleans()):
                assumptions = data.draw(assumption_sets(n)) + data.draw(
                    st.lists(st.sampled_from(selectors), unique=True)
                    if selectors else st.just([]))
            give_up = data.draw(st.booleans())
            r = solver.solve(assumptions,
                             time.perf_counter() if give_up else None)
            if r.status == UNKNOWN:
                continue
            current = CnfFormula(solver.num_vars, clauses)
            assert (r.status == SAT) == truth_table_satisfiable(
                with_units(current, assumptions))
            if r.status == SAT:
                assert satisfies(r.model, clauses)
                assert r.model.issuperset(assumptions)
                model = r.model
            elif r.core is not None:
                assert set(r.core) <= set(assumptions)
                assert not truth_table_satisfiable(with_units(current, r.core))
            else:
                assert not truth_table_satisfiable(current)
        r = solver.solve()
        current = CnfFormula(solver.num_vars, clauses)
        assert (r.status == SAT) == truth_table_satisfiable(current)
        if r.status == SAT:
            assert satisfies(r.model, clauses)


class TestMus:
    @SETTINGS
    @given(st.one_of(small_unsat(), noisy_unsat()))
    def test_exhausted_marco_equals_brute_force(self, f):
        assume(f.num_clauses <= BRUTE_FORCE_CLAUSE_LIMIT)
        trace = enumerate_marco(f, 60.0)
        assert trace.exhausted
        assert ({r.clause_indices for r in trace.muses}
                == {r.clause_indices for r in brute_force_muses(f)})

    @SETTINGS
    @given(st.one_of(small_unsat(), noisy_unsat()), st.data())
    def test_shrink_returns_mus_inside_seed(self, f, data):
        """Shrink of an UNSAT seed is a MUS inside it, by the truth table."""
        seed = unsat_subset(f, data)
        mus = shrink(f, seed).clause_indices
        assert mus <= seed
        assert not truth_table_satisfiable(induced(f, mus))
        for c in mus:
            assert truth_table_satisfiable(induced(f, mus - {c}))


def reference_rotation(f, c, model, current, known, extend):
    """The clauses ``_rotate`` should mark, found in its order, but with
    every clause of ``current`` judged under each flipped model. ``known``
    holds the clauses marked before the call, ``c`` among them; with
    ``extend``, the walk goes on once per call through each marked
    clause that a flipped model alone falsifies."""
    marked = set(known)
    passed = set()
    stack = [(c, model)]
    while stack:
        c, model = stack.pop()
        for lit in dict.fromkeys(f.clauses[c]):
            flipped = (model - {-lit}) | {lit}
            false = [d for d in sorted(current)
                     if not satisfies(flipped, [f.clauses[d]])]
            if len(false) != 1:
                continue
            if false[0] not in marked:
                marked.add(false[0])
                stack.append((false[0], flipped))
            elif extend and false[0] not in passed:
                passed.add(false[0])
                stack.append((false[0], flipped))
    return marked


class TestModelUse:
    @SETTINGS
    @given(noisy_unsat(), st.data())
    def test_rotation_marks_only_critical_clauses(self, f, data):
        """For every critical clause ``c`` of an UNSAT clause set, every
        model of the set without ``c`` and a drawn set of clauses already
        marked, rotation marks the clauses the reference marks, plain and
        extended, and each is critical: the set without it is
        satisfiable. A tautology never is. The model is left as it was."""
        current = unsat_subset(f, data)
        critical = {c for c in current
                    if truth_table_satisfiable(induced(f, current - {c}))}
        known = data.draw(st.sets(st.sampled_from(sorted(critical)))
                          if critical else st.just(set()))
        solver = SubsetSolver(f)
        for c in sorted(critical):
            rest = [f.clauses[d] for d in current - {c}]
            for model in assignments(f.num_vars):
                if not satisfies(model, rest):
                    continue
                for extend in (False, True):
                    marked = known | {c}
                    before = set(model)
                    _rotate(solver, c, model, current, marked, extend)
                    assert model == before
                    assert marked <= critical, (c, sorted(model))
                    assert marked == reference_rotation(
                        f, c, model, current, known | {c}, extend)

    @SETTINGS
    @given(noisy_unsat(), st.data())
    def test_shrink_marks_from_witnesses_only_critical_clauses(self, f,
                                                               data):
        """After real queries on drawn subsets, each witness's mask is the
        set of clauses its model falsifies. Shrink then hands rotation only
        clauses critical for its working set, with a model that satisfies
        the rest of it, and returns a MUS inside its seed. Rotation is
        extended exactly when it starts from the model of the query just
        made, and plain when it starts from a stored witness."""
        current = unsat_subset(f, data)
        solver = SubsetSolver(f)
        for subset in data.draw(st.lists(
                st.sets(st.integers(0, f.num_clauses - 1)), max_size=6)):
            solver.query(subset)
        for mask, model in solver.witnesses:
            assert mask == sum(1 << j for j, clause in enumerate(f.clauses)
                               if not satisfies(model, [clause]))
        answers = []
        rotations = []
        real_query = solver.query

        def recording_query(subset, deadline=None):
            core = real_query(subset, deadline)
            answers.append(None if core is not None
                           else solver.witnesses[-1][1])
            return core

        def recording_rotate(solver, d, model, current, critical,
                             extend=False):
            from_query = bool(answers) and answers[-1] is model
            assert extend == from_query
            answers.append(None)
            rotations.append((d, set(model), set(current)))
            _rotate(solver, d, model, current, critical, extend)

        solver.query = recording_query
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mus, "_rotate", recording_rotate)
            result = _shrink_in(solver, current, None)
        for d, model, working in rotations:
            assert d in working
            assert satisfies(model, [f.clauses[j] for j in working - {d}])
            assert truth_table_satisfiable(induced(f, working - {d}))
        assert result <= current
        assert not truth_table_satisfiable(induced(f, result))
        for c in result:
            assert truth_table_satisfiable(induced(f, result - {c}))

    @SETTINGS
    @given(noisy_unsat(), st.data())
    def test_grow_returns_maximal_satisfiable_subset(self, f, data):
        """Grow from a drawn model's falsified-clause mask holds every
        clause of its universe that the model satisfies, is satisfiable,
        lies inside its universe, and turns UNSAT with any excluded
        clause of the universe added. Each query adds one candidate to
        the clauses the models so far satisfy, never one the starting
        model satisfies. Grow knows up to three MUSes, shrunk from drawn
        UNSAT subsets, and adds no clause that would complete one without
        a query."""
        m = f.num_clauses
        universe = sorted(data.draw(st.sets(st.integers(0, m - 1),
                                            min_size=1)))
        model = data.draw(st.sampled_from(list(assignments(f.num_vars))))
        falsified = sum(1 << j for j, clause in enumerate(f.clauses)
                        if model.isdisjoint(clause))
        satisfied = {c for c in universe
                     if not model.isdisjoint(f.clauses[c])}
        muses_of: list[list[int]] = [[] for _ in range(m)]
        for _ in range(data.draw(st.integers(0, 3))):
            found = shrink(f, unsat_subset(f, data)).clause_indices
            for j in found:
                muses_of[j].append(sum(1 << i for i in found))
        solver = SubsetSolver(f)
        queries = []
        real_query = solver.query

        def recording_query(subset, deadline=None):
            core = real_query(subset, deadline)
            queries.append((set(subset), None if core is not None
                            else solver.witnesses[-1][1]))
            return core

        solver.query = recording_query
        mask = _grow_in(solver, falsified, universe, None, muses_of)
        grown = {j for j in range(m) if mask >> j & 1}
        assert satisfied <= grown <= set(universe)
        assert truth_table_satisfiable(induced(f, grown))
        for c in set(universe) - grown:
            assert not truth_table_satisfiable(induced(f, grown | {c}))
        known = set(satisfied)
        for subset, answer in queries:
            (c,) = subset - known
            assert subset == known | {c}
            assert c not in satisfied
            if answer is not None:
                known |= {d for d in universe
                          if not answer.isdisjoint(f.clauses[d])}
        assert known == grown

    @SETTINGS
    @given(noisy_unsat(), st.data())
    def test_marco_continues_past_its_first_clauses(self, f, data):
        """With ``first`` set, the MUSes inside ``first`` come first, and
        an exhausted run gives every MUS of the formula."""
        assume(f.num_clauses <= BRUTE_FORCE_CLAUSE_LIMIT)
        first = data.draw(st.sets(st.integers(0, f.num_clauses - 1)))
        trace = enumerate_marco(f, 60.0, first=first)
        found = [r.clause_indices for r in trace.muses]
        oracle = {r.clause_indices for r in brute_force_muses(f)}
        inside = sum(mus <= first for mus in oracle)
        assert trace.exhausted
        assert len(found) == len(set(found)) and set(found) == oracle
        assert all(mus <= first for mus in found[:inside])


def check_pruning(f, outcome, engine, k):
    """The pruner contracts: the SAT-call bound, with the outcome's count
    equal to the calls its engine made, a pruned formula that is the
    induced sub-formula and UNSAT when it differs from the input, and
    MUSes of the pruned formula that lift to MUSes of the input."""
    assert outcome.sat_calls == engine.calls
    assert outcome.sat_calls <= math.ceil(math.log2(k + 1)) + 1
    assert outcome.unsat
    assert outcome.pruned.clauses == tuple(f.clauses[i]
                                           for i in outcome.index_map)
    if outcome.index_map != list(range(f.num_clauses)):
        assert not truth_table_satisfiable(outcome.pruned)
    trace = enumerate_marco(outcome.pruned, 60.0)
    assert trace.exhausted and trace.muses
    for record in lift_muses(trace, outcome.index_map).muses:
        assert is_mus(f, record.clause_indices)


class TestPruners:
    @SETTINGS
    @given(small_unsat(), st.integers(1, 16), st.data())
    def test_threshold_prune(self, f, k, data):
        scores = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
            min_size=f.num_clauses, max_size=f.num_clauses))
        engine = sat.SatEngine()
        check_pruning(f, threshold_prune(f, scores, k, engine), engine, k)

    @SETTINGS
    @given(small_unsat(), st.integers(1, 16))
    def test_variable_frequency_prune(self, f, k):
        engine = sat.SatEngine()
        check_pruning(f, variable_frequency_prune(f, k, engine), engine, k)

    @SETTINGS
    @given(small_unsat(), st.integers(1, 16))
    def test_clause_length_prune(self, f, steps):
        engine = sat.SatEngine()
        check_pruning(f, clause_length_prune(f, steps, engine), engine,
                      steps)


class TestDimacs:
    @SETTINGS
    @given(formulas())
    def test_write_parse_round_trip(self, f):
        assert parse_dimacs(write_dimacs(f)) == f

    @SETTINGS
    @given(formulas(max_clauses=8), st.booleans(), st.data())
    def test_mutated_text_raises_only_format_errors(self, f, as_bytes, data):
        """Insertions, deletions and replacements of characters that
        matter to the format, as text and as bytes, parse or raise
        DimacsFormatError, nothing else."""
        text = write_dimacs(f)
        alphabet = list("0123456789- \npcnfx\t") + (
            ["\xff", "\x80"] if as_bytes else ["\u0663", "\u00e9"])
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(text)))
            j = data.draw(st.integers(i, min(len(text), i + 3)))
            text = text[:i] + "".join(data.draw(st.lists(
                st.sampled_from(alphabet), max_size=3))) + text[j:]
        try:
            parse_dimacs(text.encode("latin-1") if as_bytes else text)
        except DimacsFormatError:
            pass


EQUIVARIANCE_PARAMS = init_params(ModelConfig(), seed=1)


class TestModelEquivariance:
    @SETTINGS
    @given(formulas(max_vars=8, max_clauses=20, min_clauses=1), st.data())
    def test_clause_permutation_permutes_mu(self, f, data):
        """Permuting the clauses, with the clause rows of the features,
        permutes ``forward``'s prune probabilities."""
        perm = data.draw(st.permutations(range(f.num_clauses)))
        graph = build_lcg(f)
        x = make_input_features(
            graph, EQUIVARIANCE_PARAMS.config.random_feature_dim, 0)
        lit = graph.num_literal_nodes
        permuted = CnfFormula(f.num_vars, [f.clauses[j] for j in perm])
        x_perm = np.vstack([x[:lit], x[lit:][perm]])
        mu = forward(EQUIVARIANCE_PARAMS, graph, x)
        mu_perm = forward(EQUIVARIANCE_PARAMS, build_lcg(permuted), x_perm)
        np.testing.assert_allclose(mu_perm, mu[perm], rtol=0, atol=1e-12)
