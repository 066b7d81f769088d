import time

import numpy as np
import pytest

from musprune import mus
from musprune.cnf import CnfFormula
from musprune.generators import (coloring_encoding, gen_graph_coloring,
                                 gen_sr_random)
from musprune.mus import (EnumerationTrace, MusRecord, _DeadlinePassed,
                          SubsetSolver, brute_force_muses, enumerate_marco,
                          is_mus, lift_muses, shrink, truth_table_satisfiable)
from musprune.sat import SatEngine, Solver

F1 = CnfFormula(2, [[1], [-1], [1, 2], [-2]])


def mus_sets(records):
    return sorted(tuple(sorted(r.clause_indices)) for r in records)


def random_unsat(rng, n_hi=5, m_hi=10):
    while True:
        n = int(rng.integers(2, n_hi + 1))
        m = int(rng.integers(3, m_hi + 1))
        clauses = []
        for _ in range(m):
            k = int(rng.integers(1, min(3, n) + 1))
            vs = rng.choice(n, size=k, replace=False) + 1
            signs = rng.integers(0, 2, size=k) * 2 - 1
            clauses.append([int(v * s) for v, s in zip(vs, signs)])
        f = CnfFormula(n, clauses)
        if not truth_table_satisfiable(f):
            return f


class TestIsMus:
    def test_f1_core_pair(self):
        assert is_mus(F1, {0, 1})

    def test_f1_non_minimal(self):
        assert not is_mus(F1, {0, 1, 2})

    def test_sat_subset(self):
        assert not is_mus(F1, {0, 2})

    def test_every_brute_force_mus_validates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = random_unsat(rng)
            for record in brute_force_muses(f):
                assert is_mus(f, record.clause_indices)

    def test_audit_asks_every_deletion_and_reads_no_witness(
            self, monkeypatch):
        """The audit vouches for a MUS by its own queries only: one for the
        set and one per clause, never a stored model of an earlier
        answer."""
        formulas = [gen_sr_random(26 + i, seed=(16, i)) for i in range(4)]
        muses = [(f, shrink(f, range(f.num_clauses)).clause_indices)
                 for f in formulas]

        class Unreadable(list):
            def _read(self, *args):
                raise AssertionError("the audit read a witness")
            __iter__ = __reversed__ = __getitem__ = __contains__ = _read
            __len__ = __bool__ = _read

        init = SubsetSolver.__init__

        def init_unreadable(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.witnesses = Unreadable()

        monkeypatch.setattr(SubsetSolver, "__init__", init_unreadable)
        for f, subset in muses:
            engine = SatEngine()
            assert is_mus(f, subset, engine)
            assert engine.calls == 1 + len(subset)


def k8_seven_colouring():
    edges = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]
    return coloring_encoding(8, edges, 7)


class TestUnsatCore:
    def test_sat_subset_has_none(self):
        """A SAT answer is None; its model is the one witness stored."""
        solver = SubsetSolver(F1)
        assert solver.query({0, 2}) is None
        [(mask, model)] = solver.witnesses
        assert 1 in model and {abs(lit) for lit in model} == {1, 2}
        assert mask == sum(1 << j for j, clause in enumerate(F1.clauses)
                           if model.isdisjoint(clause))

    def test_core_is_unsat_subset(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_unsat(rng)
            solver = SubsetSolver(f)
            core = solver.query(range(f.num_clauses))
            assert solver.witnesses == []
            assert core <= set(range(f.num_clauses))
            assert not truth_table_satisfiable(
                CnfFormula(f.num_vars, [f.clauses[j] for j in sorted(core)]))

    def test_core_leaves_out_unused_clauses(self):
        f = CnfFormula(3, [[1], [-1], [2, 3], [-3]])
        assert SubsetSolver(f).query(range(4)) == {0, 1}

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_the_formula_raises(self, index):
        """Index -1 would assume formula variable 2, and 3 a literal past
        the last selector."""
        solver = SubsetSolver(CnfFormula(2, [[1], [-1], [2]]))
        with pytest.raises(IndexError, match=f"clause index {index} out"):
            solver.query({0, index})
        assert solver.witnesses == []

    def test_passed_deadline_raises(self):
        with pytest.raises(_DeadlinePassed):
            SubsetSolver(F1).query({0, 1}, time.perf_counter())

    def test_index_checked_before_the_deadline(self):
        with pytest.raises(IndexError, match="clause index 99 out"):
            SubsetSolver(F1).query({0, 99}, time.perf_counter())


class TestShrink:
    def test_f1_full_seed(self):
        assert sorted(shrink(F1, {0, 1, 2, 3}).clause_indices) == [1, 2, 3]

    def test_already_minimal(self):
        assert sorted(shrink(F1, {0, 1}).clause_indices) == [0, 1]

    def test_sat_seed_rejected(self):
        with pytest.raises(ValueError, match="satisfiable"):
            shrink(F1, {0, 2})

    def test_output_is_mus_and_contained(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            f = random_unsat(rng)
            seed = set(range(f.num_clauses))
            record = shrink(f, seed)
            assert record.clause_indices <= seed
            assert is_mus(f, record.clause_indices)


class TestBruteForce:
    def test_f1(self):
        assert mus_sets(brute_force_muses(F1)) == [(0, 1), (1, 2, 3)]

    def test_single_pair(self):
        f = CnfFormula(1, [[1], [-1]])
        assert mus_sets(brute_force_muses(f)) == [(0, 1)]

    def test_sat_formula_has_none(self):
        assert brute_force_muses(CnfFormula(2, [[1, 2]])) == set()

    def test_guard(self):
        f = CnfFormula(1, [[1]] * 21)
        with pytest.raises(ValueError, match="clauses"):
            brute_force_muses(f)

    def test_empty_clause_is_singleton_mus(self):
        f = CnfFormula(1, [[], [1], [-1]])
        assert mus_sets(brute_force_muses(f)) == [(0,), (1, 2)]


class TestEnumerateMarco:
    def test_f1_exhaustive(self):
        trace = enumerate_marco(F1, 30.0)
        assert trace.exhausted
        assert mus_sets(trace.muses) == [(0, 1), (1, 2, 3)]

    def test_sat_input_rejected(self):
        with pytest.raises(ValueError, match="satisfiable"):
            enumerate_marco(CnfFormula(2, [[1, 2]]), 1.0)

    @pytest.mark.parametrize("first", [set(), {0}, {0, 1}])
    def test_sat_input_rejected_with_first(self, first):
        """A SAT kept set sends the run to the whole formula, which is
        SAT too."""
        with pytest.raises(ValueError, match="formula is satisfiable"):
            enumerate_marco(CnfFormula(2, [[1], [1, 2]]), 1.0, first=first)

    def test_nonpositive_budget_rejected(self):
        for budget in (0.0, float("nan")):
            with pytest.raises(ValueError, match="budget"):
                enumerate_marco(F1, budget)

    def test_records_distinct_and_sound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_unsat(rng)
            trace = enumerate_marco(f, 30.0)
            as_sets = [r.clause_indices for r in trace.muses]
            assert len(set(as_sets)) == len(as_sets)
            for indices in as_sets:
                assert is_mus(f, indices)

    def test_matches_brute_force_when_exhausted(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            f = random_unsat(rng, n_hi=4, m_hi=9)
            trace = enumerate_marco(f, 30.0)
            assert trace.exhausted
            assert mus_sets(trace.muses) == mus_sets(brute_force_muses(f))

    def test_first_clauses_enumerated_first(self):
        trace = enumerate_marco(F1, 30.0, first={1, 2, 3})
        assert [sorted(r.clause_indices) for r in trace.muses] == [[1, 2, 3],
                                                             [0, 1]]
        assert trace.exhausted

    def test_first_mus_of_kept_set_before_any_map_solve(self, monkeypatch):
        """The restricted map's first seed is the kept set itself, which is
        the first query: the first MUS reaches the sink before the map is
        solved at all."""
        events = []
        solve = Solver.solve

        def spy(self, *args, **kwargs):
            if type(self) is Solver:  # the subset solver is a SolverSession
                events.append("map solve")
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(Solver, "solve", spy)
        trace = enumerate_marco(
            F1, 30.0, sink=lambda r: events.append(sorted(r.clause_indices)),
            first={1, 2, 3})
        assert trace.exhausted
        assert events[0] == [1, 2, 3]
        assert "map solve" in events

    def test_first_index_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            enumerate_marco(F1, 30.0, first={0, 4})

    def test_unsat_kept_set_is_the_only_question_before_shrink(
            self, monkeypatch):
        """An UNSAT kept set shows the formula UNSAT, so the whole
        formula is never asked: the kept set is queried once, and shrink
        needs one deletion query before the first MUS reaches the
        sink."""
        events = []
        query = SubsetSolver.query

        def spy(self, subset, deadline=None):
            events.append(sorted(subset))
            return query(self, subset, deadline)

        monkeypatch.setattr(SubsetSolver, "query", spy)
        enumerate_marco(F1, 30.0, first={1, 2, 3},
                        sink=lambda r: events.append(sorted(r.clause_indices)))
        assert events[:3] == [[1, 2, 3], [2, 3], [1, 2, 3]]

    def test_deadline_passing_at_the_map_rebuild_ends_the_run(
            self, monkeypatch):
        """The restricted map of F1's kept set {1, 2, 3} runs out, and the
        deadline passes while the whole map is loaded: the run returns
        the one MUS found, unexhausted, and never solves the new map."""
        late = [0.0]

        class Clock:
            @staticmethod
            def perf_counter():
                return time.perf_counter() + late[0]

        loaded, solved = [], []

        class SpySolver(Solver):
            def load(self, formula, guarded):
                loaded.append(self)
                if len(loaded) == 2:
                    late[0] = 1e9
                return super().load(formula, guarded)

            def solve(self, assumptions=(), deadline=None):
                solved.append(self)
                return super().solve(assumptions, deadline)

        monkeypatch.setattr(mus, "time", Clock)
        monkeypatch.setattr(mus, "Solver", SpySolver)
        trace = enumerate_marco(F1, 30.0, first={1, 2, 3})
        assert [r.clause_indices for r in trace.muses] == [{1, 2, 3}]
        assert not trace.exhausted
        assert len(loaded) == 2
        assert loaded[0] in solved and loaded[1] not in solved

    def test_sat_kept_set_falls_back_to_the_whole_formula(self):
        """A SAT kept set holds no MUS; the run asks the whole formula,
        grows from the kept set's model, and an exhausted run still gives
        every MUS."""
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 15:
            f = random_unsat(rng, n_hi=4, m_hi=9)
            first = {j for j in range(f.num_clauses) if rng.random() < 0.6}
            kept = CnfFormula(f.num_vars, [f.clauses[j] for j in first])
            if not truth_table_satisfiable(kept):
                continue
            trace = enumerate_marco(f, 30.0, first=first)
            assert trace.exhausted
            assert mus_sets(trace.muses) == mus_sets(brute_force_muses(f))
            checked += 1

    @pytest.mark.parametrize("call", [
        lambda: enumerate_marco(F1, 1e-9, first={0, 99}),
        lambda: is_mus(F1, {0, 99}),
        lambda: shrink(F1, {0, 99})],
        ids=["enumerate_marco", "is_mus", "shrink"])
    def test_index_outside_the_formula_raises(self, call):
        """Even a run whose budget has passed names the bad index."""
        with pytest.raises(IndexError, match="out of range"):
            call()

    def test_sink_called_per_mus(self):
        collected = []
        trace = enumerate_marco(F1, 30.0, sink=collected.append)
        assert collected == trace.muses

    def test_budget_holds_on_hard_first_check(self):
        # Refuting the K8 7-colouring alone takes this engine 8-11 s. The
        # deadline is read at conflicts only, so the bound leaves room for
        # a slow host.
        start = time.perf_counter()
        trace = enumerate_marco(k8_seven_colouring(), 0.2)
        assert time.perf_counter() - start < 0.2 + 2.0
        assert trace.muses == [] and not trace.exhausted

    def test_first_seed_answered_by_the_full_check(self):
        """Unrestricted, the map's first seed is every clause: the full
        UNSAT check answers it, so that seed costs no second query. The
        MUS sets and seed counts are those of a run that asks it again,
        with one subset query fewer (11 and 18 queries then, 10 and 17
        without it). Grow now skips a candidate that completes a MUS
        already found, which leaves 6 and 9."""
        xor = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
        for clauses, muses, seeds, calls in (
                (xor, [[0, 1, 2, 3]], 5, 6),
                (xor + [[1], [-1]],
                 [[0, 1, 2, 3], [0, 1, 5], [2, 3, 4], [4, 5]], 8, 9)):
            engine = SatEngine()
            trace = enumerate_marco(CnfFormula(2, clauses), 30.0,
                                    engine=engine)
            assert trace.exhausted
            assert mus_sets(trace.muses) == [tuple(m) for m in muses]
            assert trace.seeds_tested == seeds
            assert engine.calls == calls

    def test_tiny_budget_contract(self):
        rng = np.random.default_rng(5)
        f = random_unsat(rng, n_hi=5, m_hi=10)
        trace = enumerate_marco(f, 1e-9)
        assert not trace.exhausted
        assert trace.muses == []


def sr_formulas():
    """16 seeded SR formulas of 26-34 variables."""
    return [gen_sr_random(26 + i * 9 // 16, seed=(16, i)) for i in range(16)]


def colourings():
    """16 seeded UNSAT 3-colourings of G(12, 0.4)."""
    return [gen_graph_coloring((12, 12), 0.4, (3, 3), seed=(23, i))
            for i in range(16)]


def marco_to_fourth_mus(engines, formulas=None, on_mus=None):
    """MARCO to the 4th MUS, or to exhaustion, on ``formulas`` (by default
    ``sr_formulas()``), the i-th run with ``engines[i]``; the number of
    MUSes found. ``on_mus``, when given, sees each MUS record."""
    class Enough(Exception):
        pass

    muses = 0
    for i, f in enumerate(formulas or sr_formulas()):
        found = []

        def sink(record):
            found.append(record)
            if on_mus is not None:
                on_mus(record)
            if len(found) == 4:
                raise Enough

        try:
            enumerate_marco(f, 600.0, sink=sink, engine=engines[i])
        except Enough:
            pass
        muses += len(found)
    return muses


class TestQueryCount:
    def test_subset_queries_per_mus_on_sr_formulas(self):
        """A count, not a timing. MARCO to the 4th MUS on 16 seeded SR
        formulas of 26-34 variables made 2,021 subset queries for 64 MUSes
        (31.6 per MUS) with deletion shrink and one query per grow
        candidate, 683 (10.7 per MUS) once shrink rotates models and grow
        takes in what each model satisfies, 496 (7.75 per MUS) once shrink
        also marks a clause critical when a model of an earlier answer
        falsifies only it, and 451 (7.05 per MUS) now that rotation from a
        query's model passes through clauses already critical and the
        full UNSAT check answers the first seed, and 366 (5.72 per MUS)
        now that grow skips a candidate that completes a MUS already
        found. The bound is under the fourth figure."""
        engines = [SatEngine() for _ in range(16)]
        muses = marco_to_fourth_mus(engines)
        queries = sum(engine.calls for engine in engines)
        assert muses == 64
        assert queries / muses <= 6.0, queries

    def test_subset_queries_per_mus_on_colourings(self):
        """A count, not a timing. MARCO to the 4th MUS on 16 seeded
        3-colourings of G(12, 0.4) made 1,019 subset queries for 52 MUSes
        (19.6 per MUS) with plain rotation, 631 (12.1 per MUS) once
        rotation from a query's model passes through clauses already
        critical and the full UNSAT check answers the first seed, and 511
        (9.83 per MUS) now that grow skips a candidate that completes a
        MUS already found. The bound is under the second figure."""
        engines = [SatEngine() for _ in range(16)]
        muses = marco_to_fourth_mus(engines, colourings())
        queries = sum(engine.calls for engine in engines)
        assert muses == 52
        assert queries / muses <= 10.5, queries

    def test_no_query_holds_a_found_mus(self, monkeypatch):
        """Grow skips a candidate that completes a MUS the run has found,
        and no other query can hold one: each map seed is blocked above
        every found MUS, and shrink queries inside its seed. So no subset
        query holds a MUS already sent to the sink: on the SR formulas
        and colourings to the 4th MUS, and on exhausted runs of small
        formulas. Each run has its own subset solver."""
        found: list[frozenset[int]] = []
        holding = []
        run = [None]
        query = SubsetSolver.query

        def spy(self, subset, deadline=None):
            if self is not run[0]:
                run[0] = self
                found.clear()
            subset = set(subset)
            holding.extend(mus for mus in found if mus <= subset)
            return query(self, subset, deadline)

        def on_mus(record):
            found.append(record.clause_indices)

        monkeypatch.setattr(SubsetSolver, "query", spy)
        assert marco_to_fourth_mus(
            [None] * 32, sr_formulas() + colourings(), on_mus) == 64 + 52
        rng = np.random.default_rng(6)
        for _ in range(30):
            trace = enumerate_marco(random_unsat(rng), 30.0, sink=on_mus)
            assert trace.exhausted
        assert holding == []

    def test_map_solver_decisions_per_seed(self, monkeypatch):
        """A count, not a timing. On the same runs, the map solver made
        20,286 decisions for 128 seeds (158.5 per seed) when every solve
        started from an empty trail, and 11,769 (91.9 per seed) once a SAT
        answer's trail stays for the next blocking clause. It made 11,580
        (90.5 per seed) once the full UNSAT check answers each run's
        first seed, so the map solver was asked 112 times. It makes 4,844
        for 126 seeds (38.4 per seed, 110 map solves) now that a unit
        blocking clause keeps the trail below its variable's level, and
        grow, skipping candidates that complete a found MUS, changes the
        map's course. The bound is under 1/3 of the first figure."""
        decisions = []

        class CountingSolver(Solver):
            def solve(self, assumptions=(), deadline=None):
                result = super().solve(assumptions, deadline)
                decisions.append(result.stats.decisions)
                return result

        monkeypatch.setattr(mus, "Solver", CountingSolver)
        assert marco_to_fourth_mus([None] * 16) == 64
        assert len(decisions) == 110
        assert sum(decisions) / (110 + 16) <= 50.0, sum(decisions)


class TestLiftMuses:
    def test_identity_map(self):
        trace = EnumerationTrace(muses=[MusRecord(frozenset({0, 1}))],
                                 seeds_tested=1, exhausted=True)
        lifted = lift_muses(trace, [0, 1])
        assert lifted.muses[0].clause_indices == frozenset({0, 1})

    def test_relabeling(self):
        trace = EnumerationTrace(muses=[MusRecord(frozenset({0, 1}))])
        lifted = lift_muses(trace, [2, 5])
        assert lifted.muses[0].clause_indices == frozenset({2, 5})

    def test_unmapped_index(self):
        trace = EnumerationTrace(muses=[MusRecord(frozenset({3}))])
        with pytest.raises(IndexError, match="index map"):
            lift_muses(trace, [0, 1])

    def test_metadata_preserved(self):
        trace = EnumerationTrace(muses=[MusRecord(frozenset({0}))],
                                 seeds_tested=7, exhausted=False)
        lifted = lift_muses(trace, [4])
        assert lifted.seeds_tested == 7
        assert lifted.exhausted is False


class TestSubsetMusProperty:
    def test_mus_of_subset_is_mus_of_whole(self):
        # Any MUS found inside an UNSAT subset validates on the full formula.
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 10:
            f = random_unsat(rng)
            full = set(range(f.num_clauses))
            sub = {c for c in full if rng.random() < 0.8}
            order = sorted(sub)
            induced = CnfFormula(f.num_vars, [f.clauses[j] for j in order])
            if truth_table_satisfiable(induced):
                continue
            for record in brute_force_muses(induced):
                original_indices = {order[i] for i in record.clause_indices}
                assert is_mus(f, original_indices)
            checked += 1
