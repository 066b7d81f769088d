"""Replay of the SAT engine's learned clauses and cores (RUP check).

Every clause the engine learns must be implied by unit propagation from
the clauses it had before (reverse unit propagation: Goldberg & Novikov,
DATE 2003; the check DRAT-trim makes), and the assumptions of every core
must propagate to a conflict. The log is taken by wrapping
``Solver.add_clause``, the bulk load ``Solver.load`` (whose clauses are
logged as the engine records them, a guarded clause with its selector),
``Solver._analyze`` and ``Solver.solve`` for the solvers of MARCO runs,
map and subset solvers both, whole runs and runs inside a pruner's kept
set first, and for the subset solver of the threshold search, and
replayed by a small checker that shares no code with the engine.
"""

import numpy as np
import pytest

from musprune.generators import gen_sr_random
from musprune.mus import enumerate_marco
from musprune.pruning import variable_frequency_prune
from musprune.sat import UNSAT, SatEngine, Solver


class Propagator:
    """Unit propagation over a growing clause list, two watched literals."""

    def __init__(self):
        self.units: list[int] = []
        self.watches: dict[int, list[list[int]]] = {}
        self.empty = False

    def add(self, clause) -> None:
        clause = list(dict.fromkeys(clause))
        if any(-lit in clause for lit in clause):
            return  # a tautology never propagates
        if not clause:
            self.empty = True
        elif len(clause) == 1:
            self.units.append(clause[0])
        else:
            for lit in clause[:2]:
                self.watches.setdefault(lit, []).append(clause)

    def conflicts(self, lits) -> bool:
        """True iff asserting ``lits`` and propagating reaches a conflict."""
        if self.empty:
            return True
        true: set[int] = set()
        queue: list[int] = []
        for lit in [*self.units, *lits]:
            if -lit in true:
                return True
            if lit not in true:
                true.add(lit)
                queue.append(lit)
        head = 0
        while head < len(queue):
            falsified = -queue[head]
            head += 1
            watchers = self.watches.get(falsified, [])
            keep = []
            for idx, c in enumerate(watchers):
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                if c[0] in true:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    if -c[k] not in true:
                        c[1], c[k] = c[k], c[1]
                        self.watches.setdefault(c[1], []).append(c)
                        break
                else:
                    keep.append(c)
                    if -c[0] in true:
                        keep.extend(watchers[idx + 1:])
                        self.watches[falsified] = keep
                        return True
                    true.add(c[0])
                    queue.append(c[0])
            self.watches[falsified] = keep
        return False


def replay(events) -> list[tuple]:
    """The events of one solver's log that fail the check, in order."""
    checker, failed = Propagator(), []
    for kind, lits in events:
        if kind == "clause":
            checker.add(lits)
            continue
        if kind == "learned":
            ok = checker.conflicts([-lit for lit in lits])
            checker.add(lits)
        elif kind == "core":
            ok = checker.conflicts(lits)
        else:  # "unsat": the clauses alone propagate to a conflict
            ok = checker.conflicts([])
        if not ok:
            failed.append((kind, lits))
    return failed


def logged_run(monkeypatch, run, drop_literal=False, drop_loaded=False):
    """``run()``'s result, the event log of each solver it used, and the
    number of unit clauses added while a solver's trail stood above the
    root. A clause counts as unit when one literal is left once those
    fixed at level 0 are dropped. With ``drop_literal`` the log holds each
    learned clause of two or more literals without its first literal, and
    with ``drop_loaded`` each bulk load's clauses without its first
    clause, as a faulty engine would."""
    logs: dict[Solver, list[tuple]] = {}
    raised_units = 0
    add_clause, load, analyze, solve = (Solver.add_clause, Solver.load,
                                        Solver._analyze, Solver.solve)

    def logged_add_clause(self, lits):
        nonlocal raised_units
        lits = list(lits)
        logs.setdefault(self, []).append(("clause", lits))
        live = {q for q in lits
                if self._assign[abs(q)] == 0 or self._level[abs(q)] > 0}
        raised_units += len(live) == 1 and bool(self._trail_lim)
        add_clause(self, lits)

    def logged_load(self, formula, guarded):
        before = len(self._recorded)
        first = load(self, formula, guarded)
        loaded = self._recorded[before:]
        if drop_loaded:
            loaded = loaded[1:]
        logs.setdefault(self, []).extend(("clause", list(c)) for c in loaded)
        return first

    def logged_analyze(self, conflict):
        learned, level = analyze(self, conflict)
        lits = list(learned)
        if drop_literal and len(lits) > 1:
            lits = lits[1:]
        logs.setdefault(self, []).append(("learned", lits))
        return learned, level

    def logged_solve(self, assumptions=(), deadline=None):
        result = solve(self, assumptions, deadline)
        if result.core is not None:
            logs.setdefault(self, []).append(("core", list(result.core)))
        elif result.status == UNSAT:
            logs.setdefault(self, []).append(("unsat", []))
        return result

    monkeypatch.setattr(Solver, "add_clause", logged_add_clause)
    monkeypatch.setattr(Solver, "load", logged_load)
    monkeypatch.setattr(Solver, "_analyze", logged_analyze)
    monkeypatch.setattr(Solver, "solve", logged_solve)
    result = run()
    monkeypatch.undo()
    return result, list(logs.values()), raised_units


def criterion9_held_out(count):
    """The first ``count`` held-out SR formulas of acceptance criterion 9
    (20-40 variables): the same generator stream, past its 5000 training
    draws."""
    rng = np.random.default_rng(4242)
    for _ in range(5000):
        rng.integers(20, 41)
    return [gen_sr_random(int(rng.integers(20, 41)), seed=(33, i))
            for i in range(count)]


@pytest.fixture(scope="module")
def held_out():
    return criterion9_held_out(10)


class TestProofReplay:
    def test_learned_clauses_and_cores_are_rup(self, monkeypatch, held_out):
        _, logs, raised_units = logged_run(
            monkeypatch, lambda: [enumerate_marco(f, 0.3) for f in held_out])
        counts = {"learned": 0, "core": 0}
        for events in logs:
            assert replay(events) == []
            for kind, _ in events:
                if kind in counts:
                    counts[kind] += 1
        # Map and subset solvers of every run, with work for the check.
        assert len(logs) >= 2 * len(held_out)
        assert counts["learned"] > 500 and counts["core"] > 500, counts
        # Unit blocking clauses that keep the map solver's trail.
        assert raised_units >= 1

    def test_check_catches_a_dropped_literal(self, monkeypatch, held_out):
        _, logs, _ = logged_run(
            monkeypatch,
            lambda: [enumerate_marco(f, 0.1) for f in held_out[:2]],
            drop_literal=True)
        failed = [e for events in logs for e in replay(events)]
        assert any(kind == "learned" for kind, _ in failed)

    def test_check_catches_a_dropped_loaded_clause(self, monkeypatch,
                                                   held_out):
        _, logs, _ = logged_run(
            monkeypatch,
            lambda: [enumerate_marco(f, 0.1) for f in held_out[:2]],
            drop_loaded=True)
        assert any(replay(events) for events in logs)

    def test_threshold_search_is_rup(self, monkeypatch, held_out):
        # One solver per search; its learned clauses carry across probes.
        cut = 0
        for f in held_out:
            out, logs, _ = logged_run(
                monkeypatch,
                lambda: variable_frequency_prune(f, 10, SatEngine()))
            assert len(logs) == 1
            assert replay(logs[0]) == []
            if out.kept_fraction < 1:
                cut += 1
                assert any(kind == "core" for kind, _ in logs[0])
        assert cut >= 3, cut

    def test_kept_set_runs_are_rup(self, monkeypatch):
        """Runs inside each formula's ``variable_frequency_prune`` kept
        set first: the kept set's own query, the restricted map and, once
        that is exhausted, the whole map rebuilt from its blocks. Held-out
        formulas 20-29, where some kept sets run out of MUSes early."""
        formulas = criterion9_held_out(30)[20:]
        kept = [set(variable_frequency_prune(f, 10, SatEngine()).index_map)
                for f in formulas]
        traces, logs, raised_units = logged_run(monkeypatch, lambda: [
            enumerate_marco(f, 0.5, first=first)
            for f, first in zip(formulas, kept)])
        for events in logs:
            assert replay(events) == []
        past = sum(any(not r.clause_indices <= first for r in trace.muses)
                   for trace, first in zip(traces, kept))
        assert past >= 1
        # A run past its kept set adds the rebuilt map's solver.
        assert len(logs) >= 2 * len(formulas) + past
        assert raised_units >= 1
