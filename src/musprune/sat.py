"""Conflict-driven clause-learning SAT engine.

A compact CDCL solver: unit propagation with two watched literals,
first-UIP clause learning, VSIDS-style activities with phase saving,
and restarts on a Luby schedule. Decisions come from an order heap over
activities (a ``heapq`` list whose stale entries are dropped as they are
popped), so each costs O(log n) amortised. Deterministic: ties in
branching break toward the lowest variable index and there is no
randomness anywhere.

Supports assumption literals (forced true for one query), incremental
clause addition at the root level, and a per-query wall-clock deadline,
whose passing is reported as UNKNOWN, distinct from SAT/UNSAT.
An UNSAT answer caused by the assumptions carries a core: the
assumptions the final conflict depends on (MiniSat ``analyzeFinal``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .cnf import CnfFormula

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_LUBY_UNIT = 128
_ACTIVITY_RESCALE = 1e100


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


@dataclass
class SatResult:
    """``core`` is set on an UNSAT answer that depends on the assumptions:
    a subset of them that is UNSAT together with the clauses. UNSAT of
    the clauses alone (no assumption needed) and UNKNOWN carry none."""

    status: str
    model: dict[int, bool] | None
    stats: SolveStats = field(default_factory=SolveStats)
    core: list[int] | None = None


def _luby(i: int) -> int:
    """i-th term (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i %= size
    return 1 << seq


class Solver:
    """One stateful CDCL instance; not safe to share across threads."""

    def __init__(self, num_vars: int = 0, default_phase: bool = False):
        self.ok = True
        self.default_phase = bool(default_phase)
        self.num_vars = 0
        # Indexed by variable (1-based; slot 0 unused).
        self._assign: list[int] = [0]     # 0 free, 1 true, -1 false
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        # Order heap of (-activity, variable) entries. Every free variable
        # has an entry at its current activity. Between rebuilds,
        # activities only grow, so a variable's older entries rank below
        # its newest one. Hence the least entry of a free variable is the
        # free variable of highest activity, ties to the lowest index.
        self._heap: list[tuple[float, int]] = []
        # Indexed by literal code 2v / 2v+1 (positive / negative).
        self._watches: list[list[list[int]]] = [[], []]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._recorded: list[tuple[int, ...]] = []
        self.stats = SolveStats()
        for _ in range(num_vars):
            self.add_variable()

    # ------------------------------------------------------------------
    # construction

    def add_variable(self) -> int:
        self.num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(self.default_phase)
        self._activity.append(0.0)
        heappush(self._heap, (-0.0, self.num_vars))
        self._watches.append([])
        self._watches.append([])
        return self.num_vars

    def add_clause(self, lits) -> None:
        """Add a problem clause. Duplicate literals are merged; tautologies
        are dropped. Must be called with the trail at the root level (the
        solver backtracks there automatically)."""
        self._backtrack(0)
        seen = set()
        clause = []
        for lit in lits:
            lit = int(lit)
            v = abs(lit)
            if lit == 0 or v > self.num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return  # tautology, always satisfied
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        self._recorded.append(tuple(clause))
        if not self.ok:
            return
        # Root-level simplification.
        simplified = []
        for lit in clause:
            val = self._value(lit)
            if val == 1 and self._level[abs(lit)] == 0:
                return  # already satisfied forever
            if val == -1 and self._level[abs(lit)] == 0:
                continue  # falsified forever, drop literal
            simplified.append(lit)
        if not simplified:
            self.ok = False
            return
        if len(simplified) == 1:
            lit = simplified[0]
            if self._value(lit) == -1:
                self.ok = False
            elif self._value(lit) == 0:
                self._enqueue(lit, None)
            return
        self._attach(simplified)

    def _attach(self, clause: list[int]) -> None:
        self._watches[self._code(clause[0])].append(clause)
        self._watches[self._code(clause[1])].append(clause)

    # ------------------------------------------------------------------
    # state helpers

    @staticmethod
    def _code(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def _value(self, lit: int) -> int:
        a = self._assign[lit if lit > 0 else -lit]
        return a if lit > 0 else -a

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = abs(lit)
        self._assign[v] = 1 if lit > 0 else -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        lim = self._trail_lim[level]
        heap, act = self._heap, self._activity
        for i in range(len(self._trail) - 1, lim - 1, -1):
            lit = self._trail[i]
            v = abs(lit)
            self._phase[v] = lit > 0
            self._assign[v] = 0
            self._reason[v] = None
            heappush(heap, (-act[v], v))
        del self._trail[lim:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))
        # Stale entries pile up with every backtrack; dropping them keeps
        # the heap's memory linear in the number of variables.
        if len(heap) > 2 * self.num_vars:
            self._heap_rebuild()

    def _bump(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > _ACTIVITY_RESCALE:
            inv = 1.0 / _ACTIVITY_RESCALE
            for u in range(1, self.num_vars + 1):
                self._activity[u] *= inv
            self._var_inc *= inv
            # Scaling lowers activities, which breaks the heap's ordering
            # of a variable's entries; reorder from scratch.
            self._heap_rebuild()

    def _heap_rebuild(self) -> None:
        act, assign = self._activity, self._assign
        self._heap = [(-act[v], v) for v in range(1, self.num_vars + 1)
                      if assign[v] == 0]
        heapify(self._heap)

    # ------------------------------------------------------------------
    # search

    def _propagate(self) -> list[int] | None:
        """Propagate pending assignments; returns a conflicting clause.

        The engine's hottest loop: ``_value``, ``_code`` and ``_enqueue``
        are written out inline.
        """
        trail, assign, watches = self._trail, self._assign, self._watches
        level, reason, trail_lim = self._level, self._reason, self._trail_lim
        stats = self.stats
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            stats.propagations += 1
            falsified = -p
            fcode = ((p << 1) | 1) if p > 0 else (falsified << 1)
            watchers = watches[fcode]
            keep: list[list[int]] = []
            idx = 0
            n = len(watchers)
            while idx < n:
                c = watchers[idx]
                idx += 1
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if (assign[lit] if lit > 0 else -assign[-lit]) != -1:
                        c[1], c[k] = lit, c[1]
                        watches[(lit << 1) if lit > 0
                                else ((-lit) << 1) | 1].append(c)
                        break
                else:
                    keep.append(c)
                    if value == -1:
                        keep.extend(watchers[idx:])
                        watches[fcode] = keep
                        self._qhead = len(trail)
                        return c
                    v = first if first > 0 else -first
                    assign[v] = 1 if first > 0 else -1
                    level[v] = len(trail_lim)
                    reason[v] = c
                    trail.append(first)
            watches[fcode] = keep
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict analysis: learned clause and backjump level."""
        cur_level = self._decision_level()
        seen = set()
        learned: list[int] = []
        counter = 0
        p = None
        reason_lits = conflict
        idx = len(self._trail) - 1
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = abs(q)
                if v in seen or self._level[v] == 0:
                    continue
                seen.add(v)
                self._bump(v)
                if self._level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            while abs(self._trail[idx]) not in seen:
                idx -= 1
            p = self._trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_lits = self._reason[abs(p)]
        learned.insert(0, -p)
        if len(learned) == 1:
            return learned, 0
        hi = max(range(1, len(learned)), key=lambda i: self._level[abs(learned[i])])
        learned[1], learned[hi] = learned[hi], learned[1]
        return learned, self._level[abs(learned[1])]

    def _analyze_final(self, failed: int) -> list[int]:
        """Assumptions that imply ``-failed`` (MiniSat ``analyzeFinal``).

        Walks the reasons back from the failed assumption's variable over
        the trail above the root; the decisions reached are assumptions.
        """
        core = [failed]
        v = abs(failed)
        if self._level[v] == 0:
            return core
        seen = {v}
        trail, reason, level = self._trail, self._reason, self._level
        for i in range(len(trail) - 1, self._trail_lim[0] - 1, -1):
            u = abs(trail[i])
            if u not in seen:
                continue
            clause = reason[u]
            if clause is None:
                core.append(trail[i])
                continue
            for q in clause:
                w = abs(q)
                if w != u and level[w] > 0:
                    seen.add(w)
        return core

    def _decide(self) -> None:
        assign, heap = self._assign, self._heap
        best = heappop(heap)[1]
        while assign[best] != 0:
            best = heappop(heap)[1]
        self.stats.decisions += 1
        lit = best if self._phase[best] else -best
        self._trail_lim.append(len(self._trail))
        self._enqueue(lit, None)

    def solve(self, assumptions=(), deadline: float | None = None) -> SatResult:
        """Decide satisfiability under the given assumption literals.

        Returns UNKNOWN once ``time.perf_counter()`` passes ``deadline``,
        checked at every conflict.
        """
        assumptions = [int(a) for a in assumptions]
        polarity: dict[int, int] = {}
        for a in assumptions:
            v = abs(a)
            if a == 0 or v > self.num_vars:
                raise ValueError(f"assumption literal {a} out of range")
            sign = 1 if a > 0 else -1
            if polarity.get(v, sign) != sign:
                raise ValueError(f"assumptions set variable {v} both ways")
            polarity[v] = sign
        self.stats = SolveStats()
        self._backtrack(0)
        if not self.ok:
            return SatResult(UNSAT, None, self.stats)
        if self._propagate() is not None:
            self.ok = False
            return SatResult(UNSAT, None, self.stats)

        restarts = 0
        limit = _LUBY_UNIT * _luby(0)
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                since_restart += 1
                if self._decision_level() == 0:
                    self.ok = False
                    return SatResult(UNSAT, None, self.stats)
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                self._var_inc *= self._var_decay
                if deadline is not None and time.perf_counter() >= deadline:
                    self._backtrack(0)
                    return SatResult(UNKNOWN, None, self.stats)
                if since_restart >= limit:
                    restarts += 1
                    since_restart = 0
                    limit = _LUBY_UNIT * _luby(restarts)
                    self._backtrack(0)
                continue
            level = self._decision_level()
            if level < len(assumptions):
                a = assumptions[level]
                val = self._value(a)
                if val == -1:
                    core = self._analyze_final(a)
                    self._backtrack(0)
                    return SatResult(UNSAT, None, self.stats, core)
                self._trail_lim.append(len(self._trail))
                if val == 0:
                    self._enqueue(a, None)
                continue
            if len(self._trail) == self.num_vars:
                model = {v: self._assign[v] == 1
                         for v in range(1, self.num_vars + 1)}
                self._verify(model, assumptions)
                self._backtrack(0)
                return SatResult(SAT, model, self.stats)
            self._decide()

    def _verify(self, model: dict[int, bool], assumptions) -> None:
        for a in assumptions:
            if model[abs(a)] != (a > 0):
                raise AssertionError("internal: model violates an assumption")
        for clause in self._recorded:
            if clause and not any(model[abs(l)] == (l > 0) for l in clause):
                raise AssertionError(
                    f"internal: model fails recorded clause {clause}"
                )


class SatEngine:
    """Facade creating one fresh :class:`Solver` per query.

    Tracks the number of solver invocations in ``calls`` so callers can
    account for SAT usage. Safe to use from one thread; independent
    engines may run concurrently.
    """

    def __init__(self):
        self.calls = 0

    def solve(self, formula: CnfFormula, assumptions=()) -> SatResult:
        self.calls += 1
        solver = Solver(num_vars=formula.num_vars)
        for clause in formula.clauses:
            solver.add_clause(clause)
        return solver.solve(assumptions)

    def is_satisfiable(self, formula: CnfFormula) -> bool:
        return self.solve(formula).status == SAT

    def session(self, num_vars: int) -> "SolverSession":
        return SolverSession(self, num_vars)


class SolverSession:
    """Incremental solving session backed by one persistent solver.

    Clause additions are permanent; use assumptions for retractable
    constraints. Solve calls count against the owning engine.
    """

    def __init__(self, engine: SatEngine, num_vars: int):
        self._engine = engine
        self._solver = Solver(num_vars=num_vars)

    def add_variable(self) -> int:
        return self._solver.add_variable()

    def add_clause(self, lits) -> None:
        self._solver.add_clause(lits)

    def solve(self, assumptions=(), deadline: float | None = None) -> SatResult:
        self._engine.calls += 1
        return self._solver.solve(assumptions, deadline)

    def model(self, assumptions=()) -> dict[int, bool] | None:
        """A model under the assumptions, or None if there is none."""
        return self.solve(assumptions).model
