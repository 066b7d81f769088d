"""Conflict-driven clause-learning SAT engine.

A compact CDCL solver: unit propagation with two watched literals,
first-UIP clause learning, VSIDS-style activities with phase saving,
and restarts on a Luby schedule. Decisions come from an order heap over
activities (a ``heapq`` list whose stale entries are dropped as they are
popped), so each costs O(log n) amortised. Deterministic: ties in
branching break toward the lowest variable index and there is no
randomness anywhere.

A guarded clause ``lits or not s`` gets a fresh selector ``s``, active
when ``s`` is assumed. Selectors stay out of the decision order
(MiniSat's ``setDecisionVar``): the answer is SAT once every decision
variable is assigned at a propagation fixpoint. A SAT answer's model is
the set of true literals, one per variable; an unassigned selector
appears negated, which is sound because selectors occur only negatively.

A solver with no variables takes a whole ``CnfFormula`` in one bulk
load (``load``), which ``SatEngine.solve``, ``mus.SubsetSolver`` and
MARCO's map solver use: the formula's variables, and a selector per
clause when guarded, are made in one step, and while nothing is
assigned, a clause of two or more distinct variables is recorded and
watched on its first two literals inline, at the root, as MiniSat
attaches a problem clause (Een & Sorensson, SAT 2003). Every other
clause (empty, unit, with a repeated or complementary literal, or added
once something is assigned) takes ``add_clause``'s own steps. The
engine is left exactly as adding the clauses one at a time leaves it.

Supports assumption literals (forced true for one query), incremental
clause addition, and a per-query wall-clock deadline, whose passing is
reported as UNKNOWN, distinct from SAT/UNSAT. All assumptions share
decision level 1. A conflict there is UNSAT, with a core: the
assumptions reached by walking reasons back from the conflict clause
(MiniSat ``analyzeFinal``).

An assumption-free SAT answer keeps its trail. A clause added next
backtracks only as far as it needs, and the next assumption-free solve
goes on from there, so a caller that adds one blocking clause per answer
does not re-decide every variable (van der Tak, Ramos & Heule, JSAT
2011). A unit clause, too, backtracks only past its variable's level: its
literal joins the trail at level 0 where it stands, above decisions, and
a backtrack keeps it and propagates it again. A conflict can then have
no literal at the current level; the search first backtracks to the
conflict's highest level, and at level 0 the answer is UNSAT
(chronological backtracking, Nadel & Ryvchin, SAT 2018, here for root
units only). A solve with assumptions starts and ends at the root.
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
    model: set[int] | None
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

    def __init__(self, num_vars: int = 0):
        self.ok = True
        self.num_vars = 0
        # Indexed by variable (1-based; slot 0 unused).
        self._assign: list[int] = [0]     # 0 free, 1 true, -1 false
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._decision: list[bool] = [False]
        # Order heap of (-activity, variable) entries. Every free decision
        # variable has an entry at its current activity, and no entry names
        # a non-decision variable. Between rebuilds, activities only grow,
        # so a variable's older entries rank below its newest one. Hence
        # the least entry of a free decision variable is the free decision
        # variable of highest activity, ties to the lowest index.
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
        self._new_variables(num_vars, True)

    # ------------------------------------------------------------------
    # construction

    def add_guarded_clause(self, lits) -> int:
        """Add ``lits or not s`` for a fresh selector ``s`` and return ``s``;
        assuming ``s`` activates the clause.

        The solver never branches on ``s``: it is assigned only as an
        assumption or by propagation, and reads false when left unassigned.
        That completion is sound because ``s`` occurs only negatively: no
        clause, problem or learned, holds ``+s``, and a clause left with
        ``-s`` as its one unassigned literal would already have propagated.
        Callers keep it so by adding no clause that holds ``+s``, and a
        literal of ``lits`` must name a variable made before ``s``.
        """
        clause = self._merged(lits)
        selector = self._new_variables(1, False)
        if clause is not None:
            self._add_merged(clause + [-selector])
        return selector

    def add_clause(self, lits) -> None:
        """Add a problem clause. Duplicate literals are merged; tautologies
        are dropped.

        The trail may stand above the root, as an assumption-free SAT
        answer leaves it. Literals assigned at level 0 simplify the clause;
        of the others, the two latest are watched, an unassigned literal
        counting as later than any assigned one. If either of the two is
        assigned, the trail goes back to one level below the second-latest
        literal's, which frees both. A unit clause whose literal is
        assigned goes back to one level below that literal's, which frees
        it; either way the literal joins the trail at level 0 where the
        trail stands. An empty clause goes to the root. At the root this
        is plain root-level simplification.
        """
        clause = self._merged(lits)
        if clause is not None:
            self._add_merged(clause)

    def _merged(self, lits) -> list[int] | None:
        """``lits`` as ints with repeats merged, or None for a tautology,
        which is always satisfied. Raises ValueError at the first literal
        that names no variable and comes before any tautology."""
        num_vars = self.num_vars
        seen = set()
        clause = []
        for lit in lits:
            lit = int(lit)
            v = abs(lit)
            if lit == 0 or v > num_vars:
                raise ValueError(f"literal {lit} out of range")
            if -lit in seen:
                return None
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        return clause

    def _add_merged(self, clause: list[int]) -> None:
        """``add_clause`` for a clause ``_merged`` returned."""
        self._recorded.append(tuple(clause))
        if not self.ok:
            return
        assign, level = self._assign, self._level
        free = len(self._trail_lim) + 1  # the key of an unassigned literal
        kept: list[int] = []
        k0 = k1 = i0 = i1 = -1  # keys and positions of the two latest
        for lit in clause:
            v = lit if lit > 0 else -lit
            a = assign[v]
            if a == 0:
                key = free
            else:
                key = level[v]
                if key == 0:
                    if (a > 0) == (lit > 0):
                        return  # satisfied forever
                    continue  # false forever: dropped
            if key > k0:
                k1, i1, k0, i0 = k0, i0, key, len(kept)
            elif key > k1:
                k1, i1 = key, len(kept)
            kept.append(lit)
        if not kept:
            self._backtrack(0)
            self.ok = False
            return
        if len(kept) == 1:
            self._backtrack(k0 - 1)
            self._enqueue(kept[0], None)
            self._level[abs(kept[0])] = 0
            return
        if k1 < free:
            self._backtrack(k1 - 1)
        kept[0], kept[i0] = kept[i0], kept[0]
        if i1 == 0:
            i1 = i0
        kept[1], kept[i1] = kept[i1], kept[1]
        self._attach(kept)

    def load(self, formula: CnfFormula, guarded: bool) -> int:
        """Give a solver with no variables ``formula``'s variables and
        clauses, each clause added as ``add_clause`` adds it or, when
        ``guarded``, as ``add_guarded_clause`` does, and return the first
        variable after the formula's: clause ``j``'s selector is that
        plus ``j``.

        The same work in bulk. The variables are made in one step, and
        while nothing is assigned, a clause of two or more distinct
        variables, its selector included, is recorded and watched on its
        first two literals inline, which is what ``add_clause`` does with
        it. Every other clause takes ``add_clause``'s own steps. The
        formula has checked its literals, so the inline path checks none.
        """
        if self.num_vars:
            raise ValueError("load needs a solver with no variables")
        n, clauses = formula.num_vars, formula.clauses
        self._new_variables(n, True)
        first = self._new_variables(len(clauses) if guarded else 0, False)
        recorded, watches, trail = self._recorded, self._watches, self._trail
        guard = -n  # clause j's guard is -(first + j)
        for clause in clauses:
            if guarded:
                guard -= 1
                lits = [*clause, guard]
            else:
                lits = list(clause)
            if (len(set(map(abs, clause))) == len(clause) and len(lits) > 1
                    and not trail and self.ok):
                recorded.append(tuple(lits))
                a, b = lits[0], lits[1]
                watches[(a << 1) if a > 0 else ((-a) << 1) | 1].append(lits)
                watches[(b << 1) if b > 0 else ((-b) << 1) | 1].append(lits)
                continue
            merged = self._merged(clause)
            if merged is not None:
                self._add_merged(merged + [guard] if guarded else merged)
        return first

    def _new_variables(self, count: int, decision: bool) -> int:
        """Make ``count`` variables and return the first. Decision
        variables join the order heap; selectors (``decision`` false)
        are never decided and get no entry."""
        first = self.num_vars + 1
        self.num_vars += count
        self._assign += [0] * count
        self._level += [0] * count
        self._reason += [None] * count
        self._phase += [False] * count
        self._activity += [0.0] * count
        self._decision += [decision] * count
        if decision:
            # Entries at activity 0 rank after every existing one, so
            # appending them in variable order keeps the heap ordered.
            self._heap += [(-0.0, v) for v in range(first, self.num_vars + 1)]
        self._watches += [[] for _ in range(2 * count)]
        return first

    def _attach(self, clause: list[int]) -> None:
        self._watches[self._code(clause[0])].append(clause)
        self._watches[self._code(clause[1])].append(clause)

    # ------------------------------------------------------------------
    # state helpers

    @staticmethod
    def _code(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

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
        trail, level_of = self._trail, self._level
        phase, assign, reason = self._phase, self._assign, self._reason
        heap, act, decision = self._heap, self._activity, self._decision
        root = []  # level-0 literals above the cut, latest first
        for i in range(len(trail) - 1, lim - 1, -1):
            lit = trail[i]
            v = lit if lit > 0 else -lit
            if not level_of[v]:
                root.append(lit)
                continue
            phase[v] = lit > 0
            assign[v] = 0
            reason[v] = None
            if decision[v]:
                heappush(heap, (-act[v], v))
        del trail[lim:]
        del self._trail_lim[level:]
        # Kept level-0 literals go back on the trail, to propagate again.
        trail.extend(reversed(root))
        self._qhead = min(self._qhead, lim)
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
        act, assign, decision = self._activity, self._assign, self._decision
        self._heap = [(-act[v], v) for v in range(1, self.num_vars + 1)
                      if assign[v] == 0 and decision[v]]
        heapify(self._heap)

    # ------------------------------------------------------------------
    # search

    def _propagate(self) -> list[int] | None:
        """Propagate pending assignments; returns a conflicting clause,
        whose second literal is the one the propagation just falsified.

        The engine's hottest loop: literal values, ``_code`` and
        ``_enqueue`` are written out inline.
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
            if not watchers:
                continue
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
        cur_level = len(self._trail_lim)
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

    def _analyze_final(self, conflict: list[int]) -> list[int]:
        """Assumptions that falsify ``conflict`` (MiniSat ``analyzeFinal``).

        Walks the reasons back from the conflict clause over the trail
        above the root; the literals reached without a reason are assumptions.
        """
        trail, reason, level = self._trail, self._reason, self._level
        seen = {abs(q) for q in conflict if level[abs(q)] > 0}
        core = []
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

    def _decide(self) -> bool:
        """Branch on the best free decision variable; False if none is
        left. Entries of assigned variables are stale."""
        assign, heap = self._assign, self._heap
        while heap:
            best = heappop(heap)[1]
            if assign[best] == 0:
                self.stats.decisions += 1
                lit = best if self._phase[best] else -best
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                return True
        return False

    def solve(self, assumptions=(), deadline: float | None = None) -> SatResult:
        """Decide satisfiability under the given assumption literals.

        Assumptions not already true are enqueued together on level 1 and
        propagated once; one false at the root is the core ``[a]``. A solve
        with assumptions starts at the root and returns there. One without
        starts from the trail as it stands and, on SAT, leaves it in place.
        Returns UNKNOWN once ``time.perf_counter()`` passes ``deadline``,
        checked at every conflict. UNSAT, UNKNOWN and restarts go back to
        the root.
        """
        assumptions = [int(a) for a in assumptions]
        if assumptions:
            lits = set(assumptions)
            n = self.num_vars
            if (0 in lits or max(lits) > n or -min(lits) > n
                    or len({abs(a) for a in lits}) < len(lits)):
                # Name the first offender, in the caller's order.
                seen: set[int] = set()
                for a in assumptions:
                    if a == 0 or abs(a) > n:
                        raise ValueError(f"assumption literal {a} out of range")
                    if -a in seen:
                        raise ValueError(
                            f"assumptions set variable {abs(a)} both ways")
                    seen.add(a)
        self.stats = SolveStats()
        if assumptions:
            self._backtrack(0)
        if not self.ok:
            return SatResult(UNSAT, None, self.stats)

        restarts = 0
        limit = _LUBY_UNIT * _luby(0)
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                since_restart += 1
                level = len(self._trail_lim)
                if not self._level[abs(conflict[1])]:
                    # Falsified by a level-0 literal above the root, the
                    # conflict may have no literal at the current level;
                    # it is analysed at its own highest level.
                    level = max(self._level[abs(q)] for q in conflict)
                    self._backtrack(level)
                if level == 0:
                    self.ok = False
                    return SatResult(UNSAT, None, self.stats)
                if level == 1 and assumptions:
                    core = self._analyze_final(conflict)
                    self._backtrack(0)
                    return SatResult(UNSAT, None, self.stats, core)
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
            if assumptions and not self._trail_lim:
                # ``_enqueue`` written out inline.
                trail, assign = self._trail, self._assign
                level, reason = self._level, self._reason
                self._trail_lim.append(len(trail))
                for a in assumptions:
                    v = a if a > 0 else -a
                    val = assign[v]
                    if val == 0:
                        assign[v] = 1 if a > 0 else -1
                        level[v] = 1
                        reason[v] = None
                        trail.append(a)
                    elif (val > 0) != (a > 0):  # false at the root
                        self._backtrack(0)
                        return SatResult(UNSAT, None, self.stats, [a])
                continue
            if not self._decide():
                assign = self._assign
                model = {v if assign[v] == 1 else -v
                         for v in range(1, self.num_vars + 1)}
                self._verify(model, assumptions)
                if assumptions:
                    self._backtrack(0)
                return SatResult(SAT, model, self.stats)

    def _verify(self, model: set[int], assumptions) -> None:
        """Check the model against the assumptions and every recorded
        clause (an empty one never reaches here: it makes ``ok`` false)."""
        if not model.issuperset(assumptions):
            raise AssertionError("internal: model violates an assumption")
        for clause in self._recorded:
            if model.isdisjoint(clause):
                raise AssertionError(
                    f"internal: model fails recorded clause {clause}"
                )


class SatEngine:
    """One question about one formula the caller builds: each ``solve``
    runs a fresh :class:`Solver`; questions about subsets of one formula
    go through ``mus.SubsetSolver``. ``calls`` counts solves, sessions'
    included, so callers can account for SAT usage. Safe to use from one
    thread; independent engines may run concurrently.
    """

    def __init__(self):
        self.calls = 0

    def solve(self, formula: CnfFormula) -> SatResult:
        """Solve ``formula`` with a fresh solver that takes the formula in
        one bulk load (``Solver.load``)."""
        self.calls += 1
        solver = Solver()
        solver.load(formula, False)
        return solver.solve()

    def is_satisfiable(self, formula: CnfFormula) -> bool:
        return self.solve(formula).status == SAT

    def session(self, num_vars: int) -> "SolverSession":
        return SolverSession(self, num_vars)


class SolverSession(Solver):
    """Incremental solver whose solve calls count against the owning
    engine. Clause additions are permanent; use assumptions for
    retractable constraints."""

    def __init__(self, engine: SatEngine, num_vars: int):
        super().__init__(num_vars)
        self._engine = engine

    def solve(self, assumptions=(), deadline: float | None = None) -> SatResult:
        self._engine.calls += 1
        return super().solve(assumptions, deadline)
