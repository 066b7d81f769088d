"""Minimal unsatisfiable subset machinery.

Validity checks, deletion-based shrinking, a MARCO-style
online enumerator over a selector-variable map, and a brute-force oracle
for small instances. The oracle decides satisfiability by bit-parallel
truth tables and is fully independent of the CDCL engine.

Every subset question, MARCO's and the pruners' threshold search's,
goes through ``SubsetSolver.query``: the clauses of an UNSAT answer's
assumption core, or a SAT answer's model. MARCO uses both:

- Shrink keeps only the core after each UNSAT answer (clause-set
  refinement, as in MUSer2), so clauses outside a core are dropped
  without a query of their own.
- When shrink finds a clause critical, the SAT answer's model falsifies
  that clause alone. Recursive model rotation flips the model's
  variables one at a time to find more critical clauses, which are then
  never queried (Belov & Marques-Silva, FMCAD 2011).
- From a query's model, rotation is extended: it passes once per walk
  through a clause already known critical and goes on from there, so it
  reaches critical clauses the plain walk stops short of (Belov, Lynce &
  Marques-Silva, AI Communications 2012).
- Every SAT answer's model is kept as a witness, with the set of formula
  clauses it falsifies. When a witness falsifies exactly one clause of
  shrink's working set, that clause is critical without a query, and
  plain rotation starts from the witness's model. Replication-guided
  enumeration reuses known satisfiable sets the same way (Bendik &
  Cerna, CP 2020).
- MARCO's first seed costs no map solve. Over the whole map it is
  every clause, so it shrinks from the full UNSAT check's core; over a
  pruner's kept set it is that set, queried right after the check.
- Grow holds its set as a clause bitmask. It starts from the clauses
  the seed's model satisfies and, after every SAT answer, takes in each
  clause the answer's model satisfies without a query (model-based
  grow, Marques-Silva et al., IJCAI 2013); both sets are read off the
  witness masks that the queries stored.
- Grow also leaves out, without a query, a clause that would complete a
  MUS the run has already found: that set holds the MUS, so it is UNSAT.
  MARCO keeps one bitmask per found MUS, listed under each of its
  clauses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cnf import CnfFormula
from .sat import SAT, UNKNOWN, UNSAT, SatEngine, Solver

BRUTE_FORCE_CLAUSE_LIMIT = 20
TRUTH_TABLE_VAR_LIMIT = 24


@dataclass(frozen=True)
class MusRecord:
    """A clause-index set that is UNSAT and minimal under single deletion."""

    clause_indices: frozenset[int]

    def sorted_indices(self) -> list[int]:
        return sorted(self.clause_indices)


@dataclass
class EnumerationTrace:
    """Result of one enumeration run."""

    muses: list[MusRecord] = field(default_factory=list)
    seeds_tested: int = 0
    exhausted: bool = False


class _DeadlinePassed(Exception):
    """A subset query gave up because its deadline passed."""


class SubsetSolver:
    """Incremental subset-satisfiability queries via one selector per clause.

    The formula goes in as guarded clauses, in one bulk load
    (``Solver.load``), which returns clause 0's selector; clause ``j``'s
    is the ``j``-th after it, and assuming it activates the clause. The
    solver never branches on a selector, so a selector not assumed stays
    unassigned unless propagated false, and the clauses outside the
    subset cost no decisions. The assumption core of an UNSAT answer maps
    back to clause indices by subtracting the first selector. ``occurs``
    maps each literal to the clauses that hold it, for model rotation.

    ``witnesses`` holds one ``(mask, model)`` pair per SAT answer, in
    answer order: bit ``j`` of the int ``mask`` is set iff ``model``
    falsifies clause ``j``. Shrink and grow read them; nothing else does.
    """

    def __init__(self, formula: CnfFormula, engine: SatEngine | None = None):
        engine = engine if engine is not None else SatEngine()
        self.clauses = formula.clauses
        m = len(formula.clauses)
        self._session = engine.session(0)
        self._first = self._session.load(formula, True)
        self._selector_literals = frozenset(
            [*range(self._first, self._first + m),
             *range(1 - self._first - m, 1 - self._first)])
        occurs: dict[int, list[int]] = {}
        satisfied_by: dict[int, int] = {}
        for j, clause in enumerate(formula.clauses):
            bit = 1 << j
            for lit in set(clause):
                occurs.setdefault(lit, []).append(j)
                satisfied_by[lit] = satisfied_by.get(lit, 0) | bit
        self.occurs = occurs
        self._satisfied_by = satisfied_by
        self._all = (1 << m) - 1
        self.witnesses: list[tuple[int, set[int]]] = []

    def query(self, subset, deadline: float | None = None
              ) -> tuple[set[int] | None, set[int] | None]:
        """``(core, None)`` if ``subset`` is UNSAT, ``(None, model)`` if SAT.

        The core is an UNSAT subset of ``subset``; the model is the set of
        true literals, one per variable of the formula, and is also kept
        in ``witnesses``. Raises IndexError for a clause index outside
        the formula, and _DeadlinePassed once ``deadline`` (a
        ``time.perf_counter()`` value) passes.
        """
        if deadline is not None and time.perf_counter() >= deadline:
            raise _DeadlinePassed("deadline passed")
        indices = sorted(subset)
        if indices and (indices[0] < 0 or indices[-1] >= len(self.clauses)):
            bad = indices[0] if indices[0] < 0 else indices[-1]
            raise IndexError(f"clause index {bad} out of range")
        first = self._first
        assumptions = [first + j for j in indices]
        result = self._session.solve(assumptions, deadline)
        if result.status == UNKNOWN:
            raise _DeadlinePassed("deadline passed")
        if result.status == SAT:
            model = result.model - self._selector_literals
            satisfied = 0
            for lit in model:
                satisfied |= self._satisfied_by.get(lit, 0)
            self.witnesses.append((self._all ^ satisfied, model))
            return None, model
        if result.core is None:
            raise AssertionError("internal: UNSAT subset answer without a core")
        return {s - first for s in result.core}, None


def _check_indices(formula: CnfFormula, subset) -> frozenset[int]:
    subset = frozenset(int(i) for i in subset)
    for i in subset:
        if not 0 <= i < formula.num_clauses:
            raise IndexError(f"clause index {i} out of range")
    return subset


def is_mus(formula: CnfFormula, subset, engine: SatEngine | None = None) -> bool:
    """True iff the induced subset is UNSAT and every single-clause
    deletion is SAT (Minimal Unsatisfiable Subset).

    As an audit it asks a fresh solver all ``1 + len(subset)`` questions
    and reads no witness."""
    subset = _check_indices(formula, subset)
    solver = SubsetSolver(formula, engine)
    if solver.query(subset)[0] is None:
        return False
    for c in sorted(subset):
        if solver.query(subset - {c})[0] is not None:
            return False
    return True


def shrink(formula: CnfFormula, seed, engine: SatEngine | None = None) -> MusRecord:
    """Deletion-based shrink of an UNSAT seed down to a MUS.

    See ``_shrink_in``. Raises ValueError if the seed is SAT.
    """
    seed = _check_indices(formula, seed)
    solver = SubsetSolver(formula, engine)
    if solver.query(seed)[0] is None:
        raise ValueError("seed subset is satisfiable; nothing to shrink")
    return MusRecord(frozenset(_shrink_in(solver, seed, None)))


def _shrink_in(solver: SubsetSolver, seed: set[int] | frozenset[int],
               deadline: float | None) -> set[int]:
    """Deletion shrink of an UNSAT seed with clause-set refinement,
    witness reuse and model rotation.

    Clauses are tried in ascending index order. When the remainder
    without a clause is UNSAT, the working set becomes that answer's
    core, which drops the clause and any others outside the core; a
    clause already dropped is not tried. When it is SAT, the clause is
    critical, and extended ``_rotate`` marks more critical clauses from
    the answer's model; a critical clause is not tried either.

    At the start and each time a core replaces the working set, every
    witness of ``solver`` is scanned: one whose model falsifies exactly
    one clause ``d`` of the working set satisfies the rest, so ``d`` is
    critical without a query, and plain ``_rotate`` runs from that model.
    Witness marks recur all through a run, and an extended walk from each
    would cross the critical set again every time.
    """
    current = set(seed)
    critical: set[int] = set()

    def reuse_witnesses():
        bits = sum(1 << j for j in current)
        for mask, model in solver.witnesses:
            hit = mask & bits  # never 0: the working set is UNSAT
            if not hit & (hit - 1):
                d = hit.bit_length() - 1
                if d not in critical:
                    critical.add(d)
                    _rotate(solver, d, model, current, critical)

    reuse_witnesses()
    for c in sorted(seed):
        if c not in current or c in critical:
            continue
        core, model = solver.query(current - {c}, deadline)
        if core is not None:
            current = core
            reuse_witnesses()
        else:
            critical.add(c)
            _rotate(solver, c, model, current, critical, extend=True)
    return current


def _rotate(solver: SubsetSolver, c: int, model: set[int],
            current: set[int], critical: set[int],
            extend: bool = False) -> None:
    """Recursive model rotation (Belov & Marques-Silva, FMCAD 2011).

    ``model`` satisfies every clause of ``current`` but ``c``. Flipping
    the variable of one of ``c``'s literals satisfies ``c``; if exactly
    one clause of ``current`` is then false, the flipped model satisfies
    the rest, so that clause is critical too, and rotation goes on from
    the flipped model. Each clause is judged under the flipped model, so
    a tautology is never false. Marks go into ``critical``; a clause
    already there is not rotated from again, except that with ``extend``
    rotation passes through it once per call and goes on from the
    flipped model (extended model rotation: Belov, Lynce & Marques-Silva,
    AI Communications 2012). Every mark is sound either way: the flipped
    model satisfies every clause of ``current`` but the marked one. A
    clause critical for ``current`` is in every UNSAT subset of it, hence
    in every later core.

    Each flip is made in place and undone after its check, so ``model``
    is unchanged on return; only a model the walk goes on from is copied.
    """
    clauses, occurs = solver.clauses, solver.occurs
    passed: set[int] = set()
    stack = [(c, model)]
    while stack:
        c, model = stack.pop()
        for lit in dict.fromkeys(clauses[c]):
            model.discard(-lit)
            model.add(lit)
            false_clause = None
            for d in occurs.get(-lit, ()):
                if d in current and model.isdisjoint(clauses[d]):
                    if false_clause is not None:
                        break
                    false_clause = d
            else:
                if false_clause is not None and false_clause not in critical:
                    critical.add(false_clause)
                    stack.append((false_clause, set(model)))
                elif (extend and false_clause in critical
                      and false_clause not in passed):
                    passed.add(false_clause)
                    stack.append((false_clause, set(model)))
            model.discard(lit)
            model.add(-lit)


def _grow_in(solver: SubsetSolver, falsified: int, universe,
             deadline: float | None, muses_of: list[list[int]]) -> int:
    """Grow to a maximal satisfiable subset of the ascending clause
    indices ``universe``, returned as a bitmask.

    Model-based grow (Marques-Silva et al., IJCAI 2013): the set starts
    as the universe less ``falsified``, the witness mask of a model, and
    each SAT answer adds the universe less its stored witness mask, so a
    clause is queried only when no model so far satisfied it. A clause
    that would complete a found MUS (``muses_of[c]`` lists the masks of
    those holding ``c``) makes the set UNSAT, so it stays out unasked.
    """
    in_play = sum(1 << j for j in universe)
    bits = in_play & ~falsified
    for c in universe:
        with_c = bits | 1 << c
        if with_c == bits or any(mask | with_c == with_c
                                 for mask in muses_of[c]):
            continue
        subset = [j for j in universe if with_c >> j & 1]
        if solver.query(subset, deadline)[0] is None:
            bits |= in_play & ~solver.witnesses[-1][0]
    return bits


def enumerate_marco(formula: CnfFormula, budget: float, sink=None,
                    engine: SatEngine | None = None,
                    first=None) -> EnumerationTrace:
    """MARCO-style online MUS enumeration under a wall-clock budget.

    Seeds come from a map solver with one variable per clause, true when
    the clause is left out; with phase saving a SAT seed need not be
    maximal. Each seed's query answers it: an UNSAT seed shrinks from
    the core to a MUS (supersets then blocked), a SAT seed grows from the
    model to a maximal satisfiable subset of the clauses in play (subsets
    then blocked), leaving out unasked each clause that would complete a
    MUS already found. The first seed costs no map solve: over the whole
    map it is every clause, which the full UNSAT check answers. Stops
    when the map empties or, returning the trace so far, when the budget
    runs out: the deadline is checked before every query and map solve.

    ``first``, when given, is a set of clause indices (a pruner's kept
    set) to enumerate inside first: the map leaves every other clause
    out, so its first seed is ``first``, queried after the full check,
    and grow stays inside ``first``. Once that restricted map is
    exhausted, the enumeration goes on over the whole map, with every
    MUS and satisfiable set found so far still blocked; a satisfiable
    set stays satisfiable, so its block stays sound. MUSes are in the
    formula's own indices, and ``exhausted`` refers to the whole formula.
    """
    if not budget > 0:  # NaN included
        raise ValueError("budget must be positive")
    deadline = time.perf_counter() + budget
    m = formula.num_clauses
    universe = range(m) if first is None else sorted(
        _check_indices(formula, first))
    solver = SubsetSolver(formula, engine)
    # The restricted map fixes each clause outside ``first`` left out by a
    # unit clause, not an assumption, which keeps its blocking clauses and
    # learned clauses short. Every other variable starts at phase False,
    # so its first seed is ``first``. The whole map, built once the
    # restricted one is exhausted, gets the blocking clauses in full.
    map_solver = Solver()
    map_solver.load(CnfFormula(
        m, [[j + 1] for j in sorted(set(range(m)) - set(universe))]), False)
    blocks: list[list[int]] = []
    muses_of: list[list[int]] = [[] for _ in range(m)]
    trace = EnumerationTrace()
    try:
        core = solver.query(range(m), deadline)[0]
        if core is None:
            raise ValueError("formula is satisfiable; it has no MUS")
        if len(universe) < m:
            core = solver.query(universe, deadline)[0]
        while True:
            trace.seeds_tested += 1
            if core is None:
                mss = _grow_in(solver, solver.witnesses[-1][0], universe,
                               deadline, muses_of)
                block = [-(j + 1) for j in range(m) if not mss >> j & 1]
            else:
                mus_set = _shrink_in(solver, core, deadline)
                record = MusRecord(frozenset(mus_set))
                mask = sum(1 << j for j in mus_set)
                for j in mus_set:
                    muses_of[j].append(mask)
                trace.muses.append(record)
                if sink is not None:
                    sink(record)
                block = [j + 1 for j in sorted(mus_set)]
            map_solver.add_clause(block)
            if len(universe) < m:
                blocks.append(block)
            if time.perf_counter() >= deadline:
                break
            result = map_solver.solve(deadline=deadline)
            if result.status == UNSAT and len(universe) < m:
                map_solver = Solver()
                map_solver.load(CnfFormula(m, blocks), False)
                universe = range(m)
                if time.perf_counter() >= deadline:
                    break
                result = map_solver.solve(deadline=deadline)
            if result.status != SAT:
                trace.exhausted = result.status == UNSAT
                break
            seed = [j for j in range(m) if -(j + 1) in result.model]
            core = solver.query(seed, deadline)[0]
    except _DeadlinePassed:
        pass
    return trace


# ----------------------------------------------------------------------
# Brute-force oracle (truth tables; independent of the CDCL engine)

def _variable_patterns(num_vars: int) -> list[int]:
    """patterns[v-1] has bit a set iff assignment a makes variable v true."""
    total_bits = 1 << num_vars
    patterns = []
    for v in range(1, num_vars + 1):
        half = 1 << (v - 1)
        block = ((1 << half) - 1) << half  # 'half' zeros then 'half' ones
        period = 2 * half
        repeats = total_bits // period
        tile = (1 << (period * repeats)) - 1
        tile //= (1 << period) - 1  # bits set once per period
        patterns.append(block * tile)
    return patterns


def _clause_masks(formula: CnfFormula) -> list[int]:
    if formula.num_vars > TRUTH_TABLE_VAR_LIMIT:
        raise ValueError(
            f"truth-table oracle limited to {TRUTH_TABLE_VAR_LIMIT} variables"
        )
    full = (1 << (1 << formula.num_vars)) - 1
    patterns = _variable_patterns(formula.num_vars)
    masks = []
    for clause in formula.clauses:
        mask = 0
        for lit in clause:
            p = patterns[abs(lit) - 1]
            mask |= p if lit > 0 else (~p & full)
        masks.append(mask)
    return masks


def truth_table_satisfiable(formula: CnfFormula) -> bool:
    """Exhaustive satisfiability by bit-parallel truth tables."""
    full = (1 << (1 << formula.num_vars)) - 1
    acc = full
    for mask in _clause_masks(formula):
        acc &= mask
        if acc == 0:
            return False
    return True


def brute_force_muses(formula: CnfFormula) -> set[MusRecord]:
    """All MUSes of a small formula by exhaustive subset enumeration.

    Iterates subsets in order of increasing size; a subset is a MUS exactly
    when it is UNSAT and contains no previously found (hence smaller) MUS.
    Guarded to at most ``BRUTE_FORCE_CLAUSE_LIMIT`` clauses.
    """
    m = formula.num_clauses
    if m > BRUTE_FORCE_CLAUSE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_CLAUSE_LIMIT} clauses, got {m}"
        )
    masks = _clause_masks(formula)
    full = (1 << (1 << formula.num_vars)) - 1
    found: list[frozenset[int]] = []
    subsets_by_size: list[list[int]] = [[] for _ in range(m + 1)]
    for s in range(1 << m):
        subsets_by_size[bin(s).count("1")].append(s)
    for size in range(m + 1):
        for s in subsets_by_size[size]:
            indices = frozenset(j for j in range(m) if s >> j & 1)
            if any(mus < indices for mus in found):
                continue
            acc = full
            for j in indices:
                acc &= masks[j]
                if acc == 0:
                    break
            if acc == 0:
                found.append(indices)
    return {MusRecord(f) for f in found}


def lift_muses(pruned_trace: EnumerationTrace, index_map) -> EnumerationTrace:
    """Remap MUS indices from a pruned formula back into the original."""
    index_map = list(index_map)
    lifted = []
    for record in pruned_trace.muses:
        mapped = set()
        for i in record.clause_indices:
            if not 0 <= i < len(index_map):
                raise IndexError(f"clause index {i} not covered by index map")
            mapped.add(index_map[i])
        lifted.append(MusRecord(frozenset(mapped)))
    return EnumerationTrace(
        muses=lifted,
        seeds_tested=pruned_trace.seeds_tested,
        exhausted=pruned_trace.exhausted,
    )
