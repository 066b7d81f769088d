"""CNF formulas, DIMACS I/O, and clause-level transforms.

Literals are nonzero signed integers: ``v`` is variable ``v`` (1-based),
``-v`` its negation. A formula is immutable once built; all transforms
return new formulas. Keep masks are boolean vectors over clause indices
(True = clause kept).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class DimacsFormatError(ValueError):
    """DIMACS CNF text violates the format contract."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula: ``num_vars`` variables and an ordered clause list."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars, clauses):
        n = int(num_vars)
        object.__setattr__(self, "num_vars", n)
        object.__setattr__(
            self, "clauses", tuple([tuple(map(int, c)) for c in clauses]))
        if n < 0:
            raise ValueError("num_vars must be nonnegative")
        lits = set(chain.from_iterable(self.clauses))
        if lits and (0 in lits or max(lits) > n or min(lits) < -n):
            for j, clause in enumerate(self.clauses):  # name the first one
                for lit in clause:
                    if lit == 0:
                        raise ValueError(
                            f"clause {j}: literal 0 is not allowed")
                    if abs(lit) > n:
                        raise ValueError(
                            f"clause {j}: literal {lit} exceeds variable "
                            f"count {n}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class FormulaStats:
    """Size statistics used to match generated corpora to a target."""

    num_vars: int
    clause_length_histogram: dict[int, int] = field(default_factory=dict)
    clause_to_variable_ratio: float = 0.0


def parse_dimacs(text) -> CnfFormula:
    """Parse DIMACS CNF text (str or bytes) into a formula.

    Comment lines start with 'c', the header is ``p cnf N M``, and clauses
    are 0-terminated integer lists that may span lines. Errors carry the
    offending line number.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("ascii", errors="replace")
    num_vars = None
    num_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    line_no = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsFormatError(f"line {line_no}: duplicate header")
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsFormatError(
                    f"line {line_no}: malformed header {stripped!r}"
                )
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsFormatError(
                    f"line {line_no}: non-integer header fields {stripped!r}"
                ) from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsFormatError(f"line {line_no}: negative header counts")
            continue
        if num_vars is None:
            raise DimacsFormatError(
                f"line {line_no}: clause data before 'p cnf' header"
            )
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsFormatError(
                    f"line {line_no}: bad token {token!r}"
                ) from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsFormatError(
                        f"line {line_no}: literal {lit} exceeds declared "
                        f"variable count {num_vars}"
                    )
                current.append(lit)
    if num_vars is None:
        raise DimacsFormatError("missing 'p cnf' header")
    if current:
        raise DimacsFormatError(
            f"line {line_no}: last clause missing terminating 0"
        )
    if len(clauses) != num_clauses:
        raise DimacsFormatError(
            f"line {line_no}: header declares {num_clauses} clauses, "
            f"found {len(clauses)}"
        )
    return CnfFormula(num_vars, clauses)


def write_dimacs(formula: CnfFormula) -> str:
    """Render a formula as DIMACS text; inverse of :func:`parse_dimacs`."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause + (0,)))
    return "\n".join(lines) + "\n"


def prune_clauses(formula: CnfFormula, mask) -> tuple[CnfFormula, list[int]]:
    """Keep exactly the clauses where ``mask`` is True.

    Returns the pruned formula and an index map: position j of the map holds
    the original index of the j-th kept clause. Variable numbering is
    preserved (no renumbering).
    """
    bits = np.asarray(mask, dtype=bool)
    if bits.ndim != 1 or bits.shape[0] != formula.num_clauses:
        raise ValueError(
            f"mask length {bits.shape} does not match clause count "
            f"{formula.num_clauses}"
        )
    index_map = [j for j in range(formula.num_clauses) if bits[j]]
    pruned = CnfFormula(formula.num_vars, [formula.clauses[j] for j in index_map])
    return pruned, index_map


def clause_stats(formula: CnfFormula) -> FormulaStats:
    """Clause-length histogram and clause-to-variable ratio."""
    hist = Counter(len(c) for c in formula.clauses)
    ratio = formula.num_clauses / formula.num_vars if formula.num_vars else 0.0
    return FormulaStats(
        num_vars=formula.num_vars,
        clause_length_histogram=dict(sorted(hist.items())),
        clause_to_variable_ratio=ratio,
    )

