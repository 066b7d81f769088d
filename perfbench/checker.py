"""Independent output checker for the benchmark.

A small DPLL solver and a model verifier. Nothing here imports
``musprune``: a fault in the package's CDCL engine cannot hide a fault
in its answers. Clauses are sequences of nonzero signed integers.
"""

from __future__ import annotations


def satisfies(clauses, model: dict[int, bool]) -> bool:
    """True iff every clause has a literal made true by ``model``.

    Variables missing from the model count as false.
    """
    return all(any(model.get(abs(l), False) == (l > 0) for l in c)
               for c in clauses)


def _simplify(clauses, lit):
    """Clauses under ``lit`` = true; None if one of them becomes empty."""
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            c = tuple(l for l in c if l != -lit)
            if not c:
                return None
        out.append(c)
    return out


def _search(clauses, assignment: dict[int, bool]):
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0
        clauses = _simplify(clauses, unit)
        if clauses is None:
            return None
    if not clauses:
        return assignment
    # Branch on the most frequent literal among the shortest clauses.
    shortest = min(len(c) for c in clauses)
    counts: dict[int, int] = {}
    for c in clauses:
        if len(c) == shortest:
            for l in c:
                counts[l] = counts.get(l, 0) + 1
    lit = max(sorted(counts), key=counts.__getitem__)
    for choice in (lit, -lit):
        reduced = _simplify(clauses, choice)
        if reduced is not None:
            found = _search(reduced, {**assignment, abs(choice): choice > 0})
            if found is not None:
                return found
    return None


def find_model(clauses) -> dict[int, bool] | None:
    """A verified satisfying assignment, or None when the clauses are UNSAT."""
    clauses = [tuple(c) for c in clauses]
    if any(not c for c in clauses):
        return None
    model = _search(clauses, {})
    if model is not None and not satisfies(clauses, model):
        raise AssertionError("checker DPLL returned a non-model")
    return model


def mus_violation(clauses, indices) -> str | None:
    """Why ``indices`` is not a MUS of ``clauses``, or None if it is one.

    The subset must be UNSAT, and dropping any one clause must leave a
    subset for which a model is found and verified.
    """
    indices = sorted(indices)
    if not indices:
        return "empty clause set"
    if indices[0] < 0 or indices[-1] >= len(clauses):
        return "clause index out of range"
    subset = [clauses[i] for i in indices]
    if find_model(subset) is not None:
        return "subset is satisfiable"
    for k in range(len(subset)):
        if find_model(subset[:k] + subset[k + 1:]) is None:
            return f"not minimal: clause {indices[k]} is redundant"
    return None


def antichain_violation(sets) -> str | None:
    """Why a list of MUS index sets is not distinct and containment-free."""
    sets = [frozenset(s) for s in sets]
    if len(set(sets)) != len(sets):
        return "duplicate MUS"
    for a in sets:
        for b in sets:
            if a < b:
                return "one MUS contains another"
    return None
