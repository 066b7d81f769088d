"""Formulas, DIMACS round trips, and satisfiability queries.

A CNF formula is a conjunction of clauses over signed integer literals.
This walk-through builds a small formula, inspects its statistics, and
queries the CDCL engine directly.
"""

from musprune import (CnfFormula, SatEngine, clause_stats, parse_dimacs,
                      write_dimacs)

engine = SatEngine()

# The running example: four clauses over two variables. It is
# unsatisfiable because (1) and (-1) already conflict.
f1 = CnfFormula(2, [[1], [-1], [1, 2], [-2]])
print("formula:", f1.clauses)
print("satisfiable?", engine.is_satisfiable(f1))  # False

# A satisfiable variant: drop the clause (-1).
sat_variant = CnfFormula(2, [[1], [1, 2], [-2]])
result = engine.solve(sat_variant)
# A model is the set of true literals, one per variable.
print("variant status:", result.status,
      "model:", sorted(result.model, key=abs))  # [1, -2]
print("solver stats:", result.stats)

# Assumptions force literals true for one query without changing the
# formula. Forcing 2 true makes the clause (-2) unsatisfiable.
print("assume 2:", engine.solve(sat_variant, assumptions=[2]).status)

# DIMACS text round-trips exactly.
text = write_dimacs(f1)
print("dimacs:")
print(text, end="")
assert parse_dimacs(text) == f1

# Clause statistics drive the statistics-matched generator (see demo 05).
stats = clause_stats(f1)
print("lengths:", stats.clause_length_histogram,
      "ratio:", stats.clause_to_variable_ratio)
