"""Minimal unsatisfiable subsets: checking, shrinking, enumerating.

A MUS is an unsatisfiable clause subset that turns satisfiable when any
single clause is removed. The running example has exactly two MUSes,
{0,1} and {1,2,3}, overlapping in clause 1.
"""

from musprune import (CnfFormula, brute_force_muses, enumerate_marco, is_mus,
                      shrink)

f1 = CnfFormula(2, [[1], [-1], [1, 2], [-2]])

print("is {0,1} a MUS?", is_mus(f1, {0, 1}))          # True
print("is {0,1,2} a MUS?", is_mus(f1, {0, 1, 2}))     # False: not minimal

# Deletion-based shrinking walks clauses in ascending order and keeps a
# removal whenever the rest stays UNSAT, narrowed to the solver's core of
# that answer. From the full formula it lands on the second MUS because
# clause 0 can be dropped first.
record = shrink(f1, {0, 1, 2, 3})
print("shrink(full) ->", sorted(record.clause_indices))

# The brute-force oracle enumerates all subsets (small formulas only).
oracle = brute_force_muses(f1)
print("brute force:", sorted(sorted(r.clause_indices) for r in oracle))

# The MARCO-style enumerator explores the subset lattice through a map
# solver: unexplored seed -> shrink (UNSAT) or grow + block (SAT).
trace = enumerate_marco(f1, budget=10.0)
print("marco:", sorted(sorted(r.clause_indices) for r in trace.muses),
      "| exhausted:", trace.exhausted, "| seeds tested:", trace.seeds_tested)
assert {r.clause_indices for r in trace.muses} == \
       {r.clause_indices for r in oracle}
