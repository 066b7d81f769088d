"""Test-time pruning: threshold binary search and the naive baselines.

The threshold pruner searches k+1 candidate cutoffs over the score range
for the most aggressive pruning that keeps the formula unsatisfiable,
spending O(log k) SAT calls. Clause-length and variable-frequency scores
plug into the same search; random pruning shows what chance achieves.
"""

import numpy as np

from musprune import (SatEngine, clause_length_prune, gen_sr_random,
                      random_prune, threshold_prune, variable_frequency_prune)

formula = gen_sr_random(25, seed=7)
print(f"instance: {formula.num_vars} variables, "
      f"{formula.num_clauses} clauses (UNSAT by construction)")

# Hand-crafted scores: pretend a model confidently marks the longest
# clauses as prunable. Higher score = pruned at lower thresholds.
lengths = np.array([len(c) for c in formula.clauses], dtype=float)
span = lengths.max() - lengths.min()
scores = 0.05 + 0.9 * (lengths - lengths.min()) / (span or 1.0)

engine = SatEngine()
out = threshold_prune(formula, scores, k=10, engine=engine)
print(f"threshold: kept {out.kept_fraction:.2f} of clauses with "
      f"{out.sat_calls} SAT calls; still UNSAT: {out.unsat}")

# The appendix baselines. Clause-length keeps short clauses; variable
# frequency scores clauses over rare variables as more prunable.
for fn, arg, label in ((clause_length_prune, 100, "clause-length"),
                       (variable_frequency_prune, 10, "variable-frequency")):
    out = fn(formula, arg, SatEngine())
    tag = "pruned" if out.kept_fraction < 1 else "fell back to the original"
    print(f"{label}: kept {out.kept_fraction:.2f} ({tag})")

# Random pruning at the same fraction usually destroys unsatisfiability,
# which is exactly why learned scores matter.
sat_hits = 0
for seed in range(20):
    rnd = random_prune(formula, 0.3, seed, SatEngine())
    sat_hits += not rnd.unsat
print(f"random 30% pruning went SAT in {sat_hits}/20 tries")
