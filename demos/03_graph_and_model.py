"""From formula to graph to prune scores.

Formulas become literal-clause graphs: one node per literal (positive
and negated) and one per clause, held as the sparse clause-by-literal
incidence matrix; negation pairs each literal row with its negation's.
A heterogeneous message-passing model reads the graph plus random node
features and emits one prune probability per clause.
"""

import numpy as np

from musprune import (CnfFormula, build_lcg, forward, init_params,
                      make_input_features, recover_formula, sample_mask,
                      score_clauses, log_prob, ModelConfig)

f1 = CnfFormula(2, [[1], [-1], [1, 2], [-2]])
graph = build_lcg(f1)
print(f"nodes: {graph.num_nodes} ({graph.num_literal_nodes} literal, "
      f"{graph.num_clauses} clause)")
print(f"literal occurrences: {graph.incidence.nnz}")
print("clause-by-literal incidence (literal rows x1 x2 -x1 -x2):")
print(graph.incidence.toarray())
print("negation pairs literal row i with row:", graph.negation.tolist())

# The conversion is lossless.
assert recover_formula(graph) == f1

# Input features: a node-type one-hot block plus d_r random normal
# columns (resampled per forward pass, seeded for reproducibility).
config = ModelConfig()  # 5 layers, 64 hidden units, 32 random features
features = make_input_features(graph, config.random_feature_dim, seed=0)
print("feature matrix:", features.shape)

# A fresh model scores every clause near sigmoid(-3) ~ 0.047: the
# conservative start prunes almost nothing until training raises the
# scores of clauses that are safe to drop.
params = init_params(config, seed=0)
mu = forward(params, graph, features)
print("prune scores:", np.round(mu, 4))

# score_clauses runs the same three steps (graph, features, forward) in
# one call; the pruners, training evaluation and the CLI all use it.
assert np.array_equal(score_clauses(params, f1, seed=0), mu)

# Masks sample each clause independently: kept with probability 1 - mu.
mask, lp = sample_mask(mu, seed=1)
print("sampled keep mask:", mask, "log prob:", round(lp, 4))
assert abs(lp - log_prob(mu, mask)) < 1e-12
