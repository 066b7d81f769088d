"""A small REINFORCE training run, end to end.

The loss of a sampled pruning is 1 when the result is satisfiable or
nothing was pruned, else the squared kept fraction; its expectation is
minimized with the score-function gradient estimator and Adam. No labels
are needed, only satisfiability checks. This demo trains on a few
hundred instances in about a minute; the acceptance suite runs the
full desk-scale version (5000 formulas).
"""

import numpy as np

from musprune import (ModelConfig, SatEngine, TrainConfig, evaluate_loss,
                      gen_sr_random, init_params, score_clauses,
                      threshold_prune, train)

engine = SatEngine()
rng = np.random.default_rng(0)
print("generating training corpus ...")
corpus = [gen_sr_random(int(rng.integers(15, 31)), seed=(1, i), engine=engine)
          for i in range(400)]
held_out = [gen_sr_random(int(rng.integers(15, 31)), seed=(2, i), engine=engine)
            for i in range(20)]

config = TrainConfig(batch_size=16, learning_rate=1e-4, max_formulas=1600,
                     eval_every=10, early_stop_window=12, seed=0)
params = init_params(ModelConfig(), seed=0)

print("eval loss before training:",
      round(evaluate_loss(params, held_out, engine), 3))
best, history = train(config, corpus, engine, held_out[:10], params)

evals = [(row["step"], row["eval_loss"]) for row in history
         if row["eval_loss"] != ""]
print("eval-loss trajectory:", [(s, round(e, 3)) for s, e in evals])
print("eval loss of returned checkpoint:",
      round(evaluate_loss(best, held_out, engine), 3))

# What the trained model actually does at test time:
kept = []
for j, f in enumerate(held_out):
    out = threshold_prune(f, score_clauses(best, f, j), 10, SatEngine())
    kept.append(out.kept_fraction)
print(f"mean kept fraction on held-out instances: {np.mean(kept):.2f} "
      f"(1.0 would mean no pruning)")
