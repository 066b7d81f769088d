"""Train the fixed model checkpoint used by the ``model`` pipelines.

    python3 perfbench/make_checkpoint.py [--out perfbench/checkpoint.npz]

A short seeded REINFORCE run on SR formulas with 20-40 variables, at the
default ``ModelConfig``. The enumeration workloads load the committed
result, so they do not move when the training code changes; rerun this
only on purpose, and record the new reference figures in the README.
The formula seeds (entropy tag 9001) are disjoint from every seed the
benchmark draws its workloads from.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from musprune import (ModelConfig, SatEngine, TrainConfig, build_lcg,  # noqa: E402
                      forward, gen_sr_random, init_params,
                      make_input_features, save_checkpoint, threshold_prune,
                      train)

TAG = 9001
STEPS = 40
BATCH = 16
LEARNING_RATE = 3e-4


def sr_formulas(stream: int, count: int, engine: SatEngine):
    rng = np.random.default_rng((TAG, stream))
    return [gen_sr_random(int(rng.integers(20, 41)), seed=(TAG, stream, i),
                          engine=engine) for i in range(count)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "checkpoint.npz"))
    args = parser.parse_args(argv)
    engine = SatEngine()
    t0 = time.perf_counter()
    corpus = sr_formulas(0, STEPS * BATCH, engine)
    held = sr_formulas(1, 48, engine)
    print(f"generated {len(corpus) + len(held)} formulas in "
          f"{time.perf_counter() - t0:.1f} s")
    config = TrainConfig(batch_size=BATCH, learning_rate=LEARNING_RATE,
                         max_formulas=STEPS * BATCH, eval_every=10,
                         early_stop_window=STEPS, seed=0,
                         use_baseline=True)
    t0 = time.perf_counter()
    params, history = train(config, corpus, engine, held[:16],
                            init_params(ModelConfig(), 0))
    print(f"trained {len(history)} steps in {time.perf_counter() - t0:.1f} s")
    for label, p in (("untrained", init_params(ModelConfig(), 0)),
                     ("trained", params)):
        kept = []
        for j, f in enumerate(held[16:]):
            g = build_lcg(f)
            x = make_input_features(g, p.config.random_feature_dim, (TAG, j))
            kept.append(threshold_prune(f, forward(p, g, x), 10,
                                        engine).kept_fraction)
        print(f"{label}: mean kept fraction {np.mean(kept):.3f} "
              f"on {len(kept)} held-out formulas")
    save_checkpoint(args.out, params)
    print(f"wrote {args.out} ({os.path.getsize(args.out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
