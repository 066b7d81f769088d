"""Fixed-work benchmark of musprune.

    python3 perfbench/run.py --workload enum_sr --seed 1 --seconds 30 --trace 0

Each run generates a seeded set of formulas with the package's own
generators, enumerates MUSes on some of them through two pipelines
(``none``: no pruning; ``model``: the fixed checkpoint prunes first, and
its time is charged), and trains a fresh model for a fixed number of
REINFORCE steps on them. Work is fixed, never cut by a clock: the
enumerator stops at the N-th MUS or at exhaustion, under a budget no
formula comes near. One process, one formula at a time (a closed loop
with one client), BLAS pinned to one thread. Timed metrics are scaled to
a reference host speed by a calibration task timed throughout the run.

``--seconds`` sets how many rounds of that fixed work a run makes (one
round takes 30-60 s on a 2-core machine, as the shared host's speed
varies; ``ROUND_SECONDS`` is its nominal length). ``--trace 1`` wraps
each layer's entry points (see tracing.py) and reports per-layer figures
instead of the end-to-end ones. Every output is checked by
checker.py; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import musprune  # noqa: E402
from musprune import (generators, lcg, model, mus, pruning, sat,  # noqa: E402
                      training)

IMPORT_S = time.perf_counter() - _START
if not os.path.abspath(musprune.__file__).startswith(SRC + os.sep):
    sys.exit(f"musprune was imported from {musprune.__file__}, "
             f"not from this checkout's {SRC}")

from checker import antichain_violation, find_model, mus_violation  # noqa: E402
from tracing import Tracer  # noqa: E402

CHECKPOINT = os.path.join(HERE, "checkpoint.npz")
OUT_DIR = os.path.join(HERE, "out")
ROUND_SECONDS = 30
ENUM_BUDGET = 1e6           # seconds; far above any formula's need
PRUNE_K = 10                # threshold grid of the model pipeline
BATCH = 16
LEARNING_RATE = 1e-4
CERTIFIED_PER_ROUND = 2     # pool formulas certified by a checked MUS
MUS_CHECKS = 2              # MUSes per formula and pipeline fully checked
PROBE_BUDGET = 0.2
PROBE_SLACK = 1.0           # a probe fails past budget + slack seconds

# Host speed. On a shared host the same pure-Python work runs up to twice
# as fast in one hour as in another, and 10-20 % apart from one minute to
# the next, the same for every phase of a run. So a calibration task is
# timed before every enumerated formula: the checker's DPLL (no code
# shared with musprune) refuting the pigeonhole formula PHP(6, 5). Every
# timed metric is reported at the reference speed, at which that task
# takes REFERENCE_CALIBRATION_S: its seconds are multiplied by
# REFERENCE_CALIBRATION_S / (the run's median calibration time).
REFERENCE_CALIBRATION_S = 0.020

# Median clause count of each family's pool, measured once on 216 SR
# formulas and 400 colouring formulas. The formulas enumerated are those
# of the seeded pool whose clause counts lie nearest it: enumeration time
# grows with about the square of the clause count, and a run whose size
# mix followed the seed would move more with the seed than with the code.
MEDIAN_CLAUSES = {"sr": 153, "color": 135}


@dataclass(frozen=True)
class Workload:
    tag: int            # entropy tag separating this workload's seeds
    family: str         # sr: gen_sr_random 26-34 vars; color: 10-14 nodes
    pool: int           # formulas generated per round; also the corpus
    setups: int         # set-up repeats per run; setup_s is their median
    enum_formulas: int  # picked from the pool, each run through 2 pipelines
    n_mus: int          # MUSes enumerated per formula and pipeline
    train_steps: int    # reinforce_step calls per round, batch 16
    eval_every: int     # steps between evaluate_loss passes
    eval_formulas: int  # size of the evaluation set (head of the pool)
    probes: int         # K8 budget probes per round


WORKLOADS = {
    "enum_sr": Workload(7101, "sr", pool=96, setups=3, enum_formulas=64,
                        n_mus=4, train_steps=16, eval_every=4,
                        eval_formulas=4, probes=0),
    "enum_color": Workload(7102, "color", pool=256, setups=8,
                           enum_formulas=60, n_mus=4, train_steps=16,
                           eval_every=4, eval_formulas=4, probes=1),
}


class _Enough(Exception):
    """Raised by the enumeration sink at the N-th MUS."""


class Ops:
    """Operations attempted; a failed one carries its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def record(self, kind: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append((kind, reason))


def generate_pool(w: Workload, seed: int, rounds: int):
    """The run's formulas, from the package generators; and their time.

    Sizes follow a fixed even schedule: 26-34 variables, the middle of
    the 20-40 training range, where the enumerated formulas lie; or 10-14
    nodes. The seed picks the instances.
    """
    total = w.pool * rounds
    pool = []
    start = time.perf_counter()
    for i in range(total):
        step = (2 * i + 1) / (2 * total)
        if w.family == "sr":
            pool.append(generators.gen_sr_random(
                26 + int(9 * step), seed=(w.tag, seed, 0, i)))
        else:
            nodes = 10 + int(5 * step)
            pool.append(generators.gen_graph_coloring(
                (nodes, nodes), 0.4, (3, 3), seed=(w.tag, seed, 0, i)))
    return pool, time.perf_counter() - start


def nearest_median(pool, count: int, family: str) -> list[int]:
    """Indices of the ``count`` pool formulas nearest the family median."""
    target = MEDIAN_CLAUSES[family]
    ranked = sorted(range(len(pool)),
                    key=lambda j: (abs(pool[j].num_clauses - target), j))
    return sorted(ranked[:count])


def run_pipeline(kind: str, formula, params, feature_seed, n_mus: int):
    """Prune, enumerate to the N-th MUS or exhaustion, lift back.

    Returns (lifted MUS records, exhausted, wall seconds).
    """
    start = time.perf_counter()
    if kind == "model":
        graph = lcg.build_lcg(formula)
        features = lcg.make_input_features(
            graph, params.config.random_feature_dim, feature_seed)
        scores = model.forward(params, graph, features)
        outcome = pruning.threshold_prune(formula, scores, PRUNE_K,
                                          sat.SatEngine())
    else:
        outcome = pruning.none_prune(formula)
    found = []

    def sink(record):
        found.append(record)
        if len(found) >= n_mus:
            raise _Enough

    try:
        trace = mus.enumerate_marco(outcome.pruned, ENUM_BUDGET, sink=sink)
    except _Enough:
        trace = mus.EnumerationTrace(muses=found)
    lifted = mus.lift_muses(trace, outcome.index_map)
    return lifted.muses, lifted.exhausted, time.perf_counter() - start


def check_pipeline(formula, muses, exhausted, n_mus, sample, verified):
    """Checker verdict on one pipeline's lifted MUSes of ``formula``.

    Count, distinctness and containment are checked on all MUSes; MUS
    validity on the positions in ``sample``, each set once per formula.
    """
    if len(muses) != n_mus and not (exhausted and len(muses) < n_mus):
        return f"{len(muses)} MUSes without exhaustion"
    sets = [r.clause_indices for r in muses]
    reason = antichain_violation(sets)
    if reason is not None:
        return reason
    for k in sample:
        if k < len(sets) and sets[k] not in verified:
            reason = mus_violation(formula.clauses, sets[k])
            if reason is not None:
                return reason
            verified.add(sets[k])
    return None


def check_formula(w: Workload, formula, certify: bool) -> str | None:
    """Checker verdict on one generated formula."""
    clauses = formula.clauses
    if find_model(clauses) is not None:
        return "generated formula is satisfiable"
    if w.family == "sr" and find_model(clauses[:-1]) is None:
        return "SR formula without its last clause is unsatisfiable"
    if certify:
        core = mus.shrink(formula, range(formula.num_clauses))
        return mus_violation(clauses, core.clause_indices)
    return None


def pigeonhole(holes: int) -> list[list[int]]:
    """PHP(holes + 1, holes): every pigeon in a hole, no two sharing one."""
    def var(p, h):
        return p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(holes + 1)]
    for h in range(holes):
        for p in range(holes + 1):
            for q in range(p + 1, holes + 1):
                clauses.append([-var(p, h), -var(q, h)])
    return clauses


CALIBRATION = pigeonhole(5)


def calibrate() -> float:
    """Seconds one refutation of the calibration formula takes."""
    start = time.perf_counter()
    if find_model(CALIBRATION) is not None:
        raise AssertionError("checker found a model of a pigeonhole formula")
    return time.perf_counter() - start


def k8_probe() -> float:
    """Seconds ``enumerate_marco`` takes on a K8 7-colouring at 0.2 s."""
    edges = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]
    formula = generators.coloring_encoding(8, edges, 7)
    start = time.perf_counter()
    mus.enumerate_marco(formula, PROBE_BUDGET)
    return time.perf_counter() - start


class Trainer:
    """REINFORCE on the pool from a fresh model, one step at a time.

    Batches follow a seeded permutation of the pool, refilled as in
    ``training.train``; ``evaluate_loss`` runs every ``eval_every`` steps.
    """

    def __init__(self, w: Workload, seed: int, pool):
        self.w, self.seed, self.pool = w, seed, pool
        self.params = model.init_params(model.ModelConfig(), 0)
        self.state = training.OptimizerState()
        self.config = training.TrainConfig(
            batch_size=BATCH, learning_rate=LEARNING_RATE,
            eval_every=w.eval_every, seed=seed)
        self.engine = sat.SatEngine()
        self.rng = np.random.default_rng((w.tag, seed, 1))
        self.order: list[int] = []
        self.steps = 0
        self.seconds = 0.0
        self.faults: list[str | None] = []

    def step(self) -> None:
        while len(self.order) < BATCH:
            self.order.extend(self.rng.permutation(len(self.pool)).tolist())
        batch = [self.pool[j] for j in self.order[:BATCH]]
        del self.order[:BATCH]
        losses = []
        start = time.perf_counter()
        self.params, self.state, metrics = training.reinforce_step(
            self.params, batch, self.engine, self.state, self.seed,
            self.config, step=self.steps)
        if (self.steps + 1) % self.w.eval_every == 0:
            losses.append(training.evaluate_loss(
                self.params, self.pool[:self.w.eval_formulas], self.engine,
                seed=self.seed))
        self.seconds += time.perf_counter() - start
        self.steps += 1
        losses.append(metrics.loss)
        finite = all(np.all(np.isfinite(t))
                     for t in self.params.tensors.values())
        in_range = all(0.0 <= x <= 1.0 for x in losses)
        self.faults.append(None if finite and in_range
                           else "loss or parameter out of range")


def run(workload: str, seed: int, seconds: int, tracer: Tracer | None):
    w = WORKLOADS[workload]
    rounds = max(1, round(seconds / ROUND_SECONDS))
    phase = tracer.span if tracer is not None else nullcontext
    setups, gen_times = [], []

    def set_up():
        """Checkpoint load and input generation, plus the one-off import."""
        with phase("bench.setup"):
            start = time.perf_counter()
            params = model.load_checkpoint(CHECKPOINT)
            pool, gen_s = generate_pool(w, seed, rounds)
            setups.append(IMPORT_S + time.perf_counter() - start)
        gen_times.append(gen_s)
        return params, pool

    # The set-up repeats, the training steps and both pipelines are spread
    # evenly over the run, so that each metric sees the same host load.
    params, pool = set_up()
    same_inputs = True
    picks = nearest_median(pool, w.enum_formulas * rounds, w.family)
    repeat_at = {len(picks) * k // w.setups for k in range(1, w.setups)}
    trainer = Trainer(w, seed, pool)
    steps = w.train_steps * rounds
    per_kind = {"none": ([], []), "model": ([], [])}   # (MUS counts, times)
    results = []
    calibration = []
    for n, i in enumerate(picks):
        with phase("bench.calibrate"):
            calibration.append(calibrate())
        if n in repeat_at:
            same_inputs &= set_up()[1] == pool
        kinds = ("none", "model") if n % 2 == 0 else ("model", "none")
        for kind in kinds:
            try:
                with phase("bench.pipeline." + kind):
                    muses, exhausted, elapsed = run_pipeline(
                        kind, pool[i], params, (w.tag, seed, 4, i), w.n_mus)
            except Exception as exc:  # counted as failed, not raised
                results.append((kind, i, None, False, repr(exc)))
                continue
            per_kind[kind][0].append(len(muses))
            per_kind[kind][1].append(elapsed)
            results.append((kind, i, muses, exhausted, None))
        while trainer.steps < steps * (n + 1) // len(picks):
            with phase("bench.train"):
                trainer.step()

    # Budget probes; their time is in no metric.
    probe_times = []
    for _ in range(w.probes * rounds):
        with phase("bench.probe"):
            probe_times.append(k8_probe())

    # Checks, untimed.
    ops = Ops()
    check_start = time.perf_counter()
    with phase("bench.check"):
        certify = set(np.random.default_rng((w.tag, seed, 2)).choice(
            len(pool), CERTIFIED_PER_ROUND * rounds, replace=False).tolist())
        for i, formula in enumerate(pool):
            ops.record("generate", check_formula(w, formula, i in certify))
        verified: dict[int, set] = {}
        for kind, i, muses, exhausted, error in results:
            sample = np.random.default_rng((w.tag, seed, 3, i)).choice(
                w.n_mus, min(MUS_CHECKS, w.n_mus), replace=False)
            reason = error if error is not None else check_pipeline(
                pool[i], muses, exhausted, w.n_mus, sample.tolist(),
                verified.setdefault(i, set()))
            ops.record("pipeline." + kind, reason)
        for fault in trainer.faults:
            ops.record("train_step", fault)
        for t in probe_times:
            ops.record("probe", f"returned after {t:.2f} s"
                       if t > PROBE_BUDGET + PROBE_SLACK else None)
    correct = same_inputs and all(k == "probe" for k, _ in ops.failures)
    if not same_inputs:
        print("# set-up repeats generated different inputs", file=sys.stderr)
    for kind, reason in ops.failures:
        print(f"# failed {kind}: {reason}", file=sys.stderr)

    mus_found = sum(len(m) for _, _, m, _, _ in results if m is not None)
    # Measured seconds per second at the reference speed.
    slowdown = statistics.median(calibration) / REFERENCE_CALIBRATION_S

    def seconds(measured):
        return measured / slowdown

    if tracer is not None:
        metrics_out = tracer.layer_metrics(mus_found)
    else:
        def rate(kind):
            counts, times = per_kind[kind]
            return sum(counts) / seconds(sum(times))

        metrics_out = {
            "mus_per_s.none": (rate("none"), "MUS/s"),
            "mus_per_s.model": (rate("model"), "MUS/s"),
            "time_to_n_p50_s.none": (seconds(statistics.median(
                per_kind["none"][1])), "s"),
            "time_to_n_p50_s.model": (seconds(statistics.median(
                per_kind["model"][1])), "s"),
            "gen_formulas_per_s": (len(gen_times) * len(pool)
                                   / seconds(sum(gen_times)), "formulas/s"),
            "train_formulas_per_s": (steps * BATCH / seconds(trainer.seconds),
                                     "formulas/s"),
            "setup_s": (seconds(statistics.median(setups)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    info = {"rounds": rounds, "formulas": len(pool), "picked": len(picks),
            "mus_found": mus_found, "probe_s": probe_times,
            "calibration_s": statistics.median(calibration),
            "check_s": time.perf_counter() - check_start,
            "wall_s": time.perf_counter() - _START}
    print("# " + json.dumps(info))
    return {"correct": bool(correct), "attempted": ops.attempted,
            "failed": len(ops.failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics_out.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run(args.workload, args.seed, args.seconds, tracer)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
