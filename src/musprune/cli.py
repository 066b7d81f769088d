"""Command-line front end.

Subcommands: generate (corpus emission), train (REINFORCE training to a
checkpoint), prune (one DIMACS file in, pruned DIMACS + outcome JSON
out), enumerate (MUS listing under a budget), bench (benchmark reports),
and validate (invariant sweeps over a problem directory). Exit status 0
on success, 1 on contract violations, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

from . import bench as bench_mod
from .cnf import clause_stats, parse_dimacs, write_dimacs
from .generators import GenSpec, emit_corpus
from .model import ModelConfig, init_params, save_checkpoint
from .mus import enumerate_marco
from .sat import SatEngine
from .training import TrainConfig, history_to_csv, train


class CliError(Exception):
    """Contract violation surfaced as exit status 1."""


def _read_formula(path):
    with open(path, "rb") as fh:
        return parse_dimacs(fh.read())


def _problem_files(directory):
    files = sorted(glob.glob(os.path.join(directory, "*.cnf")))
    if not files:
        raise CliError(f"no .cnf files under {directory}")
    return files


# ----------------------------------------------------------------------
# subcommands

def _cmd_generate(args) -> int:
    if args.variant == "sr_random":
        spec = GenSpec(variant="sr_random",
                       var_range=(args.min_vars, args.max_vars),
                       bernoulli_p=args.bernoulli_p,
                       geometric_p=args.geometric_p)
    elif args.variant == "graph_coloring":
        spec = GenSpec(variant="graph_coloring",
                       node_range=(args.min_nodes, args.max_nodes),
                       edge_p=args.edge_p,
                       color_range=(args.min_colors, args.max_colors))
    else:
        if not args.target:
            raise CliError("stat_matched needs --target (a DIMACS file)")
        target = clause_stats(_read_formula(args.target))
        spec = GenSpec(variant="stat_matched",
                       var_range=(args.min_vars, args.max_vars),
                       ratio=target.clause_to_variable_ratio,
                       length_histogram=target.clause_length_histogram)
    try:
        paths = emit_corpus(args.out, spec, args.count, seed=args.seed)
    except RuntimeError as exc:  # a generator gave up
        raise CliError(str(exc)) from exc
    print(f"wrote {len(paths)} instances to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if not 0 < args.eval_fraction < 1:
        raise CliError("--eval-fraction must be in (0, 1)")
    files = _problem_files(args.corpus)
    formulas = [_read_formula(p) for p in files]
    n_eval = max(1, int(len(formulas) * args.eval_fraction))
    eval_set, train_set = formulas[:n_eval], formulas[n_eval:]
    if not train_set:
        raise CliError("corpus too small for the requested eval fraction")
    config = TrainConfig(
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        max_formulas=args.max_formulas,
        samples_per_formula=args.samples_per_formula,
        eval_every=args.eval_every,
        seed=args.seed,
        use_baseline=args.baseline,
    )
    model_config = ModelConfig(
        num_layers=args.layers,
        hidden_dim=args.hidden_dim,
        random_feature_dim=args.random_features,
        mlp_hidden_dim=args.mlp_hidden_dim,
    )
    params = init_params(model_config, args.seed)
    engine = SatEngine()
    try:
        best, history = train(config, train_set, engine, eval_set, params)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    save_checkpoint(args.out, best)
    if args.history:
        history_to_csv(history, args.history)
    print(f"checkpoint written to {args.out} "
          f"({len(history)} steps, {engine.calls} SAT calls)")
    return 0


def _cmd_prune(args) -> int:
    formula = _read_formula(args.input)
    engine = SatEngine()
    if engine.is_satisfiable(formula):
        raise CliError("input satisfiable: pruning targets UNSAT formulas")
    pruner = bench_mod.make_pruner(bench_mod.PrunerSpec.parse(args.pruner))
    start = time.perf_counter()
    outcome = pruner(formula, engine, args.seed)
    wall_time = time.perf_counter() - start
    with open(args.out, "w") as fh:
        fh.write(write_dimacs(outcome.pruned))
    summary = {
        "method": outcome.method,
        "kept_fraction": outcome.kept_fraction,
        "sat_calls": outcome.sat_calls,
        "wall_time": wall_time,
        "unsat": outcome.unsat,
        "index_map": outcome.index_map,
    }
    if args.outcome:
        with open(args.outcome, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"kept {outcome.pruned.num_clauses}/{formula.num_clauses} clauses "
          f"({outcome.sat_calls} SAT calls)")
    return 0


def _cmd_enumerate(args) -> int:
    formula = _read_formula(args.input)
    try:
        trace = enumerate_marco(formula, args.budget)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    for record in trace.muses:
        print(" ".join(str(i) for i in sorted(record.clause_indices)))
    if not args.quiet:
        print(f"c {len(trace.muses)} MUSes, seeds_tested={trace.seeds_tested}, "
              f"exhausted={trace.exhausted}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    config = bench_mod.BenchConfig(
        problems=tuple(_problem_files(args.problems)),
        pruners=tuple(bench_mod.PrunerSpec.parse(p) for p in args.pruner),
        external_command=args.external_command,
        budgets=tuple(args.budgets),
        repetitions=args.repetitions,
        seed=args.seed,
        audit_sample=args.audit_sample,
    )
    report = bench_mod.run_benchmark(config)
    for path in bench_mod.emit_report(report, args.formats, args.out):
        print(f"wrote {path}")
    bad_audits = [r for r in report.records if not r.audit_ok]
    if bad_audits:
        raise CliError(
            f"{len(bad_audits)} runs produced MUSes failing validation "
            f"against the original formula"
        )
    return 0


def _cmd_validate(args) -> int:
    if args.limit < 1:
        raise CliError("--limit must be >= 1")
    files = _problem_files(args.problems)[: args.limit]
    specs = [bench_mod.PrunerSpec(kind="clause_length"),
             bench_mod.PrunerSpec(kind="var_freq")]
    if args.checkpoint:
        specs.append(bench_mod.PrunerSpec(kind="model",
                                          checkpoint=args.checkpoint))
    report = bench_mod.run_benchmark(bench_mod.BenchConfig(
        problems=tuple(files), pruners=tuple(specs), budgets=(args.budget,),
        seed=args.seed, audit_sample=args.audit_sample))
    failures = []
    for r in report.records:
        if r.status not in ("ok", "skipped"):  # enum_error or pruned_sat
            failures.append(f"{r.problem}: {r.pruner}: {r.reason}")
        elif not r.audit_ok:
            failures.append(f"{r.problem}: {r.pruner}: an audited MUS is "
                            f"not a MUS of the input")
    skipped = {r.problem for r in report.records if r.status == "skipped"}
    for path in files:
        print(f"{path}: skipped (satisfiable)" if path in skipped
              else f"{path}: ok")
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        raise CliError(f"{len(failures)} invariant violations")
    print(f"validated {len(files)} problems: all invariants hold")
    return 0


# ----------------------------------------------------------------------
# parser

_PRUNER_HELP = ("none | model:<ckpt>[:k] | clause_length[:K] | var_freq[:k] | "
               "random[:fraction]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musprune",
        description="Learned clause pruning for MUS enumeration.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a DIMACS corpus")
    g.add_argument("--variant", choices=["sr_random", "graph_coloring",
                                         "stat_matched"], default="sr_random")
    g.add_argument("--count", type=int, default=100)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--min-vars", type=int, default=20)
    g.add_argument("--max-vars", type=int, default=40)
    g.add_argument("--bernoulli-p", type=float, default=GenSpec.bernoulli_p)
    g.add_argument("--geometric-p", type=float, default=GenSpec.geometric_p)
    g.add_argument("--min-nodes", type=int, default=10)
    g.add_argument("--max-nodes", type=int, default=30)
    g.add_argument("--edge-p", type=float, default=GenSpec.edge_p)
    g.add_argument("--min-colors", type=int, default=4)
    g.add_argument("--max-colors", type=int, default=7)
    g.add_argument("--target", help="DIMACS file supplying target statistics")
    g.set_defaults(func=_cmd_generate)

    t = sub.add_parser("train", help="train a pruning model")
    t.add_argument("--corpus", required=True, help="directory of .cnf files")
    t.add_argument("--out", required=True, help="checkpoint path (.npz)")
    t.add_argument("--history", help="training history CSV path")
    t.add_argument("--eval-fraction", type=float, default=0.1)
    t.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    t.add_argument("--learning-rate", type=float,
                   default=TrainConfig.learning_rate)
    t.add_argument("--max-formulas", type=int,
                   default=TrainConfig.max_formulas)
    t.add_argument("--samples-per-formula", type=int,
                   default=TrainConfig.samples_per_formula)
    t.add_argument("--eval-every", type=int, default=TrainConfig.eval_every)
    t.add_argument("--baseline", action="store_true",
                   help="enable the moving-average variance-reduction baseline")
    t.add_argument("--layers", type=int, default=ModelConfig.num_layers)
    t.add_argument("--hidden-dim", type=int, default=ModelConfig.hidden_dim)
    t.add_argument("--random-features", type=int,
                   default=ModelConfig.random_feature_dim)
    t.add_argument("--mlp-hidden-dim", type=int,
                   default=ModelConfig.mlp_hidden_dim)
    t.add_argument("--seed", type=int, default=TrainConfig.seed)
    t.set_defaults(func=_cmd_train)

    p = sub.add_parser("prune", help="prune one DIMACS file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--outcome", help="outcome JSON path")
    p.add_argument("--pruner", required=True, help=_PRUNER_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prune)

    e = sub.add_parser("enumerate", help="enumerate MUSes of a DIMACS file")
    e.add_argument("--input", required=True)
    e.add_argument("--budget", type=float, required=True, help="seconds")
    e.add_argument("--quiet", action="store_true")
    e.set_defaults(func=_cmd_enumerate)

    b = sub.add_parser("bench", help="run the benchmark harness")
    b.add_argument("--problems", required=True, help="directory of .cnf files")
    b.add_argument("--pruner", action="append", required=True,
                   help=_PRUNER_HELP + " (repeatable)")
    b.add_argument("--budgets", type=float, nargs="+", required=True)
    b.add_argument("--repetitions", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--audit-sample", type=int, default=3)
    b.add_argument("--formats", nargs="+", default=["csv", "json", "markdown"],
                   choices=list(bench_mod.REPORT_FORMATS))
    b.add_argument("--out", required=True, help="output path prefix")
    b.add_argument("--external-command",
                   help="external enumerator template with {dimacs} {budget}")
    b.set_defaults(func=_cmd_bench)

    v = sub.add_parser("validate", help="run invariant suites on problems")
    v.add_argument("--problems", required=True)
    v.add_argument("--checkpoint")
    v.add_argument("--limit", type=int, default=20)
    v.add_argument("--budget", type=float, default=1.0)
    v.add_argument("--audit-sample", type=int, default=3)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
