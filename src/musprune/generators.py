"""Random UNSAT formula generation.

Three families:

* ``gen_sr_random`` adds random clauses (length 2 + Bernoulli + Geometric,
  distinct variables, uniform polarities) until the conjunction first
  becomes unsatisfiable, and keeps that final clause. Removing the last
  clause therefore always yields a satisfiable formula.
* ``gen_stat_matched`` mimics a target clause-length distribution and
  clause-to-variable ratio: until a clause-count lower bound is reached,
  clauses that would make the formula UNSAT are rejected and the others
  are permanent; then clauses are added unconditionally until UNSAT.
* ``gen_graph_coloring`` encodes K-coloring of an Erdos-Renyi graph with
  at-least-one / at-most-one node constraints and per-edge color bans,
  rejection-sampling until the instance is UNSAT.

The geometric distribution uses the {0, 1, 2, ...} convention with
P(X = j) = (1-p)^j * p. All generators are deterministic under their seed.
The clause-by-clause generators skip the SAT query when the last model
found also satisfies the new clause: the answer is then known to be SAT,
so the output is the same as with a query per clause.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .cnf import CnfFormula, FormulaStats, write_dimacs
from .sat import SatEngine

MAX_REJECTIONS = 10_000
MAX_ATTEMPTS = 200  # graph samples gen_graph_coloring draws before giving up


@dataclass(frozen=True)
class GenSpec:
    """Serializable description of one generator configuration."""

    variant: str                                 # sr_random|stat_matched|graph_coloring
    var_range: tuple[int, int] | None = None     # sr_random / stat_matched
    bernoulli_p: float = 0.3
    geometric_p: float = 0.3
    ratio: float | None = None                   # stat_matched
    length_histogram: dict[int, int] | None = None
    node_range: tuple[int, int] | None = None    # graph_coloring
    edge_p: float = 0.8
    color_range: tuple[int, int] | None = None

    def __post_init__(self):
        if self.variant not in ("sr_random", "stat_matched", "graph_coloring"):
            raise ValueError(f"unknown variant {self.variant!r}")
        for p in (self.bernoulli_p, self.geometric_p):
            if not 0.0 < p < 1.0:
                raise ValueError("probabilities must lie strictly in (0, 1)")
        if not 0.0 < self.edge_p <= 1.0:
            raise ValueError("edge probability must lie in (0, 1]")
        least = ({"node_range": 1, "color_range": 2}  # least value each takes
                 if self.variant == "graph_coloring" else {"var_range": 2})
        if self.variant == "stat_matched":
            if self.ratio is None or self.length_histogram is None:
                raise ValueError("stat_matched needs ratio and length_histogram")
            if self.ratio <= 0:
                raise ValueError(f"ratio must be positive, got {self.ratio}")
            if sum(self.length_histogram.values()) <= 0:
                raise ValueError("length_histogram is empty")
        for name, bound in least.items():
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{self.variant} needs {name}")
            lo, hi = value
            if lo > hi:
                raise ValueError(f"{name} is empty: {lo} > {hi}")
            if lo < bound:
                raise ValueError(f"{name} must be >= {bound}, got {lo}")

    def to_dict(self) -> dict:
        d = asdict(self)
        return {k: v for k, v in d.items() if v is not None}


def _sample_clause(rng, n_vars: int, length: int) -> list[int]:
    length = max(1, min(length, n_vars))
    variables = rng.choice(n_vars, size=length, replace=False) + 1
    signs = rng.integers(0, 2, size=length) * 2 - 1
    return [int(v * s) for v, s in zip(variables, signs)]


def _clause_length(rng, bernoulli_p: float, geometric_p: float) -> int:
    bern = int(rng.random() < bernoulli_p)
    geo = int(rng.geometric(geometric_p) - 1)  # shift to {0,1,2,...}
    return 2 + bern + geo


def _satisfies(model: set[int] | None, clause) -> bool:
    """True iff ``model`` (None: no model yet) makes a literal true."""
    return model is not None and not model.isdisjoint(clause)


def _add_until_unsat(session, draw, clauses, model) -> list[list[int]]:
    """Append ``draw()`` clauses until UNSAT; query only when ``model``, the
    last one found (None: none yet), fails the new clause."""
    while True:
        clause = draw()
        session.add_clause(clause)
        clauses.append(clause)
        if not _satisfies(model, clause):
            model = session.model()
            if model is None:
                return clauses


def gen_sr_random(n_vars: int, bernoulli_p: float = 0.3,
                  geometric_p: float = 0.3, seed=0,
                  engine: SatEngine | None = None) -> CnfFormula:
    """Grow a random formula until the first clause makes it UNSAT."""
    if n_vars < 2:
        raise ValueError("n_vars must be >= 2")
    engine = engine if engine is not None else SatEngine()
    rng = np.random.default_rng(seed)
    return CnfFormula(n_vars, _add_until_unsat(
        engine.session(n_vars),
        lambda: _sample_clause(rng, n_vars,
                               _clause_length(rng, bernoulli_p, geometric_p)),
        [], None))


def _lengths_from_histogram(histogram: dict[int, int]):
    lengths = sorted(int(k) for k in histogram)
    counts = np.array([histogram[k] for k in lengths], dtype=np.float64)
    if not lengths or counts.sum() <= 0:
        raise ValueError("length histogram is empty")
    return np.array(lengths), counts / counts.sum()


def gen_stat_matched(stats: FormulaStats, seed=0,
                     engine: SatEngine | None = None) -> CnfFormula:
    """Generate an UNSAT formula matching target statistics.

    The variable count is the target's; the clause lower bound is
    ceil(0.9 * ratio * N). Until the bound, candidate clauses that would
    make the formula UNSAT are rejected (at most ``MAX_REJECTIONS``
    consecutive retries); an accepted clause is permanent. Afterwards
    clauses are added unconditionally until UNSAT.
    """
    if stats.clause_to_variable_ratio <= 0:
        raise ValueError("target ratio must be positive")
    lengths, probs = _lengths_from_histogram(stats.clause_length_histogram)
    n = int(stats.num_vars)
    if n < 2:
        raise ValueError("need at least two variables")
    engine = engine if engine is not None else SatEngine()
    rng = np.random.default_rng(seed)
    lower_bound = math.ceil(0.9 * stats.clause_to_variable_ratio * n)
    session = engine.session(n)

    def draw():
        return _sample_clause(rng, n, int(rng.choice(lengths, p=probs)))

    clauses: list[list[int]] = []
    model = None  # of the accepted clauses
    rejections = 0
    while len(clauses) < lower_bound:
        clause = draw()
        selector = session.add_guarded_clause(clause)
        found = model if _satisfies(model, clause) else session.model([selector])
        if found is not None:
            model = found
            session.add_clause(clause)
            clauses.append(clause)
            rejections = 0
        else:
            session.add_clause([-selector])
            rejections += 1
            if rejections >= MAX_REJECTIONS:
                raise RuntimeError(
                    f"clause rejection stalled after {MAX_REJECTIONS} "
                    f"consecutive SAT-preserving failures"
                )
    return CnfFormula(n, _add_until_unsat(session, draw, clauses, model))


def coloring_encoding(n_nodes: int, edges, n_colors: int) -> CnfFormula:
    """CNF for K-coloring: per node one at-least-one clause and K(K-1)/2
    at-most-one clauses; per edge K same-color bans. Variable (v, c) is
    (v-1)*K + c for v in 1..n, c in 1..K."""
    k = n_colors
    clauses: list[tuple[int, ...]] = []
    for base in range(0, n_nodes * k, k):  # variable (v, c) is base + c
        colors = range(base + 1, base + k + 1)
        clauses.append(tuple(colors))
        clauses += [(-a, -b) for a in colors
                    for b in range(a + 1, colors.stop)]
    for (u, v) in edges:
        shift = (v - u) * k
        clauses += [(-a, -a - shift)
                    for a in range((u - 1) * k + 1, u * k + 1)]
    return CnfFormula(n_nodes * k, clauses)


def gen_graph_coloring(node_range, edge_p: float, color_range, seed=0,
                       engine: SatEngine | None = None) -> CnfFormula:
    """Sample G(n, p) coloring instances, discarding satisfiable ones."""
    n_lo, n_hi = int(node_range[0]), int(node_range[1])
    c_lo, c_hi = int(color_range[0]), int(color_range[1])
    if n_lo > n_hi or c_lo > c_hi or n_lo < 1:
        raise ValueError("empty node or color range")
    if c_lo < 2:
        raise ValueError("need at least two colors")
    engine = engine if engine is not None else SatEngine()
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        n = int(rng.integers(n_lo, n_hi + 1))
        k = int(rng.integers(c_lo, c_hi + 1))
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < edge_p]
        formula = coloring_encoding(n, edges, k)
        if not engine.is_satisfiable(formula):
            return formula
    raise RuntimeError(
        f"no UNSAT coloring instance found in {MAX_ATTEMPTS} attempts"
    )


def generate(spec: GenSpec, seed=0, engine: SatEngine | None = None) -> CnfFormula:
    """Dispatch one instance from a :class:`GenSpec`."""
    rng = np.random.default_rng(seed)
    if spec.variant == "graph_coloring":
        return gen_graph_coloring(spec.node_range, spec.edge_p,
                                  spec.color_range, seed=rng, engine=engine)
    n = int(rng.integers(spec.var_range[0], spec.var_range[1] + 1))
    if spec.variant == "sr_random":
        return gen_sr_random(n, spec.bernoulli_p, spec.geometric_p,
                             seed=rng, engine=engine)
    stats = FormulaStats(
        num_vars=n,
        clause_length_histogram={int(k): v
                                 for k, v in spec.length_histogram.items()},
        clause_to_variable_ratio=spec.ratio,
    )
    return gen_stat_matched(stats, seed=rng, engine=engine)


def emit_corpus(out_dir, spec: GenSpec, count: int, seed=0) -> list[str]:
    """Write ``count`` DIMACS instances plus a JSON-lines manifest.

    Per-instance seeds derive from the corpus seed by counter, so any
    instance can be regenerated independently. Nothing is written, and
    ``out_dir`` is not created, until every instance is generated, so a
    generator that gives up leaves no output behind.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    engine = SatEngine()
    texts, records = [], []
    for i in range(count):
        instance_seed = np.random.SeedSequence(entropy=(seed, i))
        calls_before = engine.calls
        formula = generate(spec, seed=instance_seed, engine=engine)
        texts.append(write_dimacs(formula))
        records.append({
            "file": f"{i:05d}.cnf",
            "spec": spec.to_dict(),
            "seed": [seed, i],
            "num_vars": formula.num_vars,
            "num_clauses": formula.num_clauses,
            "sat_calls": engine.calls - calls_before,
        })
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for text, record in zip(texts, records):
        path = os.path.join(out_dir, record["file"])
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    with open(os.path.join(out_dir, "manifest.jsonl"), "w") as manifest:
        manifest.writelines(json.dumps(record, sort_keys=True) + "\n"
                            for record in records)
    return paths
