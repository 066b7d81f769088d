"""Span tracing around the calls into each musprune layer.

Only traced runs (``--trace 1``) install the wrappers; timed runs call
the package untouched. A wrapper replaces a public entry point wherever a
caller looks its name up: on the class for methods, and in every module
whose global of that name is the original function. Spans (name, start,
end, parent) are kept in flat lists and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

# (module, qualified name) of every wrapped entry point; the layer is the
# module's last name part.
ENTRY_POINTS = (
    ("musprune.sat", "Solver.solve"),
    ("musprune.sat", "SolverSession.solve"),
    ("musprune.sat", "SatEngine.solve"),
    ("musprune.mus", "enumerate_marco"),
    ("musprune.mus", "lift_muses"),
    ("musprune.pruning", "threshold_prune"),
    ("musprune.lcg", "build_lcg"),
    ("musprune.lcg", "make_input_features"),
    ("musprune.model", "forward"),
    ("musprune.generators", "gen_sr_random"),
    ("musprune.generators", "gen_graph_coloring"),
    ("musprune.training", "reinforce_step"),
    ("musprune.training", "evaluate_loss"),
    ("musprune.cnf", "prune_clauses"),
)
QUERY = ("Solver.solve", "SolverSession.solve", "SatEngine.solve")
# Phases whose spans stay out of the per-layer figures, as out of the
# end-to-end ones: output checking and the budget probes.
_UNMEASURED = ("bench.check", "bench.probe")


def _summary(name, result):
    """The part of a call's result the per-layer metrics need."""
    if name in QUERY:
        s = result.stats
        return (result.status, s.decisions, s.propagations, s.conflicts)
    if name == "threshold_prune":
        return (result.kept_fraction, result.sat_calls)
    return None


class Tracer:
    """Flat in-memory span store; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.results: list = []
        self._open = [-1]

    def _begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.results.append(None)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark phase span, e.g. ``bench.pipeline.model``."""
        i = self._begin(name)
        try:
            yield
        finally:
            self._end(i)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            i = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(i)
            self.results[i] = _summary(name, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every entry point where its callers look it up."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "musprune" or n.startswith("musprune.")]
        for module_name, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, name)
            wrapper = self.wrap(name, original)
            for m in modules:
                if vars(m).get(name) is original:
                    setattr(m, name, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "starts": self.starts,
                       "ends": self.ends, "parents": self.parents}, fh)

    # ------------------------------------------------------------------
    # per-layer metrics

    def layer_metrics(self, mus_found: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures from the measured spans.

        ``mus_found`` is the number of MUSes the pipelines returned; the
        enumerator's sink stops it early, so no span result carries it.
        """
        n = len(self.names)
        names, parents, results = self.names, self.parents, self.results
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        phase = [""] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += dur[i]
                children[p].append(i)
                phase[i] = phase[p]
            if names[i].startswith("bench."):
                phase[i] = names[i]
        live = [i for i in range(n) if phase[i] not in _UNMEASURED]

        def calls(name):
            return [i for i in live if names[i] == name]

        def mean_ms(spans, values=None):
            values = values if values is not None else [dur[i] for i in spans]
            return 1000.0 * sum(values) / len(spans) if spans else 0.0

        def is_query(i):
            if names[i] not in QUERY:
                return False
            p = parents[i]
            # A Solver.solve under a session or engine is the same query.
            return names[i] != "Solver.solve" or p < 0 or names[p] not in QUERY

        def queries_under(spans):
            return [j for i in spans for j in children[i] if is_query(j)]

        queries = [i for i in live if is_query(i)]
        solver = calls("Solver.solve")
        marco = calls("enumerate_marco")
        subset = [i for i in queries_under(marco)
                  if names[i] == "SolverSession.solve"]
        seeds = [i for i in queries_under(marco)
                 if names[i] == "Solver.solve" and results[i][0] == "SAT"]
        prunes = [i for i in calls("threshold_prune")
                  if phase[i] == "bench.pipeline.model"]
        steps = calls("reinforce_step")
        gens = calls("gen_sr_random") + calls("gen_graph_coloring")
        found = max(mus_found, 1)
        return {
            "sat.queries": (len(queries), "count"),
            "sat.query_us_p50": (1e6 * statistics.median(
                dur[i] for i in queries), "us"),
            "sat.self_s": (sum(dur[i] - child_time[i] for i in live
                               if names[i] in QUERY), "s"),
            "sat.decisions": (sum(results[i][1] for i in solver), "count"),
            "sat.propagations": (sum(results[i][2] for i in solver), "count"),
            "sat.conflicts": (sum(results[i][3] for i in solver), "count"),
            "sat.oneshot_calls": (len(calls("SatEngine.solve")), "count"),
            "sat.unsat_ratio": (sum(results[i][0] == "UNSAT" for i in subset)
                                / max(len(subset), 1), "ratio"),
            "mus.queries_per_mus": (len(queries_under(marco)) / found,
                                    "queries/MUS"),
            "mus.seeds_per_mus": (len(seeds) / found, "seeds/MUS"),
            "mus.self_ms_per_mus": (1000.0 * sum(
                dur[i] - child_time[i] for i in marco) / found, "ms"),
            "pruning.prune_ms": (mean_ms(prunes), "ms/formula"),
            "pruning.sat_calls_per_formula": (
                sum(results[i][1] for i in prunes) / max(len(prunes), 1),
                "count"),
            "pruning.kept_fraction": (
                sum(results[i][0] for i in prunes) / max(len(prunes), 1),
                "ratio"),
            "lcg.build_ms": (mean_ms(calls("build_lcg")), "ms/formula"),
            "lcg.features_ms": (mean_ms(calls("make_input_features")),
                                "ms/formula"),
            "model.forward_ms": (mean_ms(calls("forward")), "ms/formula"),
            "training.step_ms": (mean_ms(steps), "ms/step"),
            "training.step_model_ms": (mean_ms(
                steps, [dur[i] - child_time[i] for i in steps]), "ms/step"),
            "training.step_sat_ms": (mean_ms(steps, [
                sum(dur[j] for j in queries_under([i])) for i in steps]),
                "ms/step"),
            "training.eval_ms": (mean_ms(calls("evaluate_loss")), "ms/pass"),
            "generators.formula_ms": (mean_ms(gens), "ms/formula"),
            "generators.sat_calls_per_formula": (
                len(queries_under(gens)) / max(len(gens), 1), "count"),
            "cnf.prune_clauses_ms": (mean_ms(calls("prune_clauses")), "ms"),
        }
