import json
import math
import os

import numpy as np
import pytest

from musprune import generators
from musprune.cnf import CnfFormula, clause_stats, parse_dimacs
from musprune.generators import (GenSpec, _clause_length,
                                 _lengths_from_histogram, _sample_clause,
                                 coloring_encoding, emit_corpus,
                                 gen_graph_coloring, gen_sr_random,
                                 gen_stat_matched, generate)
from musprune.mus import truth_table_satisfiable
from musprune.sat import SatEngine


class TestSrRandom:
    def test_always_unsat(self):
        for i in range(20):
            f = gen_sr_random(8, seed=i)
            assert not truth_table_satisfiable(f)

    def test_minus_last_clause_sat(self):
        for i in range(20):
            f = gen_sr_random(8, seed=i)
            trimmed = CnfFormula(f.num_vars, f.clauses[:-1])
            assert truth_table_satisfiable(trimmed)

    def test_deterministic(self):
        assert gen_sr_random(10, seed=5) == gen_sr_random(10, seed=5)

    def test_clause_length_law(self):
        # lengths are 2 + Bernoulli(0.3) + Geometric(0.3 on {0,1,...}),
        # capped at n_vars; the minimum possible length is 2
        f = gen_sr_random(30, seed=1)
        lengths = [len(c) for c in f.clauses]
        assert min(lengths) >= 2
        mean_expected = 2 + 0.3 + (1 - 0.3) / 0.3
        assert abs(np.mean(lengths) - mean_expected) < 1.0

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_sr_random(1)

    def test_scale_calibration(self):
        # clause counts grow with variable count toward the paper-scale
        # regime (about 700 clauses at n = 100)
        m20 = np.mean([gen_sr_random(20, seed=i).num_clauses for i in range(5)])
        m60 = np.mean([gen_sr_random(60, seed=i).num_clauses for i in range(5)])
        assert m60 > m20


class TestStatMatched:
    def target(self):
        return clause_stats(gen_sr_random(20, seed=99))

    def test_always_unsat(self):
        target = self.target()
        for i in range(5):
            f = gen_stat_matched(target, seed=i)
            assert not SatEngine().is_satisfiable(f)

    def test_clause_count_at_least_lower_bound(self):
        target = self.target()
        import math
        bound = math.ceil(0.9 * target.clause_to_variable_ratio * target.num_vars)
        for i in range(3):
            f = gen_stat_matched(target, seed=i)
            assert f.num_clauses >= bound

    def test_deterministic(self):
        target = self.target()
        assert gen_stat_matched(target, seed=3) == gen_stat_matched(target, seed=3)

    def test_length_distribution_tv_distance(self):
        target = self.target()
        total = sum(target.clause_length_histogram.values())
        target_p = {k: v / total
                    for k, v in target.clause_length_histogram.items()}
        engine = SatEngine()
        observed = {}
        n_clauses = 0
        for i in range(40):
            f = gen_stat_matched(target, seed=i, engine=engine)
            for c in f.clauses:
                observed[len(c)] = observed.get(len(c), 0) + 1
                n_clauses += 1
        tv = 0.5 * sum(abs(target_p.get(k, 0.0) - observed.get(k, 0) / n_clauses)
                       for k in set(target_p) | set(observed))
        assert tv < 0.1

    def test_invalid_target(self):
        bad = clause_stats(CnfFormula(0, []))
        with pytest.raises(ValueError):
            gen_stat_matched(bad, seed=0)


def reference_sr(n_vars, seed):
    """gen_sr_random with one SAT query per added clause."""
    rng = np.random.default_rng(seed)
    session = SatEngine().session(n_vars)
    clauses = []
    while True:
        clause = _sample_clause(rng, n_vars, _clause_length(rng, 0.3, 0.3))
        session.add_clause(clause)
        clauses.append(clause)
        if session.solve().model is None:
            return CnfFormula(n_vars, clauses)


def reference_stat_matched(stats, seed):
    """gen_stat_matched with one SAT query per candidate clause."""
    lengths, probs = _lengths_from_histogram(stats.clause_length_histogram)
    n = stats.num_vars
    rng = np.random.default_rng(seed)
    lower_bound = math.ceil(0.9 * stats.clause_to_variable_ratio * n)
    session = SatEngine().session(n)
    committed, clauses = [], []
    while len(clauses) < lower_bound:
        clause = _sample_clause(rng, n, int(rng.choice(lengths, p=probs)))
        selector = session.add_guarded_clause(clause)
        if session.solve(committed + [selector]).model is not None:
            committed.append(selector)
            clauses.append(clause)
        else:
            session.add_clause([-selector])
    while True:
        clause = _sample_clause(rng, n, int(rng.choice(lengths, p=probs)))
        session.add_clause(clause)
        clauses.append(clause)
        if session.solve(committed).model is None:
            return CnfFormula(n, clauses)


class TestModelReuse:
    """Skipping the query when the last model satisfies the new clause
    must give the formulas of a query per clause."""

    def test_sr_matches_query_per_clause(self):
        engine = SatEngine()
        for i in range(30):
            n = 8 + i % 25
            assert gen_sr_random(n, seed=(3, i), engine=engine) \
                == reference_sr(n, (3, i))
        assert engine.calls < 30 * 40

    def test_stat_matched_matches_query_per_clause(self):
        target = clause_stats(gen_sr_random(20, seed=99))
        for i in range(15):
            assert gen_stat_matched(target, seed=(4, i)) \
                == reference_stat_matched(target, (4, i))


class TestGraphColoring:
    def test_triangle_two_colors(self):
        f = coloring_encoding(3, [(1, 2), (2, 3), (1, 3)], 2)
        assert f.num_vars == 6
        assert f.num_clauses == 12  # 3 ALO + 3 AMO + 6 edge bans
        assert not truth_table_satisfiable(f)

    def test_exact_clauses(self):
        f = coloring_encoding(3, [(1, 3), (2, 3)], 3)
        assert f.num_vars == 9
        assert f.clauses == (
            (1, 2, 3), (-1, -2), (-1, -3), (-2, -3),
            (4, 5, 6), (-4, -5), (-4, -6), (-5, -6),
            (7, 8, 9), (-7, -8), (-7, -9), (-8, -9),
            (-1, -7), (-2, -8), (-3, -9),
            (-4, -7), (-5, -8), (-6, -9))

    def test_clause_count_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(2, 5))
            edges = [(u, v) for u in range(1, n + 1)
                     for v in range(u + 1, n + 1) if rng.random() < 0.5]
            f = coloring_encoding(n, edges, k)
            assert f.num_clauses == n + n * k * (k - 1) // 2 + len(edges) * k
            assert f.num_vars == n * k

    def test_colorable_graph_encodes_sat(self):
        # a path is 2-colorable
        f = coloring_encoding(4, [(1, 2), (2, 3), (3, 4)], 2)
        assert truth_table_satisfiable(f)

    def test_generated_instances_unsat(self):
        for i in range(5):
            f = gen_graph_coloring((4, 8), 0.8, (2, 3), seed=i)
            assert not SatEngine().is_satisfiable(f)

    def test_deterministic(self):
        a = gen_graph_coloring((4, 8), 0.8, (2, 3), seed=7)
        b = gen_graph_coloring((4, 8), 0.8, (2, 3), seed=7)
        assert a == b

    def test_rejection_budget_error(self, monkeypatch):
        # plenty of colors on a tiny sparse graph: everything is SAT
        monkeypatch.setattr(generators, "MAX_ATTEMPTS", 5)
        with pytest.raises(RuntimeError, match="5 attempts"):
            gen_graph_coloring((2, 3), 0.5, (5, 6), seed=0)


class TestGenSpecDispatch:
    def test_sr_spec(self):
        spec = GenSpec(variant="sr_random", var_range=(6, 10))
        f = generate(spec, seed=1)
        assert 6 <= f.num_vars <= 10
        assert not truth_table_satisfiable(f)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(variant="bogus")

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            generate(GenSpec(variant="sr_random"), seed=0)

    @pytest.mark.parametrize("fields, message", [
        ({"variant": "sr_random"}, "sr_random needs var_range"),
        ({"variant": "stat_matched", "var_range": (5, 5)},
         "stat_matched needs ratio and length_histogram"),
        ({"variant": "graph_coloring", "node_range": (2, 3)},
         "graph_coloring needs color_range"),
        ({"variant": "sr_random", "var_range": (30, 20)},
         "var_range is empty: 30 > 20"),
        ({"variant": "graph_coloring", "node_range": (5, 4),
          "color_range": (2, 3)}, "node_range is empty: 5 > 4"),
        ({"variant": "graph_coloring", "node_range": (2, 3),
          "color_range": (4, 3)}, "color_range is empty: 4 > 3"),
        ({"variant": "stat_matched", "var_range": (5, 5), "ratio": 0.0,
          "length_histogram": {3: 1}}, "ratio must be positive, got 0.0"),
        ({"variant": "stat_matched", "var_range": (1, 4), "ratio": 4.0,
          "length_histogram": {3: 1}}, "var_range must be >= 2, got 1"),
        ({"variant": "graph_coloring", "node_range": (0, 3),
          "color_range": (2, 3)}, "node_range must be >= 1, got 0"),
        ({"variant": "graph_coloring", "node_range": (2, 3),
          "color_range": (1, 3)}, "color_range must be >= 2, got 1"),
        ({"variant": "stat_matched", "var_range": (5, 5), "ratio": 4.0,
          "length_histogram": {}}, "length_histogram is empty"),
    ])
    def test_spec_checked_on_construction(self, fields, message):
        with pytest.raises(ValueError) as info:
            GenSpec(**fields)
        assert str(info.value) == message

    def test_deterministic(self):
        spec = GenSpec(variant="graph_coloring", node_range=(4, 6),
                       color_range=(2, 3))
        assert generate(spec, seed=5) == generate(spec, seed=5)


class TestEmitCorpus:
    def test_files_and_manifest(self, tmp_path):
        spec = GenSpec(variant="sr_random", var_range=(5, 8))
        out = tmp_path / "corpus"
        paths = emit_corpus(out, spec, 5, seed=3)
        assert len(paths) == 5
        lines = open(out / "manifest.jsonl").read().splitlines()
        assert len(lines) == 5
        for path, line in zip(paths, lines):
            record = json.loads(line)
            f = parse_dimacs(open(path, "rb").read())
            assert record["num_vars"] == f.num_vars
            assert record["num_clauses"] == f.num_clauses
            assert record["sat_calls"] > 0
            assert record["file"] == os.path.basename(path)

    def test_deterministic_bytes(self, tmp_path):
        spec = GenSpec(variant="sr_random", var_range=(5, 8))
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit_corpus(a, spec, 3, seed=7)
        emit_corpus(b, spec, 3, seed=7)
        for name in os.listdir(a):
            assert open(a / name, "rb").read() == open(b / name, "rb").read()

    @pytest.mark.parametrize("existed", [False, True])
    def test_generator_error_leaves_no_output(self, tmp_path, monkeypatch,
                                              existed):
        """The second instance's generator gives up: no instance file and
        no manifest is left, a directory the call would have made is
        absent, and an existing one keeps exactly its own files."""
        out = tmp_path / "corpus"
        if existed:
            out.mkdir()
            (out / "notes.txt").write_text("kept")
            (out / "manifest.jsonl").write_text("old\n")
        generate, calls = generators.generate, []

        def second_gives_up(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("gave up")
            return generate(*args, **kwargs)

        monkeypatch.setattr(generators, "generate", second_gives_up)
        spec = GenSpec(variant="sr_random", var_range=(5, 8))
        with pytest.raises(RuntimeError, match="gave up"):
            emit_corpus(out, spec, 3, seed=3)
        assert len(calls) == 2
        if existed:
            assert sorted(os.listdir(out)) == ["manifest.jsonl", "notes.txt"]
            assert (out / "manifest.jsonl").read_text() == "old\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_checked_before_output(self, tmp_path, count):
        spec = GenSpec(variant="sr_random", var_range=(5, 8))
        out = tmp_path / "corpus"
        with pytest.raises(ValueError) as info:
            emit_corpus(out, spec, count)
        assert str(info.value) == f"count must be >= 1, got {count}"
        assert not out.exists()
