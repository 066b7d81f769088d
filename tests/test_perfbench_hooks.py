"""The benchmark's hooks into the package still resolve.

``perfbench/`` wraps package entry points by name (``tracing.py``) and
calls package functions by name (``run.py``, ``make_checkpoint.py``). A
renamed or deleted function would otherwise break the benchmark only
when it runs. The files are parsed here, never imported or changed.
"""

import ast
import importlib
import os
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def parse(name):
    with open(os.path.join(PERFBENCH, name)) as fh:
        return ast.parse(fh.read())


def resolve(module_name, qualname):
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def entry_points():
    for node in ast.walk(parse("tracing.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("tracing.py defines no ENTRY_POINTS")


def package_uses(name):
    """(module, name) pairs a benchmark file takes from the package: the
    names it imports from ``musprune`` and the attributes it reads off
    the submodules among them."""
    tree = parse(name)
    uses, submodules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "musprune":
            for alias in node.names:
                uses.append(("musprune", alias.name))
                if isinstance(resolve("musprune", alias.name),
                              types.ModuleType):
                    submodules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in submodules):
            uses.append((f"musprune.{submodules[node.value.id]}", node.attr))
    return sorted(set(uses))


BENCH_USES = package_uses("run.py") + package_uses("make_checkpoint.py")


@pytest.mark.parametrize("module_name, qualname", entry_points(),
                         ids=lambda v: v)
def test_traced_entry_point_resolves(module_name, qualname):
    assert callable(resolve(module_name, qualname))


@pytest.mark.parametrize("module_name, name", BENCH_USES, ids=lambda v: v)
def test_benchmark_name_resolves(module_name, name):
    resolve(module_name, name)


def test_scan_finds_the_known_hooks():
    run_uses = set(package_uses("run.py"))
    assert {("musprune.mus", "shrink"), ("musprune.mus", "EnumerationTrace"),
            ("musprune.generators", "coloring_encoding")} <= run_uses
    checkpoint_uses = {n for m, n in package_uses("make_checkpoint.py")}
    assert {"build_lcg", "forward", "make_input_features", "train",
            "threshold_prune"} <= checkpoint_uses
