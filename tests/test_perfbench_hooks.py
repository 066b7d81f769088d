"""The benchmark's hooks into the package still resolve.

``perfbench/`` wraps package entry points by name (``tracing.py``) and
calls package functions by name (``run.py``, ``make_checkpoint.py``). A
renamed or deleted function, or a renamed or deleted keyword, would
otherwise break the benchmark only when it runs. The files are parsed
here, never imported or changed.
"""

import ast
import importlib
import inspect
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


def package_names(tree):
    """Local name -> name in ``musprune``, for the names a benchmark file
    imports from the package; and the same map for its submodules."""
    names = {alias.asname or alias.name: alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "musprune"
             for alias in node.names}
    submodules = {local: name for local, name in names.items()
                  if isinstance(resolve("musprune", name), types.ModuleType)}
    return names, submodules


def package_name(node, names, submodules):
    """The (module, name) a ``Name`` or ``submodule.attr`` node reads off
    the package, or None."""
    if isinstance(node, ast.Name) and node.id in names:
        return ("musprune", names[node.id])
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in submodules):
        return (f"musprune.{submodules[node.value.id]}", node.attr)
    return None


def package_uses(name):
    """(module, name) pairs a benchmark file takes from the package: the
    names it imports from ``musprune`` and the attributes it reads off
    the submodules among them."""
    tree = parse(name)
    names, submodules = package_names(tree)
    uses = [("musprune", name) for name in names.values()]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            use = package_name(node, names, submodules)
            if use is not None:
                uses.append(use)
    return sorted(set(uses))


def package_calls(name):
    """(file:line, module, name, positional count, keyword names) for
    every call in a benchmark file whose callee is a package function or
    class, named directly or as ``submodule.attr``."""
    tree = parse(name)
    names, submodules = package_names(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        use = package_name(node.func, names, submodules)
        if use is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args) and \
            all(k.arg is not None for k in node.keywords), \
            f"{name}:{node.lineno}: cannot check a call with * or **"
        calls.append((f"{name}:{node.lineno}", *use, len(node.args),
                      tuple(k.arg for k in node.keywords)))
    return calls


BENCH_USES = package_uses("run.py") + package_uses("make_checkpoint.py")
BENCH_CALLS = package_calls("run.py") + package_calls("make_checkpoint.py")


@pytest.mark.parametrize("module_name, qualname", entry_points(),
                         ids=lambda v: v)
def test_traced_entry_point_resolves(module_name, qualname):
    assert callable(resolve(module_name, qualname))


@pytest.mark.parametrize("module_name, name", BENCH_USES, ids=lambda v: v)
def test_benchmark_name_resolves(module_name, name):
    resolve(module_name, name)


@pytest.mark.parametrize("where, module_name, name, positional, keywords",
                         BENCH_CALLS, ids=lambda v: str(v))
def test_benchmark_call_binds(where, module_name, name, positional, keywords):
    signature = inspect.signature(resolve(module_name, name))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))


def test_scan_finds_the_known_hooks():
    run_uses = set(package_uses("run.py"))
    assert {("musprune.mus", "shrink"), ("musprune.mus", "EnumerationTrace"),
            ("musprune.generators", "coloring_encoding")} <= run_uses
    checkpoint_uses = {n for m, n in package_uses("make_checkpoint.py")}
    assert {"build_lcg", "forward", "make_input_features", "train",
            "threshold_prune"} <= checkpoint_uses
    called = {(n, kw) for _, _, n, _, kws in BENCH_CALLS for kw in kws}
    assert {("enumerate_marco", "sink"), ("reinforce_step", "step"),
            ("gen_sr_random", "engine"), ("TrainConfig", "eval_every"),
            ("evaluate_loss", "seed")} <= called
