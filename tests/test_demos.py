"""The demos still run against the package.

Demos 01-04 take about a second together and run here in a child
process, as does the README's quick start. Demos 05 (training, 1-2 min)
and 06 (benchmark, about 18 s) are too slow for the unit suite; for them
every name imported from the package is checked to resolve, so a rename
or deletion fails here.
"""

import ast
import glob
import importlib
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def demo(prefix):
    (path,) = glob.glob(os.path.join(DEMOS, f"{prefix}_*.py"))
    return path


def package_imports(path):
    """(module, name) pairs the file imports from ``musprune``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "musprune"
            for alias in node.names]


@pytest.mark.parametrize("prefix", ["01", "02", "03", "04"])
def test_fast_demo_runs(prefix):
    result = subprocess.run([sys.executable, demo(prefix)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("prefix", ["05", "06"])
def test_slow_demo_imports_resolve(prefix):
    uses = package_imports(demo(prefix))
    assert uses
    for module_name, name in uses:
        assert hasattr(importlib.import_module(module_name), name), \
            (module_name, name)


def test_readme_quick_start_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        (code,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    check = "\nassert muses\nprint(len(muses))\n"
    result = subprocess.run([sys.executable, "-c", code + check],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[-1]) > 0
