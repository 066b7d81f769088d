"""Package modules use each other only through public names.

A private (``_``-prefixed) name is its module's own business; a module
that needs one from another module should get a public entry point
there instead. The source files are parsed, not imported.
"""

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "musprune")


def private_imports(path):
    """(line, module, name) of each private name the file imports from
    another package module."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "musprune":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, node.module, alias.name))
    return found


def test_no_module_imports_a_private_name():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert len(paths) >= 10
    offenders = {os.path.basename(p): private_imports(p) for p in paths}
    assert {f: v for f, v in offenders.items() if v} == {}
