"""Lets a bare ``pytest`` run against this checkout without an install.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's path;
this puts it on ``PYTHONPATH`` too, for the tests that start
``python -m musprune.cli`` in a child process.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + _paths)
