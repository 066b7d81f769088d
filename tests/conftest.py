"""Lets a bare ``pytest`` run against this checkout without an install.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's path;
this puts it on ``PYTHONPATH`` too, for the tests that start
``python -m musprune.cli`` in a child process.

BLAS runs on one thread unless the caller says otherwise: set before
numpy loads, this keeps a busy core elsewhere on the host from slowing
the model's products alone, which tilts the timed pipeline comparisons.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + _paths)
