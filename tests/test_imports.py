"""Package modules use each other only through public names, and the
package's count of settable values and its public names are pinned;
every public name has a reader in the package or the benchmark.

A private (``_``-prefixed) name is its module's own business; a module
that needs one from another module should get a public entry point
there instead. So is a private attribute its object's: code reads one
only off ``self`` or ``cls``. The source files are parsed, not imported,
except by the tests of the public names.
"""

import ast
import glob
import inspect
import os

import musprune

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


def private_attributes(path):
    """(line, expression) of each private attribute the file reads off
    anything but ``self`` or ``cls``; dunders such as ``__init__`` are
    public protocol."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_private_attributes_are_read_only_off_self():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    offenders = {os.path.basename(p): private_attributes(p) for p in paths}
    assert {f: v for f, v in offenders.items() if v} == {}


# A change that adds or removes a settable value updates this constant
# and says why.
SETTABLE_VALUES = 91


def is_dataclass(node):
    """True iff the class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def settable_values(path):
    """The settable values of one source file: every parameter with a
    default, positional or keyword-only, of a function, method or lambda
    (private ones included), plus every field with a default in a class
    decorated ``@dataclass``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and stmt.value is not None for stmt in node.body)
    return count


def test_settable_value_count_is_pinned():
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert sum(settable_values(p) for p in paths) == SETTABLE_VALUES


# A change that adds or removes a public name updates this tuple and says
# why.
PUBLIC_NAMES = (
    "CnfFormula", "DimacsFormatError", "EnumerationTrace", "FormulaStats",
    "GenSpec", "LiteralClauseGraph", "ModelConfig", "ModelParams",
    "MusRecord", "OptimizerState", "PruneOutcome", "SAT", "SatEngine",
    "SatResult", "SolveStats", "Solver", "TrainConfig", "TrainMetrics",
    "UNKNOWN", "UNSAT", "adam_update", "brute_force_muses", "build_lcg",
    "clause_length_prune", "clause_stats", "cnf", "coloring_encoding",
    "emit_corpus", "enumerate_marco", "evaluate_loss", "forward",
    "gen_graph_coloring", "gen_sr_random", "gen_stat_matched", "generate",
    "generators", "init_params", "is_mus", "lcg", "lift_muses",
    "load_checkpoint", "log_prob", "make_input_features", "model", "mus",
    "none_prune", "parse_dimacs", "prune_clauses", "prune_loss", "pruning",
    "random_prune", "reinforce_step", "sample_mask",
    "sat", "save_checkpoint", "score_clauses", "score_with_pullback",
    "shrink", "threshold_prune", "train", "training",
    "truth_table_satisfiable", "variable_frequency_prune", "write_dimacs",
)


def test_public_names_are_pinned():
    assert tuple(musprune.__all__) == PUBLIC_NAMES


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)),
                         "perfbench")
# Test oracles: kept public for tests, which the package itself never runs.
UNREAD_PUBLIC_NAMES = {"brute_force_muses", "truth_table_satisfiable"}


def names_read(path):
    """Every name the file reads: a loaded ``Name``, an attribute, or a
    name it imports."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_name_has_a_reader():
    """A public function or class that nothing in the package (outside
    ``__init__.py``) or the benchmark reads is surface without a caller."""
    paths = [p for p in glob.glob(os.path.join(PACKAGE, "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += glob.glob(os.path.join(PERFBENCH, "*.py"))
    assert len(paths) >= 14
    read = set().union(*map(names_read, paths))
    public = {name for name in musprune.__all__
              if not inspect.ismodule(getattr(musprune, name))}
    assert public - read == UNREAD_PUBLIC_NAMES
