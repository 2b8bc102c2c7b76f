"""The package's modules import each other in layers: every import sits at
module level, the imports between the package's modules form no cycle, no
module or test imports a name it does not use, the private names that
cross a module boundary are the shared ones below, and only the modules
that build from numbers the library made name the private path past the
checks of the public constructors."""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kantorovich"
TESTS = Path(__file__).resolve().parent
# The weight core of ``measures`` (one check, the exact-or-float choice, the
# integer view of weights, the Fraction view of exact weights, exact
# comparison of two weight vectors and convex composition), the discrepancy
# helper of ``graded``, and of ``spaces`` the table-size cap, the integer guard, the
# real-number guard and its array companion, the norms of coordinate differences and
# the largest of discrepancies that keeps a NaN; and the private path below.
SHARED_PRIVATE = {"measures._weights", "measures._exact_or_float", "measures._exact_weights",
                  "measures._fractions", "measures._comparable", "measures._compose",
                  "graded._discrepancy", "spaces._check_table_cap", "spaces._integer",
                  "spaces._real", "spaces._real_array", "spaces._norm", "spaces._worst",
                  "spaces._unguarded", "spaces._roster", "measures._measure", "power._multiset"}
# The private path: spaces._unguarded sets an object's fields past the checks of its
# public constructor; spaces._roster, measures._measure and power._multiset put the
# numbers they are given in canonical form and go through it.
PRIVATE_PATH = {"_unguarded", "_roster", "_measure", "_multiset"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _package_targets(node: ast.Import | ast.ImportFrom) -> set[str]:
    """Modules of the package that an import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level:
        names = ([f"kantorovich.{node.module}"] if node.module
                 else [f"kantorovich.{alias.name}" for alias in node.names])
    else:
        names = [node.module or ""]
    return {"__init__" if name == "kantorovich" else name.split(".")[1]
            for name in names if name.split(".")[0] == "kantorovich"}


def test_no_function_imports():
    found = [f"{module}.{node.name}:{inner.lineno}"
             for module, tree in _modules().items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_module_imports_form_no_cycle():
    graph = {module: set().union(*(_package_targets(node) for node in ast.walk(tree)
                                   if isinstance(node, (ast.Import, ast.ImportFrom))))
             for module, tree in _modules().items()}
    assert set().union(*graph.values()) <= set(graph)
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_private_names_cross_modules_only_from_the_shared_core():
    crossing = {f"{node.module}.{alias.name}"
                for tree in _modules().values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level and node.module
                for alias in node.names if alias.name.startswith("_")}
    assert crossing == SHARED_PRIVATE


def test_only_spaces_decides_what_a_finite_float_is():
    # Every other module takes its reals through spaces._real and
    # spaces._real_array; validate_coupling reports a non-finite entry of the
    # coupling it is given, which may hold one.
    tests = {"isfinite", "isinf", "isnan"}
    found = set()
    for module, tree in _modules().items():
        scope = {}  # node -> the innermost function around it; ast.walk goes outside in
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((inner, node.name) for inner in ast.walk(node))
        found |= {(module, scope.get(node, "")) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in tests
                  or isinstance(node, ast.ImportFrom) and tests & {a.name for a in node.names}}
    assert {entry for entry in found if entry[0] != "spaces"} == {
        ("transport", "validate_coupling")}


def _unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports but never reads; a module's ``__all__``
    entries count as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    # The package's __init__ imports only to re-export.
    paths = [*(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
             *sorted(TESTS.glob("*.py"))]
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def test_only_the_modules_that_build_from_their_own_numbers_take_the_private_path():
    # The private path builds a space, measure, tuple, multiset, nesting, coupling
    # or potential from numbers that the module built itself, skipping the type,
    # range and finiteness checks of the public constructors. cli and fileio read
    # callers' files, and the tests stand for callers: all of them go through
    # those checks. A new caller of the private path must be added here.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py"))]}
    naming = {name for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in PRIVATE_PATH
              or isinstance(node, ast.Attribute) and node.attr in PRIVATE_PATH
              or isinstance(node, ast.alias) and node.name in PRIVATE_PATH}
    assert naming == {"spaces.py", "measures.py", "power.py", "graded.py", "samplers.py",
                      "monad.py", "algebras.py", "laws.py", "transport.py"}
    assert not naming & {"cli.py", "fileio.py", *(path.name for path in TESTS.glob("*.py"))}
    # spaces._unguarded is the one place that makes an object past its constructor.
    assert {name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__new__"} == {"spaces.py"}
