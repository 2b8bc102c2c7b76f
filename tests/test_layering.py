"""The package's modules import each other in layers: every import sits at
module level, and the imports between the package's modules form no cycle."""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kantorovich"


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
