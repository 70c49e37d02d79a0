"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dperm"
# ``__init__.py`` imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read in the scope of that import.

    A module-level import may be read anywhere in the module; an import
    inside a function only within that function.  ``__future__`` imports
    are directives, not bindings.
    """
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        imports = [node for node in _own_nodes(scope)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        used = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{name} (line {node.lineno})")
    return unused


def _own_nodes(scope: ast.AST):
    """The descendants of ``scope``, without entering nested functions."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own_nodes(child)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_sees_function_scope():
    tree = ast.parse(
        "import math\n"
        "from os import path\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    return dumps(math.pi)\n"
        "def g():\n"
        "    return loads\n"
    )
    assert unused_imports(tree) == ["path (line 2)", "loads (line 4)"]
