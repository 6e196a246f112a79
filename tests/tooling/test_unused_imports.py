"""Every name a ``src/repro`` module imports is used by that module.

A plain ``ast`` scan, so no linter has to be installed.  Exempt:
``__init__.py`` files (their imports are the package's re-exports),
names listed in a module's ``__all__``, ``from __future__`` imports and
names that only string annotations mention.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _annotation_names(tree: ast.AST):
    """Names inside string annotations (``"SystemModel"``, ``Optional["X"]``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None:
                    annotations.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for inner in ast.walk(ast.parse(node.value, mode="eval")):
                    if isinstance(inner, ast.Name):
                        yield inner.id


def _exported(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path):
    """``(line, name)`` of each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    used.update(_annotation_names(tree))
    used.update(_exported(tree))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Dict, List, Optional\n"
        "from a import b as c\n"
        "import x.y\n"
        "__all__ = ['Dict']\n"
        "def f(v: 'Optional[int]') -> x.y.Z:\n"
        "    return v\n"
    )
    assert unused_imports(module) == [(2, "os"), (3, "List"), (4, "c")]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
