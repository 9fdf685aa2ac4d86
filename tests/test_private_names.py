"""Every module-level private name of the package is used by the package.

A private helper that only tests or the benchmark tracer call is dead
weight: it is either folded into what the package calls or deleted.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "upright"


def _private_definitions(tree: ast.Module) -> list[str]:
    """Names a module binds at its top level with a leading underscore,
    dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(tree: ast.Module) -> tuple[set, set]:
    """The names a module loads, and those it imports or reads as attributes
    (the only ways to reach another module's names)."""
    loads, across = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute):
            across.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            across.update(alias.name for alias in node.names)
    return loads, across


def unreferenced_private_names(src: Path = SRC) -> list[str]:
    """``module.name`` for each top-level private name of the package that
    nothing in the package reads."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    across = set().union(*(a for _, a in reads.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _private_definitions(tree)
            if name not in reads[module][0] and name not in across]


def test_every_private_name_is_used_by_the_package():
    assert unreferenced_private_names() == []


def test_the_guard_flags_a_private_name_only_its_definition_mentions(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n\n\ndef _used(x):\n    return x < _LIMIT\n\n\n"
        "def _dead(x):\n    return _used(x)\n\n\ndef _imported():\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import _imported\n")
    assert unreferenced_private_names(tmp_path) == ["a._dead"]
