"""The package holds one construction per quantity, and nothing that only tests read."""

import ast
from pathlib import Path

import bcslab

PACKAGE = Path(bcslab.__file__).parent


def test_every_public_name_is_read_in_the_package():
    # a public module-level function or class must be loaded somewhere in
    # src/bcslab outside its own definition; __init__'s re-exports and
    # string literals (check names) do not count, so an oracle or twin that
    # only tests call belongs in tests/conftest.py
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    loads = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((module, node.attr, node.lineno))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (m == module and line in own) for m, name, line in loads):
                unread.append(f"{module}:{node.name}")
    assert trees
    assert unread == []
