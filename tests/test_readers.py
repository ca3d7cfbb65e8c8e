"""Every top-level function and class of the package has a reader."""

import ast
from pathlib import Path

import entbound

SOURCES = sorted(Path(entbound.__file__).parent.glob("*.py"))


def test_every_definition_is_read_or_exported():
    # read means loaded as a Name or an Attribute anywhere in the package; a name in
    # entbound.__all__ is read by the package's users
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in read and node.name not in entbound.__all__]
    assert len(trees) > 1
    assert unread == []
