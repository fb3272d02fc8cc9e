"""The package's public surface."""

import ast
from pathlib import Path

import qna


def test_all_names_resolve_and_are_listed_once():
    # a name that a deletion leaves behind in __all__ fails here rather than
    # at `from qna import *`
    names = qna.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(qna, n)] == []


def test_modules_use_every_name_they_import():
    # the package's __init__.py is left out: its imports are the public
    # re-exports; an import marked "# noqa: F401" is kept for its effect
    paths = [p for p in sorted(Path(qna.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    unused = []
    for path in paths + sorted(Path(__file__).parent.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_private_function_has_a_caller():
    # a private module-level function that no module of the package refers
    # to is a leftover of a refactor; tests do not count as callers
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(qna.__file__).parent.glob("*.py"))}
    referred = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
    uncalled = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not node.name.startswith("__") and node.name not in referred]
    assert uncalled == []
