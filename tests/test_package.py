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
    # __init__.py is left out: its imports are the public re-exports
    unused = []
    for path in sorted(Path(qna.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
