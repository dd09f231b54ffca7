"""Import hygiene of the package sources, checked on their syntax trees.

Every name a module imports must be used in it, and no module may import a
private (underscore) name from another module: a private helper that two
modules need belongs behind a public name.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "morphoscope").glob("*.py"))


def imported_names(tree: ast.Module):
    """(bound name, imported name, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.lineno


def used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, _, line in imported_names(tree)
              if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text())
    private = [f"{imported} (line {line})" for _, imported, line in imported_names(tree)
               if imported.startswith("_")]
    assert private == []
