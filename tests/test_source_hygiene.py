"""Import and API hygiene of the package sources, checked on their syntax trees.

Every name a module imports must be used in it, and no module may import a
private (underscore) name from another module: a private helper that two
modules need belongs behind a public name. Every public module-level
function and class is used: referenced in the sources outside its own
definition, wrapped by the benchmark's tracer, or kept on purpose (UNUSED_KEPT).
Every dataclass field and every attribute a method sets on self is read as an
attribute in the sources or the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from test_tracer_targets import TRACER

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "morphoscope").glob("*.py"))
# the tests, less this file, whose syntax-tree walks read attributes of their own
TESTS = sorted(p for p in Path(__file__).resolve().parent.glob("*.py")
               if p.name != Path(__file__).name)

# public names no command calls, each kept for a stated reason
UNUSED_KEPT = {
    "best_compatible_structure": "reference implementation that tests compare against",
    "structure_from_fiber": "reference implementation that tests compare against",
    "fiber_mean_curvature": "certifies minimal singular fibres (ROADMAP item 4)",
    "isolated_extension": "certifies the isolated-center extension in rate (ROADMAP item 5)",
}


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


def referenced_names(node) -> Counter:
    """Names, attribute names and imported names referenced under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def public_definitions():
    """(module, name, node) of every public module-level function and class."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name, node


def test_every_public_definition_is_used():
    everywhere = Counter()
    for path in SOURCES:
        everywhere.update(referenced_names(ast.parse(path.read_text())))
    traced = {(module, target.split(".")[0])
              for _, module, target in TRACER.FUNCTIONS if target is not None}
    unused = [f"{module}.{name}" for module, name, node in public_definitions()
              if everywhere[name] - referenced_names(node)[name] == 0
              and (module, name) not in traced and name not in UNUSED_KEPT]
    assert unused == []


def test_kept_names_still_exist():
    defined = {name for _, name, _ in public_definitions()}
    assert set(UNUSED_KEPT) <= defined


def is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def dataclass_fields():
    """(class, field) of every field a dataclass in the sources declares."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass,
                                                          node.decorator_list)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield node.name, stmt.target.id


def instance_attributes():
    """(class, attribute) of every `self.<name> = ...` in a class body, tuple
    targets included."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        yield node.name, sub.attr


def test_every_dataclass_field_is_read():
    read = {node.attr for path in SOURCES + TESTS
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted({f"{cls}.{name}" for cls, name in [*dataclass_fields(),
                                                         *instance_attributes()]
                     if name not in read})
    assert unread == []
