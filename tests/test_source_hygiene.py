"""Import and API hygiene of the package sources, checked on their syntax trees.

Every name a module imports must be used in it, and no module may import a
private (underscore) name from another module: a private helper that two
modules need belongs behind a public name. Every public module-level
function and class, and every public method and property of a class, is
used: referenced in the sources outside its own definition, wrapped by the
benchmark's tracer, or kept on purpose (UNUSED_KEPT); a traced definition
with no reference is listed with the ROADMAP item that retires it
(TRACED_ONLY). Every module-level function and every method, private ones
included, is entered when the golden battery runs, or is listed with the
reason it is not (TRACED_ONLY, UNUSED_KEPT and UNREACHED_KEPT): a match by
bare name cannot tell two definitions of one name apart, a run can.
Every defaulted parameter of a public module-level function or public
method is set by some call in the sources, a method's by a call of its name.
Every module-level constant is read in the sources. Every dataclass field is
read on an instance of its own class when the golden battery runs, or named
by a test or by a definition the battery need not enter; every attribute a
method sets on self is read as an attribute in the sources or the tests.
No handler catches Exception, BaseException or everything: an error that is
not the package's propagates with its own type and message.
"""

import ast
import contextlib
import functools
import importlib
import io
import re
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from morphoscope import cli

from test_golden_fingerprints import BATTERY, run_case
from test_tracer_targets import TRACER

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "morphoscope").glob("*.py"))
# the tests, less this file, whose syntax-tree walks read attributes of their own
TESTS = sorted(p for p in Path(__file__).resolve().parent.glob("*.py")
               if p.name != Path(__file__).name)

# public names (Class.method for a method) no command calls, each kept for
# a stated reason
UNUSED_KEPT = {
    "fiber_mean_curvature": "certifies minimal singular fibres (ROADMAP item 4)",
    "isolated_extension": "certifies the isolated-center extension in rate (ROADMAP item 5)",
    "SymbolCandidate.coefficients": "the symbol's holomorphic coefficients, which tests "
                                    "check against hand-derived values",
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


# tracer targets that nothing in the sources references, each with the
# ROADMAP item that retires it; a change that leaves another traced
# definition without a caller lists it here
TRACED_ONLY = {
    "curvature_data": "tracer-only shim (ROADMAP item 9)",
    "covariant_derivative": "tracer-only shim and the tests' Richardson reference (ROADMAP item 9)",
    "classify_point": "tracer-only shim (ROADMAP item 9)",
    "hwc_residual": "tracer-only shim (ROADMAP item 9)",
    "hermitian_pair": "tracer-only shim (ROADMAP item 9)",
    "weingarten_matrix": "tracer-only shim (ROADMAP item 9)",
    "nabla_J_norms": "tracer-only shim (ROADMAP item 9)",
    "surface_lift": "the stack of one, a tracer-only shim (ROADMAP item 9)",
    "ordered_map": "the tracer's fan-out point, no longer called (ROADMAP items 1 and 9)",
    "orthonormalize": "the tests' independent frame reference, no longer called (ROADMAP item 1)",
}


def unreferenced_definitions() -> list:
    """(module, name, traced) of every public module-level definition that
    the sources reference nowhere outside its own definition; traced says
    whether the benchmark's tracer wraps it."""
    everywhere = Counter()
    for path in SOURCES:
        everywhere.update(referenced_names(ast.parse(path.read_text())))
    traced = {(module, target.split(".")[0])
              for _, module, target in TRACER.FUNCTIONS if target is not None}
    return [(module, name, (module, name) in traced)
            for module, name, node in public_definitions()
            if everywhere[name] - referenced_names(node)[name] == 0]


def test_every_public_definition_is_used():
    unused = [f"{module}.{name}" for module, name, traced in unreferenced_definitions()
              if not traced and name not in UNUSED_KEPT]
    assert unused == []


def test_traced_only_definitions_are_listed():
    assert {name for _, name, traced in unreferenced_definitions() if traced} == set(TRACED_ONLY)


def public_methods():
    """(module, class, name, node) of every public method and property of
    every class the sources define at module level."""
    for path in SOURCES:
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield path.stem, cls.name, node.name, node


def test_every_public_method_is_used():
    everywhere = Counter()
    for path in SOURCES:
        everywhere.update(referenced_names(ast.parse(path.read_text())))
    traced = {(module, *target.split(".")) for _, module, target in TRACER.FUNCTIONS
              if target is not None and "." in target}
    # the chart metric methods the tracer wraps in every ChartMetric class
    metric_methods = {method for methods in TRACER.METRIC_METHODS.values() for method in methods}
    unused = [f"{module}.{cls}.{name}" for module, cls, name, node in public_methods()
              if everywhere[name] - referenced_names(node)[name] == 0
              and (module, cls, name) not in traced
              and not (module == "geometry" and name in metric_methods)
              and f"{cls}.{name}" not in UNUSED_KEPT]
    assert unused == []


def test_kept_names_still_exist():
    defined = {name for _, name, _ in public_definitions()}
    defined |= {f"{cls}.{name}" for _, cls, name, _ in public_methods()}
    assert set(UNUSED_KEPT) <= defined


# definitions (Class.method for a method) that the golden battery never
# enters, beyond TRACED_ONLY and UNUSED_KEPT, each for a stated reason
UNREACHED_KEPT = {
    "christoffel": "traced; the Christoffel term of covariant_derivative",
    "ChartMetric.matrix_checked": "traced (ROADMAP item 1 retires it)",
    "splitting": "tracer-only shim, named like GeometryStack.splitting (ROADMAP item 9)",
    "tension_norm": "tracer-only shim, named like GeometryStack.tension_norm "
                    "(ROADMAP item 9)",
    "central_nodes": "the stencil of covariant_derivative, the tests' Richardson reference",
    "central_difference": "the stencil of covariant_derivative, the tests' Richardson "
                          "reference",
    "NormalChart.to_original": "reached only through isolated_extension (ROADMAP item 5)",
    "NonIsolatedCriticalError.__init__": "raised only by isolated_extension (ROADMAP item 5)",
    "_fail": "config's error paths; every config of the battery is valid",
    "_form": "runs once, when structures is imported",
    "Poly.eval": "traced; the tests' bitwise reference for evaluate_orders",
}


def all_definitions():
    """(module, qualified name, syntax tree) of every module-level function
    and every method of a module-level class, private ones included."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield path.stem, f"{node.name}.{sub.name}", sub


def recording(cls, read: set):
    """A __getattribute__ for cls that adds (type, name) of each read to read."""
    original = cls.__getattribute__

    def getattribute(self, name):
        read.add((type(self), name))
        return original(self, name)
    return getattribute


@functools.cache
def battery_run() -> tuple:
    """(entered, read) of a run of the golden battery in this process:
    (module, qualified name) of every package function it enters, and
    (type, attribute name) of every attribute it reads on an instance of a
    dataclass of the sources."""
    root = str(SOURCES[0].parent)
    entered, read = set(), set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root):
            entered.add((Path(code.co_filename).stem, code.co_qualname))

    # a parser built by an earlier test would hide the parser's builder
    cli._parser.cache_clear()
    classes = [cls for cls, _ in source_dataclasses()]
    own = [cls.__dict__.get("__getattribute__") for cls in classes]
    previous = sys.getprofile(), threading.getprofile()
    for cls in classes:
        cls.__getattribute__ = recording(cls, read)
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for case in sorted(BATTERY):
                run_case(*BATTERY[case])
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
        for cls, method in zip(classes, own):
            if method is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = method
    return entered, read


def test_every_definition_is_reached_by_the_battery():
    kept = set(TRACED_ONLY) | set(UNUSED_KEPT) | set(UNREACHED_KEPT)
    entered, _ = battery_run()
    unreached = [f"{module}.{name}" for module, name, _ in all_definitions()
                 if (module, name) not in entered and name not in kept]
    assert unreached == []
    # and every name listed for it is still defined and still unreached
    defined = {name for _, name, _ in all_definitions()}
    assert set(UNREACHED_KEPT) <= defined
    assert not {name for _, name in entered} & set(UNREACHED_KEPT)


# defaulted parameters no source call sets, each kept for a stated reason
DEFAULTS_KEPT = {
    ("main", "argv"): "tests and the benchmark call the command line in-process",
}


def source_calls() -> dict:
    """Every call in the sources, by the name of the function or method called."""
    calls = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def sets_parameter(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether call passes the parameter: by keyword, by position (None for a
    keyword-only one) or through *args or **kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(arg, ast.Starred) for arg in call.args))


def defaulted_parameters(node: ast.FunctionDef, shift: int):
    """(position or None, name) of every parameter with a default, the
    position counted after the first shift parameters."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for k, arg in enumerate(positional[first:], start=first):
        yield k - shift, arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def public_callables():
    """(module, name, node, shift) of every public module-level function and
    every public method (Class.method), where shift counts the leading
    parameters a call does not pass: self or cls, none for a static method."""
    for module, name, node in public_definitions():
        if isinstance(node, ast.FunctionDef):
            yield module, name, node, 0
    for module, cls, name, node in public_methods():
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        yield module, f"{cls}.{name}", node, 0 if static else 1


def test_every_defaulted_parameter_is_set():
    traced = {(module, target) for _, module, target in TRACER.FUNCTIONS
              if target is not None}
    calls = source_calls()
    # a method is matched by the calls of its own name
    unset = [f"{module}.{name}({param})"
             for module, name, node, shift in public_callables()
             if (module, name) not in traced and name not in UNUSED_KEPT
             for position, param in defaulted_parameters(node, shift)
             if (name, param) not in DEFAULTS_KEPT
             and not any(sets_parameter(call, position, param)
                         for call in calls.get(name.split(".")[-1], []))]
    assert unset == []


def test_kept_defaults_still_exist():
    defined = {(name, param) for _, name, node, shift in public_callables()
               for _, param in defaulted_parameters(node, shift)}
    assert set(DEFAULTS_KEPT) <= defined


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_constants():
    """(module, name) of every upper-case name a module assigns at its top level."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and CONSTANT.fullmatch(sub.id):
                        yield path.stem, sub.id


def test_every_module_constant_is_read():
    read = Counter()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[node.id] += 1
            elif isinstance(node, ast.Attribute):
                read[node.attr] += 1
    unread = [f"{module}.{name}" for module, name in module_constants() if read[name] == 0]
    assert unread == []


def is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def source_dataclasses():
    """(class, syntax tree) of every dataclass the sources define at module level."""
    for path in SOURCES:
        module = importlib.import_module(f"morphoscope.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass,
                                                          node.decorator_list)):
                yield getattr(module, node.name), node


def dataclass_fields():
    """(class, field) of every field a dataclass in the sources declares."""
    for cls, node in source_dataclasses():
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield cls, stmt.target.id


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


def loaded_attributes(nodes) -> set:
    """Names of the attributes read under any of nodes."""
    return {sub.attr for node in nodes for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # a field is read on an instance of its own class when the battery runs,
    # or named by a test or by a definition the battery need not enter; an
    # attribute set on self is read when the sources or the tests name it
    _, read = battery_run()
    kept = set(TRACED_ONLY) | set(UNUSED_KEPT) | set(UNREACHED_KEPT)
    named = loaded_attributes([*(ast.parse(path.read_text()) for path in TESTS),
                               *(node for _, name, node in all_definitions()
                                 if name in kept)])
    everywhere = loaded_attributes(ast.parse(path.read_text()) for path in SOURCES + TESTS)
    unread = sorted({*(f"{cls.__name__}.{name}" for cls, name in dataclass_fields()
                       if name not in named
                       and not any(attr == name and issubclass(kind, cls)
                                   for kind, attr in read)),
                     *(f"{cls}.{name}" for cls, name in instance_attributes()
                       if name not in everywhere)})
    assert unread == []


BROAD = {"Exception", "BaseException"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_handler_catches_every_error(path):
    broad = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ExceptHandler)
             and (node.type is None
                  or any(isinstance(sub, ast.Name) and sub.id in BROAD
                         for sub in ast.walk(node.type)))]
    assert broad == []
