"""Every function, class and dataclass field under ``src/spcrit/`` has a caller.

A name defined in the package must appear as a word somewhere in the
package or in the benchmark in ``perfbench/`` besides its own definition;
tests alone do not keep a name alive.  Dunder methods are called by the
language and are not checked.

A dataclass field must be read as an attribute, ``x.field`` in a load,
somewhere in the package or the benchmark.  That check is a floor, not a
proof: it matches attribute names, not the class they are read on, so a
field named like another attribute that is read (``dt`` or ``seed`` on a
config and on a result, say) passes whether or not anything reads it on
the result.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "spcrit").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# names kept without a caller in the package or the benchmark
ALLOWED = {
    "model_m3",  # the one-state jump reference model, which only the tests build
}

# dataclass fields kept without a reader in the package or the benchmark:
# the step report of a solve, which ROADMAP aim 4 (observability) asks for
ALLOWED_FIELDS = {"StepMeta.dt_max", "StepMeta.dt_min", "StepMeta.n_rejected"}


def _trees():
    for path in PACKAGE:
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _definitions():
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", node.name


def _is_dataclass(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def _fields():
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield f"{path.name}:{stmt.lineno}", f"{node.name}.{stmt.target.id}"


def test_every_definition_has_a_caller():
    texts = [path.read_text(encoding="utf-8") for path in SOURCES]
    uncalled = []
    for where, name in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        # one occurrence is the definition itself
        if sum(len(word.findall(text)) for text in texts) < 2 and name not in ALLOWED:
            uncalled.append(f"{where} {name}")
    assert uncalled == []


def test_every_dataclass_field_is_read():
    reads = {
        node.attr
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{where} {field}"
        for where, field in _fields()
        if field.split(".")[1] not in reads and field not in ALLOWED_FIELDS
    ]
    assert unread == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_names_are_still_defined(name):
    # a deleted name leaves the allowlist too
    assert name in {defined for _, defined in _definitions()}


@pytest.mark.parametrize("field", sorted(ALLOWED_FIELDS))
def test_allowed_fields_are_still_defined(field):
    assert field in {defined for _, defined in _fields()}
