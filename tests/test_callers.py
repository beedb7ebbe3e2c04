"""Every function and class under ``src/spcrit/`` has a caller.

A name defined in the package must appear as a word somewhere in the
package or in the benchmark in ``perfbench/`` besides its own definition;
tests alone do not keep a name alive.  Dunder methods are called by the
language and are not checked.
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


def _definitions():
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", node.name


def test_every_definition_has_a_caller():
    texts = [path.read_text(encoding="utf-8") for path in SOURCES]
    uncalled = []
    for where, name in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        # one occurrence is the definition itself
        if sum(len(word.findall(text)) for text in texts) < 2 and name not in ALLOWED:
            uncalled.append(f"{where} {name}")
    assert uncalled == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_names_are_still_defined(name):
    # a deleted name leaves the allowlist too
    assert name in {defined for _, defined in _definitions()}
