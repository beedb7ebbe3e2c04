"""The library names and signatures that the benchmark in perfbench/ calls.

perfbench traces the library by rebinding the attributes listed in its
``tracing.TARGETS`` and reads a few more names directly, so renaming or
deleting any of them breaks the benchmark without failing another test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from spcrit import _kernels, moments

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span, target", sorted(_targets().items()))
def test_every_traced_target_resolves(span, target):
    module, attr = target
    assert callable(getattr(importlib.import_module(f"spcrit.{module}"), attr))


def test_names_the_benchmark_reads():
    # the tracer reads the step count as the 8th positional argument
    assert list(inspect.signature(_kernels.rk4_evolve).parameters)[7] == "n_steps"
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert "rtol" in inspect.signature(moments.variance).parameters
