"""What ``import spcrit`` loads.

scipy.integrate and scipy.optimize cost a large share of the package's
import time and memory and no library path needs them, so a fresh
interpreter must not load them for ``import spcrit``.
"""

import os
import subprocess
import sys
from pathlib import Path

import spcrit


def test_import_loads_no_scipy_integrate_or_optimize():
    code = (
        "import sys, spcrit; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(spcrit.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
