"""Set-up shared by every workload, and the probe that times it.

Set-up is what a caller pays before the first query: importing the
library, building the reference models m1 and m2, ``acceptance.warm_up()``
and their ``spectral_data``.  Run as a script, this module does the set-up
in a fresh interpreter and prints its duration in seconds; the benchmark
starts it several times and reports the median as ``setup_s``.

    python3 perfbench/bootstrap.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread, so it does not compete with simulation threads.

    Must run before numpy is imported; it changes only this process and the
    processes it starts.
    """
    for var in BLAS_PIN:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import ``spcrit`` from this checkout's ``src/``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "spcrit", "__init__.py")):
        raise SystemExit(f"perfbench: no library source at {SRC}/spcrit")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def load(with_reference: bool = True) -> SimpleNamespace:
    """Do the set-up and return what the workloads share."""
    use_checkout_source()
    import spcrit
    from spcrit import acceptance, spectral
    from spcrit.model import dump_model

    if os.path.dirname(os.path.abspath(spcrit.__file__)) != os.path.join(SRC, "spcrit"):
        raise SystemExit(f"perfbench: spcrit imported from {spcrit.__file__}, not {SRC}")
    m1 = acceptance.model_m1()
    m2 = acceptance.model_m2()
    acceptance.warm_up()
    env = SimpleNamespace(
        package=spcrit, m1=m1, m2=m2,
        sd1=spectral.spectral_data(m1), sd2=spectral.spectral_data(m2),
        dump_model=dump_model, reference=None, workdir=None,
    )
    if with_reference:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            env.reference = json.load(fh)
    return env


if __name__ == "__main__":
    pin_blas()
    start = time.perf_counter()
    load(with_reference=False)
    print(repr(time.perf_counter() - start))
