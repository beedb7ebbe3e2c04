import os

# one BLAS thread, as perfbench runs: on a shared machine OpenBLAS's default
# thread pool makes each small expm take milliseconds; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from spcrit import acceptance


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # pay first-call costs before any timed test
    acceptance.warm_up()


@pytest.fixture
def m1():
    return acceptance.model_m1()


@pytest.fixture
def m2():
    return acceptance.model_m2()


@pytest.fixture
def m3():
    return acceptance.model_m3()


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
