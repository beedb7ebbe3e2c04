import dataclasses
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


@pytest.fixture
def force_expm(monkeypatch):
    """A call that forces the matrix-exponential fallback and returns a list
    whose length counts the ``scipy.linalg.expm`` calls made after it, so a
    test can show that a forced branch ran and did not read the eigensystem
    by another way.  The fallback is forced as it arises: every derived
    record that ``spectral`` reads carries no eigensystem.  The patches go
    on ``mp``, the test's monkeypatch unless given."""
    import scipy.linalg

    from spcrit import spectral

    def force(mp=monkeypatch):
        calls = []
        real_expm = scipy.linalg.expm
        real_record = spectral.derived_coefficients

        def expm(*args, **kwargs):
            calls.append(None)
            return real_expm(*args, **kwargs)

        mp.setattr(scipy.linalg, "expm", expm)
        mp.setattr(
            spectral, "derived_coefficients",
            lambda model: dataclasses.replace(real_record(model), eigensystem=None),
        )
        return calls

    return force
