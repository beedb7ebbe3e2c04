"""What ``import spcrit`` and its scipy-free paths load.

scipy costs most of the package's import time and memory, and only the
fallbacks for a near-defective generator and the Monte Carlo p-values
need it.  Each check runs in a fresh interpreter, since the test process
has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spcrit
from spcrit import acceptance
from spcrit.model import dump_model

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(code: str, cwd=None):
    """Run ``code`` after ``import sys, json, spcrit`` in a new interpreter
    and return the JSON it prints on its last line."""
    env = {**os.environ, "PYTHONPATH": str(Path(spcrit.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, json, spcrit\n" + code],
        capture_output=True, text=True, check=True, env=env, cwd=cwd, timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert run_fresh(f"print(json.dumps({SCIPY_LOADED}))") == []


def test_solver_and_cli_paths_load_no_scipy(tmp_path):
    (tmp_path / "m2.json").write_text(dump_model(acceptance.model_m2()))
    code = f"""
import numpy as np
from spcrit import acceptance, cli, loglaplace, moments, spectral
m1, m2 = acceptance.model_m1(), acceptance.model_m2()
sd1, sd2 = spectral.spectral_data(m1), spectral.spectral_data(m2)
spectral.fluctuation_variance(m2, sd2, [1.0, -1.0])
moments.variance_limit_check(m2, sd2, [1.0, -1.0], [5.0, 10.0, 15.0])
loglaplace.solve_log_laplace(m1, np.array([1.0]), 1.0)
loglaplace.kolmogorov_table(m2, sd2, [1.0, 0.0], [1.0, 10.0, 100.0])
loglaplace.yaglom_transform(m1, sd1, [1.0], [1.0], 1.0, 10.0)
code = cli.main(["spectral", "m2.json", "--out", "spectral.csv"])
print(json.dumps([code, {SCIPY_LOADED}]))
"""
    assert run_fresh(code, cwd=tmp_path) == [0, []]
    assert (tmp_path / "spectral.csv").read_text().startswith("quantity,value\n")


def test_scipy_paths_load_scipy_and_keep_their_values():
    code = f"""
import numpy as np
from spcrit import acceptance, montecarlo, spectral
m2 = acceptance.model_m2()
sd = spectral.spectral_data(m2)
fv = spectral.fluctuation_variance(m2, sd, [1.0, -1.0])
rng = np.random.default_rng(7)
v = rng.exponential(0.7, 2000)
z = np.sqrt(v) * rng.normal(0.0, 1.2, 2000)
r = montecarlo.clt_checks(montecarlo.ConditionalSamples(v, z, 2000, 100000), 0.7, 1.44)
print(json.dumps([
    "scipy.special" in sys.modules, fv,
    r.ks_product.statistic, r.ks_product.p_value,
    r.ks_ratio.statistic, r.ks_ratio.p_value, r.correlation,
]))
"""
    special, *values = run_fresh(code)
    assert special
    # sigma_f^2 of m2 is sqrt(2)/2; the rest are this seeded sample's KS
    # statistics, Kolmogorov p-values and correlation
    expected = [0.7071067811865475, 0.0130285758137908, 0.8863816731643721,
                0.011178628655596004, 0.9639941689154631, -0.016128074369048423]
    assert values == pytest.approx(expected, rel=1e-12, abs=0)
