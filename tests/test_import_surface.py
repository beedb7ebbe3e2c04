"""What ``import spcrit`` and its scipy-free paths load.

scipy costs most of the package's import time and memory, and only the
``expm`` fallbacks for a near-defective generator and criterion 7's oracle
need it; the solver, the CLI and the whole Monte Carlo pipeline, its KS
p-values and normal CDF included, run without it.  Each check runs in a
fresh interpreter, since the test process has long since imported scipy.
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
from spcrit import acceptance, cli, loglaplace, moments, montecarlo, spectral
m1, m2 = acceptance.model_m1(), acceptance.model_m2()
sd1, sd2 = spectral.spectral_data(m1), spectral.spectral_data(m2)
spectral.fluctuation_variance(m2, sd2, [1.0, -1.0])
moments.variance_limit_check(m2, sd2, [1.0, -1.0], [5.0, 10.0, 15.0])
loglaplace.solve_log_laplace(m1, np.array([1.0]), 1.0)
loglaplace.kolmogorov_table(m2, sd2, [1.0, 0.0], [1.0, 10.0, 100.0])
loglaplace.yaglom_transform(m1, sd1, [1.0], [1.0], 1.0, 10.0)
codes = [cli.main(["spectral", "m2.json", "--out", "spectral.csv"])]
# the Monte Carlo calls of criterion 8, at t = 1 where most paths survive
cfg = montecarlo.SimConfig(t_end=1.0, dt=0.01, n_paths=3000, seed=5, n_threads=2)
ens1 = montecarlo.simulate_paths(m1, [1.0], cfg)
montecarlo.ks_exponential_test(montecarlo.conditional_statistics(ens1, sd1, sd1.phi0).v, 0.5)
ens2 = montecarlo.simulate_paths(m2, [1.0, 0.0], cfg)
samples = montecarlo.conditional_statistics(ens2, sd2, [1.0, -1.0])
montecarlo.clt_checks(samples, 2 ** -0.5, 2 ** -0.5)
codes.append(cli.main(["simulate", "m2.json", "--mu", "1,0", "--t", "1.0", "--dt", "0.01",
                       "--paths", "100", "--seed", "5", "--f", "1,-1", "--out", "sim.csv"]))
print(json.dumps([codes, {SCIPY_LOADED}]))
"""
    assert run_fresh(code, cwd=tmp_path) == [[0, 0], []]
    assert (tmp_path / "spectral.csv").read_text().startswith("quantity,value\n")
    assert (tmp_path / "sim.csv").read_text().startswith("path_id,survived,")


def test_spectral_data_loads_no_scipy_without_an_eigensystem():
    # the delta = 0 three-cycle has a Jordan block, so its record holds no
    # eigensystem; the eigen relations are still checked without expm
    code = f"""
from spcrit import model, spectral
cycle = model.SuperprocessModel(
    labels=("a", "b", "c"), m=[1.0, 2.0, 0.5],
    Q=[[-1.0, 1.0, 0.0], [0.0, -4.0, 4.0], [1.0, 0.0, -1.0]],
    beta=[1.0] * 3, a=[0.0] * 3, b=[1.0, 0.5, 2.0], jumps=([],) * 3,
)
sd = spectral.spectral_data(cycle)
print(json.dumps([model.derived_coefficients(cycle).eigensystem is None,
                  sd.is_critical, {SCIPY_LOADED}]))
"""
    assert run_fresh(code) == [True, True, []]


def test_monte_carlo_checks_keep_their_values_without_scipy():
    code = f"""
import numpy as np
from spcrit import acceptance, montecarlo, spectral
m2 = acceptance.model_m2()
sd = spectral.spectral_data(m2)
fv = spectral.fluctuation_variance(m2, sd, [1.0, -1.0])
rng = np.random.default_rng(7)
v = rng.exponential(0.7, 2000)
z = np.sqrt(v) * rng.normal(0.0, 1.2, 2000)
r = montecarlo.clt_checks(montecarlo.ConditionalSamples(v, z), 0.7, 1.44)
print(json.dumps([
    {SCIPY_LOADED}, fv,
    r.ks_product.statistic, r.ks_product.p_value,
    r.ks_ratio.statistic, r.ks_ratio.p_value, r.correlation,
]))
"""
    loaded, *values = run_fresh(code)
    assert loaded == []
    # sigma_f^2 of m2 is sqrt(2)/2; the rest are this seeded sample's KS
    # statistics, Kolmogorov p-values and correlation, as scipy.special's
    # kolmogorov and ndtr gave them
    expected = [0.7071067811865475, 0.0130285758137908, 0.8863816731643721,
                0.011178628655596004, 0.9639941689154631, -0.016128074369048423]
    assert values == pytest.approx(expected, rel=1e-12, abs=0)
