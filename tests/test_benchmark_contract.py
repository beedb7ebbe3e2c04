"""The library names and signatures that the benchmark in perfbench/ calls.

perfbench traces the library by rebinding the attributes listed in its
``tracing.TARGETS``, reads a few more names directly and checks its queries
through attributes of the returned results, so renaming or deleting any of
them breaks the benchmark without failing another test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from spcrit import _kernels, acceptance, cli, loglaplace, moments, montecarlo, spectral
from spcrit.model import dump_model, load_model

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


def _reads(obj, *names):
    for name in names:
        assert getattr(obj, name) is not None, name


def test_result_attributes_the_benchmark_reads(m1, m2):
    assert callable(acceptance.warm_up) and callable(cli.main)
    rng = np.random.default_rng(3)
    raw = load_model(dump_model(acceptance.random_model(rng, n_states=3)))
    f = acceptance.random_field(rng, 3)
    model = spectral.criticalize(raw)
    sd = spectral.spectral_data(model)
    _reads(sd, "is_critical", "lambda0", "phi0")
    spectral.fluctuation_variance(model, sd, spectral.remove_principal_component(f, sd))
    assert acceptance.random_field(rng, 3, nonneg=True).min() >= 0

    traj = loglaplace.solve_log_laplace(m1, [1.0], 1.0)
    _reads(traj, "final")
    _reads(traj.step_meta, "n_steps_fine", "rel_discrepancy")
    sd2 = spectral.spectral_data(m2)
    kol = loglaplace.kolmogorov_table(m2, sd2, [1.0, 0.0], [10.0])
    _reads(kol, "limit")
    _reads(kol.rows[0], "t", "p_survival", "t_times_p")
    sd1 = spectral.spectral_data(m1)
    _reads(loglaplace.yaglom_transform(m1, sd1, [1.0], sd1.phi0, 1.0, 10.0), "value")
    vlc = moments.variance_limit_check(m2, sd2, [1.0, -1.0], [5.0, 10.0])
    _reads(vlc, "fitted_rate")
    _reads(vlc.rows[-1], "t", "var_profile", "limit_profile")

    cfg = montecarlo.SimConfig(t_end=1.0, dt=0.05, n_paths=2000, seed=1, n_threads=1)
    _reads(cfg, "n_steps")
    ens = montecarlo.simulate_paths(m2, [1.0, 0.0], cfg, sd=sd2)
    _reads(ens, "survival_fraction", "survived", "n_paths", "states_at_t")
    samples = montecarlo.conditional_statistics(ens, sd2, np.array([1.0, -1.0]))
    _reads(samples, "v", "z2_mean")
    _reads(montecarlo.ks_exponential_test(samples.v, 1.0), "p_value")
    clt = montecarlo.clt_checks(samples, 2.0 ** -0.5, 2.0 ** -0.5)
    _reads(clt, "ks_product", "ks_ratio", "independence_ok", "correlation")
    _reads(clt.ks_product, "p_value")
    _reads(clt.ks_ratio, "p_value")
