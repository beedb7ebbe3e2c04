import dataclasses
import math

import numpy as np
import pytest

from spcrit import acceptance, moments
from spcrit.model import ModelError, SuperprocessModel, derived_coefficients
from spcrit.moments import (
    first_moment,
    second_moment,
    variance,
    variance_from_transform,
    variance_limit_check,
)
from spcrit.spectral import (
    MeanSemigroup,
    _limit_gap,
    criticalize,
    fluctuation_variance,
    spectral_data,
)
from test_spectral import CHAIN_ORACLE, critical_chain, killed_birth_death_chain

INV_SQRT2 = 2.0 ** -0.5


def limit_deviation(model, sd, f, t) -> float:
    """max_x |Var_t - sigma_f^2 phi0| / phi0 from the cancellation-free
    ``_limit_gap``, as ``variance_limit_check`` reads it."""
    return float(np.abs(_limit_gap(model, sd, f, t) / sd.phi0).max())


def test_first_moment_conservative(m1):
    assert first_moment(m1, [1.0], 7.0, [1.0]) == pytest.approx(1.0, rel=1e-12)


def test_first_moment_eigen_decay(m2):
    got = first_moment(m2, [1.0, -1.0], 0.5, [1.0, 0.0])
    assert got == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_first_moment_linear_in_mu(m2):
    got = first_moment(m2, [1.0, 1.0], 2.0, [3.0, 0.0])
    assert got == pytest.approx(3.0, rel=1e-12)


def test_variance_flat_integrand(m1):
    # the semigroup is the identity and the variance factor is 1, so the
    # integral is just the elapsed time
    assert variance(m1, [1.0], 5.0, [1.0]) == pytest.approx(5.0, rel=1e-9)


def test_variance_at_time_zero(m1):
    assert variance(m1, [1.0], 0.0, [1.0]) == 0.0


def test_variance_eigen_reduction(m2):
    got = variance(m2, [1.0, -1.0], 1.0, [1.0, 0.0])
    expect = (1.0 - math.exp(-4.0)) / 2.0
    assert got == pytest.approx(expect, rel=1e-9)


def test_variance_block_fallback_agrees(m2, rng, force_expm):
    # the eigenmode closed forms and the block matrix exponentials used for
    # ill-conditioned eigenbases are two routes to the same quantities
    cases = [(m2, np.array([1.0, -1.0]), 1.0)]
    for _ in range(20):
        model = acceptance.random_model(rng)
        cases.append(
            (model, rng.normal(size=model.n_states), float(rng.uniform(0.1, 20.0)))
        )
    critical = [(m2, spectral_data(m2), np.array([1.0, -1.0]))]
    for _ in range(10):
        model = acceptance.random_model(
            rng, n_states=int(rng.integers(2, 5)), critical=True
        )
        sd = spectral_data(model)
        critical.append((model, sd, rng.normal(size=model.n_states)))
    dev_cases = [
        (m, sd, f - sd.psi_weight(f) * sd.phi0, t)
        for m, sd, f in critical
        for t in (2.5, 5.0, 15.0, 30.0)
    ]
    # matrix exponentials carry an absolute error of roundoff times their
    # norm, here ~e^{-gamma t} |f|^2; on m2 the deviation e^{-4t}/sqrt(2)
    # falls below that at t = 15 and 30
    floor = np.array(
        [1e-12 * math.exp(-sd.gamma * t) * float(f @ f) for _, sd, f, t in dev_cases]
    )

    by_modes = [moments._variance_profile(m, f, t) for m, f, t in cases]
    dev_modes = np.array([limit_deviation(*c) for c in dev_cases])
    expm_calls = force_expm()
    by_block = [moments._variance_profile(m, f, t) for m, f, t in cases]
    assert len(expm_calls) >= len(cases)
    expm_calls.clear()
    dev_block = np.array([limit_deviation(*c) for c in dev_cases])
    assert len(expm_calls) >= len(dev_cases)
    assert variance(m2, [1.0, -1.0], 1.0, [1.0, 0.0]) == pytest.approx(
        (1.0 - math.exp(-4.0)) / 2.0, rel=1e-9
    )
    for a, b in zip(by_modes, by_block):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12 * np.abs(b).max())
    assert np.all(np.abs(dev_block - dev_modes) <= 1e-10 * dev_modes + floor)


def test_stable_deviation_fallback_on_a_non_normal_chain(force_expm):
    # the killed birth-death chain with n = 6 and backward rate 1e-2 has
    # cond(VR) = 1.1e5; the block fallback, forced here, agrees with the
    # eigenmodes to 1.6e-8.  The agreement decays as the chain's scales
    # spread (1.1e-6 at rate 3e-3, 5.8e-4 at n = 8, a factor 25 at n = 12),
    # which is why the eigenbasis is tested after row equilibration and no
    # chain reaches the fallback
    model = criticalize(killed_birth_death_chain(6, 1e-2))
    sd = spectral_data(model)
    f = np.cos(np.arange(6.0))
    f = f - sd.psi_weight(f) * sd.phi0
    ts = np.array([3.0, 6.0, 9.0]) / sd.gamma
    by_modes = [limit_deviation(model, sd, f, t) for t in ts]
    expm_calls = force_expm()
    by_block = [limit_deviation(model, sd, f, t) for t in ts]
    assert len(expm_calls) >= len(ts)
    np.testing.assert_allclose(by_block, by_modes, rtol=1e-7)


@pytest.mark.parametrize("n, backward", list(CHAIN_ORACLE))
def test_stable_deviation_on_killed_birth_death_chains(n, backward):
    # cond(VR) up to 1e22, all of it scale, which the row-equilibrated
    # eigenbasis takes out; the worst case is 9e-10 at (12, 1e-3), 9 / gamma
    model, sd, f = critical_chain(n, backward)
    ts = np.array([3.0, 6.0, 9.0]) / sd.gamma
    got = [limit_deviation(model, sd, f, t) for t in ts]
    np.testing.assert_allclose(got, CHAIN_ORACLE[n, backward][1], rtol=1e-8, atol=0)


@pytest.mark.parametrize("backward", [1e-2, 1e-3, 1e-4])
def test_variance_limit_check_on_ill_scaled_chains(backward):
    # the deviations were NaN on the two rarer chains, which the fit
    # dropped before reporting an infinite rate; they decay at 1.05-1.07 gamma
    model, sd, f = critical_chain(12, backward)
    report = variance_limit_check(model, sd, f, np.array([3.0, 6.0, 9.0]) / sd.gamma)
    assert report.fitted_rate == pytest.approx(sd.gamma, rel=0.1)


def test_fallback_at_an_exceptional_point():
    # Q has characteristic polynomial lambda (lambda + 3)^3 with one Jordan
    # block at -3, so no diagonal scaling conditions its eigenvectors: their
    # row-equilibrated cond is ~1e10 (a double defective eigenvalue, as on
    # the 3-cycle with rates 1, 4, 1, reaches only ~1e8).  The eigen route
    # forced onto it is off by 3e4 in sigma_f^2 and by 1e12 in the profile.
    # The pinned values are the mean of the eigen route with Q[0][1] (and
    # -Q[0][0]) set to 1 +- 1e-30, in mpmath at 110 digits; at 1 +- 1e-24
    # and 80 digits they agree to 1e-34.  sigma_f^2, the variance profile of
    # the raw f at t = 1, and the stable deviations at t = 2 and 4.
    model = SuperprocessModel(
        labels=("a", "b", "c", "d"), m=[1.0, 2.0, 0.5, 1.5],
        Q=[[-2.0, 1.0, 1.0, 0.0], [1.0, -4.0, 3.0, 0.0], [0.0, 0.0, -1.0, 1.0],
           [0.0, 2.0, 0.0, -2.0]],
        beta=[1.0] * 4, a=[0.0] * 4, b=[1.0, 0.5, 2.0, 1.0], jumps=([],) * 4,
    )
    assert derived_coefficients(model).eigensystem is None
    sd = spectral_data(model)
    f = np.array([1.0, -0.3, 0.7, 0.2])
    f_tilde = f - sd.psi_weight(f) * sd.phi0
    got = [
        fluctuation_variance(model, sd, f_tilde),
        *moments._variance_profile(model, f, 1.0),
        limit_deviation(model, sd, f_tilde, 2.0),
        limit_deviation(model, sd, f_tilde, 4.0),
    ]
    oracle = [0.1420572861425792, 0.8167132235259316, 0.7265910074534229,
              0.8006305570735777, 0.5144627487952588, 0.00578784617646584,
              5.628483151848599e-05]
    np.testing.assert_allclose(got, oracle, rtol=1e-11, atol=0)


def test_variance_limit_rejects_a_non_finite_deviation(m2, monkeypatch):
    # a NaN deviation must stop the check, not drop out of the fit
    monkeypatch.setattr(moments, "_limit_gap", lambda *args: np.full(2, math.nan))
    with pytest.raises(moments.VarianceDecayError, match="t = 5.0"):
        variance_limit_check(m2, spectral_data(m2), [1.0, -1.0], [5.0, 10.0])


def test_moments_past_the_double_range_are_named(rng):
    # lambda0 near 1.4e12: exp(t L) overflows at t = 2, and the closed
    # forms gave nan with overflow warnings; a short time still answers
    base = acceptance.random_model(np.random.default_rng(3), 3, critical=True)
    model = dataclasses.replace(base, a=np.r_[1e12, base.a[1:]])
    f, mu = [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]
    for name, moment in (("mean", moments.first_moment), ("variance", moments.variance)):
        with pytest.raises(ModelError, match=rf"^the {name} of <f, X_t> at t = 2 overflows"):
            moment(model, f, 2.0, mu)
        assert math.isfinite(moment(model, f, 1e-12, mu))


def test_variance_negative_time_rejected(m1):
    with pytest.raises(ValueError):
        variance(m1, [1.0], -1.0, [1.0])


def test_second_moment_identity(m2, rng):
    for _ in range(5):
        model = acceptance.random_model(rng)
        f = rng.uniform(0.2, 1.2, model.n_states)
        mu = rng.uniform(0.1, 1.0, model.n_states)
        t = float(rng.uniform(0.3, 2.0))
        mean = first_moment(model, f, t, mu)
        assert second_moment(model, f, t, mu) == pytest.approx(
            variance(model, f, t, mu) + mean * mean, rel=1e-12
        )


def test_variance_matches_transform_oracle(m1, m2, rng):
    cases = [
        (m1, np.array([1.0]), np.array([1.0]), 2.0),
        (m2, np.array([0.7, 1.3]), np.array([1.0, 0.5]), 1.0),
    ]
    for _ in range(5):
        model = acceptance.random_model(rng)
        cases.append(
            (
                model,
                rng.uniform(0.1, 1.5, model.n_states),
                rng.uniform(0.1, 1.5, model.n_states),
                float(rng.uniform(0.3, 2.0)),
            )
        )
    for model, f, mu, t in cases:
        var_q = variance(model, f, t, mu)
        var_fd = variance_from_transform(model, f, t, mu)
        assert abs(var_q - var_fd) <= 1e-4 * max(abs(var_q), 1.0)


def test_variance_additive_in_mu(m2):
    f = [1.0, -1.0]
    v_a = variance(m2, f, 1.5, [1.0, 0.0])
    v_b = variance(m2, f, 1.5, [0.0, 2.0])
    v_ab = variance(m2, f, 1.5, [1.0, 2.0])
    assert v_ab == pytest.approx(v_a + v_b, rel=1e-10)


def test_variance_a_priori_bound(rng):
    for _ in range(50):
        model = acceptance.random_model(rng)
        f = rng.normal(size=model.n_states)
        t = float(rng.uniform(0.1, 5.0))
        mu = rng.uniform(0.1, 1.0, model.n_states)
        val = variance(model, f, t, mu)
        kb = derived_coefficients(model).kbound
        cap = math.exp(kb * t) * first_moment(model, f * f, t, mu)
        assert val <= cap * (1 + 1e-6) + 1e-9


def test_variance_above_its_a_priori_bound_raises(m2, monkeypatch):
    # the closed forms never break the bound, so a profile above it is
    # planted; the error names the variance and the bound
    f, t, mu = np.array([1.0, -1.0]), 1.0, np.array([1.0, 0.0])
    kbound = derived_coefficients(m2).kbound
    cap = math.exp(kbound * t) * first_moment(m2, f * f, t, mu)
    monkeypatch.setattr(moments, "_variance_profile", lambda *args: np.full(2, 2.0 * cap))
    with pytest.raises(moments.QuadratureError) as exc:
        variance(m2, f, t, mu)
    assert str(exc.value) == (
        f"variance {2.0 * cap:.6e} exceeds its a priori bound {cap:.6e}"
    )


def test_variance_limit_m2(m2):
    sd = spectral_data(m2)
    report = variance_limit_check(m2, sd, [1.0, -1.0], [5.0, 10.0, 15.0])
    assert report.sigma_sq == pytest.approx(INV_SQRT2, abs=1e-8)
    # closed form: deviation/phi0 = e^{-4t}/sqrt(2), down to float noise
    assert report.rows[0].stable_deviation == pytest.approx(
        math.exp(-20.0) / math.sqrt(2.0), rel=1e-6
    )
    assert report.fitted_rate == pytest.approx(4.0, rel=1e-3)
    assert report.rate_ok
    # raw arithmetic saturates around the quadrature tolerance, still tiny
    assert report.rows[-1].max_rel_deviation < 1e-8


def test_variance_limit_zero_field(m2):
    sd = spectral_data(m2)
    report = variance_limit_check(m2, sd, [0.0, 0.0], [5.0, 10.0])
    assert all(r.stable_deviation == 0.0 for r in report.rows)
    assert math.isinf(report.fitted_rate)


def test_variance_limit_preconditions(m2):
    sd = spectral_data(m2)
    with pytest.raises(ValueError, match="psi0-weight"):
        variance_limit_check(m2, sd, [1.0, 1.0], [5.0])
    with pytest.raises(ValueError, match="t_grid"):
        variance_limit_check(m2, sd, [1.0, -1.0], [1.0, 5.0])


@pytest.mark.parametrize(
    "grid", [[], [5.0], [5.0, 5.0]], ids=["empty", "one-time", "repeated-time"]
)
def test_variance_limit_needs_two_times(m2, grid):
    # one distinct time fits no decay rate; it must pass neither as an
    # infinite one nor as the slope of a line through one point repeated
    with pytest.raises(ModelError, match=r"at least two times that differ, got t_grid = \["):
        variance_limit_check(m2, spectral_data(m2), [1.0, -1.0], grid)


def test_variance_limit_fit_skips_repeated_times(m2):
    # the deviation at t = 400 underflows to 0 and leaves the fit, so the
    # two fitted points share one time and give no rate
    report = variance_limit_check(m2, spectral_data(m2), [1.0, -1.0], [5.0, 5.0, 400.0])
    assert report.rows[-1].stable_deviation == 0.0
    assert math.isinf(report.fitted_rate)


def test_variance_limit_convergence_toward_profile(m2, rng):
    # at moderate t the raw deviation is still above noise and must agree
    # with the closed form e^{-4t}/sqrt(2)
    sd = spectral_data(m2)
    report = variance_limit_check(m2, sd, [1.0, -1.0], [2.5, 3.5, 4.5])
    for row in report.rows:
        expect = math.exp(-4.0 * row.t) / math.sqrt(2.0)
        assert row.max_rel_deviation == pytest.approx(expect, rel=1e-3, abs=1e-9)
    # on random critical models the cancellation-free deviation equals the
    # raw one wherever the raw difference stands far above float noise
    compared = 0
    for _ in range(20):
        model = acceptance.random_model(
            rng, n_states=int(rng.integers(2, 5)), critical=True
        )
        sd = spectral_data(model)
        f = rng.normal(size=model.n_states)
        f = f - sd.psi_weight(f) * sd.phi0
        sigma_sq = fluctuation_variance(model, sd, f)
        for t in np.array([0.5, 1.0, 2.0, 4.0]) / sd.gamma:
            profile = moments._variance_profile(model, f, t)
            raw = float(np.abs((profile - sigma_sq * sd.phi0) / sd.phi0).max())
            if raw < 1e-6 * sigma_sq:
                continue
            compared += 1
            assert limit_deviation(model, sd, f, t) == pytest.approx(
                raw, rel=1e-8
            )
    assert compared >= 40


def test_profile_matches_semigroup_mean(m2):
    # statewise variance from unit masses assembles the mu-variance
    f = np.array([0.3, 1.1])
    t = 1.2
    v0 = variance(m2, f, t, [1.0, 0.0])
    v1 = variance(m2, f, t, [0.0, 1.0])
    vmix = variance(m2, f, t, [0.25, 0.5])
    assert vmix == pytest.approx(0.25 * v0 + 0.5 * v1, rel=1e-10)


def test_first_moment_is_semigroup_pairing(m2, rng):
    sg = MeanSemigroup(m2)
    for _ in range(5):
        f = rng.normal(size=2)
        mu = rng.uniform(0.0, 2.0, 2)
        t = float(rng.uniform(0.0, 3.0))
        assert first_moment(m2, f, t, mu) == pytest.approx(
            float(np.dot(sg.matrix(t) @ f, mu)), rel=1e-12, abs=1e-12
        )
