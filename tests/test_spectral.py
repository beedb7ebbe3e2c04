import dataclasses
import math

import numpy as np
import pytest

from spcrit import acceptance
from spcrit.model import (
    SuperprocessModel,
    derived_coefficients,
    m_inner,
)
from spcrit.spectral import (
    MeanSemigroup,
    NotCriticalError,
    _variance_profile,
    criticalize,
    fit_expansion_constant,
    fluctuation_variance,
    nu,
    remove_principal_component,
    require_critical,
    spectral_data,
)

INV_SQRT2 = 2.0 ** -0.5


def with_linear_coefficient(model, a):
    return dataclasses.replace(model, a=a)


# ---------------------------------------------------------------------------
# mean semigroup

def test_semigroup_identity_action(m1):
    np.testing.assert_allclose(MeanSemigroup(m1).matrix(3.0) @ [1.0], [1.0])


def test_semigroup_eigenvector_decay(m2):
    # (1, -1) is an eigenvector of the flip generator with eigenvalue -2
    got = MeanSemigroup(m2).matrix(0.5) @ np.array([1.0, -1.0])
    np.testing.assert_allclose(got, math.exp(-1.0) * np.array([1.0, -1.0]),
                               rtol=1e-12)


def test_semigroup_preserves_constants(m2):
    got = MeanSemigroup(m2).matrix(0.5) @ np.array([1.0, 1.0])
    np.testing.assert_allclose(got, [1.0, 1.0], rtol=1e-12)


def test_semigroup_rejects_negative_time(m2):
    with pytest.raises(ValueError):
        MeanSemigroup(m2).matrix(-0.1)


def test_semigroup_property_and_positivity(rng, monkeypatch):
    for _ in range(10):
        model = acceptance.random_model(rng)
        sg = MeanSemigroup(model)
        s, t = rng.uniform(0.1, 3.0, 2)
        np.testing.assert_allclose(
            sg.matrix(s) @ sg.matrix(t), sg.matrix(s + t), atol=1e-10, rtol=1e-10
        )
        f = rng.uniform(0.0, 2.0, model.n_states)
        assert np.all(sg.apply(t, f) >= -1e-14)

        # a time grid gives the stack of per-time matrices, through the
        # eigenbasis and through the Pade fallback alike
        ts = np.concatenate(([0.0], rng.uniform(0.0, 10.0, 6)))
        stacks = []
        for pade in (False, True):
            with monkeypatch.context() as mp:
                if pade:
                    mp.setattr(MeanSemigroup, "eigensystem", property(lambda self: None))
                stack = sg.matrix(ts)
                assert stack.shape == (ts.size, model.n_states, model.n_states)
                np.testing.assert_array_equal(stack[0], np.eye(model.n_states))
                for k, tk in enumerate(ts):
                    np.testing.assert_allclose(
                        stack[k], sg.matrix(tk), rtol=1e-13, atol=1e-15
                    )
                np.testing.assert_allclose(
                    sg.apply(ts, f), stack @ f, rtol=1e-13, atol=1e-15
                )
                stacks.append(stack)
        np.testing.assert_allclose(stacks[0], stacks[1], rtol=1e-10, atol=1e-12)
        with pytest.raises(ValueError, match="-0.5"):
            sg.matrix(np.array([1.0, -0.5, -2.0]))
        with pytest.raises(ValueError, match="nan"):
            sg.matrix(np.array([1.0, np.nan]))


def test_duality_in_the_weighted_inner_product(rng):
    for _ in range(10):
        model = acceptance.random_model(rng)
        sg = MeanSemigroup(model)
        t = float(rng.uniform(0.1, 4.0))
        f = rng.normal(size=model.n_states)
        g = rng.normal(size=model.n_states)
        lhs = m_inner(sg.apply(t, f), g, model.m)
        rhs = m_inner(f, sg.dual_apply(t, g), model.m)
        assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


# ---------------------------------------------------------------------------
# density

def test_density_m1(m1):
    np.testing.assert_allclose(MeanSemigroup(m1).density(1.0), [[1.0]])


def test_density_two_state_heat_kernel(m2):
    # closed form for the symmetric flip: (1 +/- e^{-2t})/2
    q = MeanSemigroup(m2).density(1.0)
    assert q[0, 0] == pytest.approx((1 + math.exp(-2)) / 2, rel=1e-12)
    assert q[0, 1] == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-12)


def test_density_comparability(m2, rng):
    import scipy.linalg as sla

    models = [m2] + [acceptance.random_model(rng) for _ in range(10)]
    for model in models:
        kb = derived_coefficients(model).kbound
        ts = np.array([0.1, 1.0, 5.0])
        for t, p in zip(ts, sla.expm(ts[:, None, None] * model.Q) / model.m):
            q = MeanSemigroup(model).density(t)
            assert np.all(q >= math.exp(-kb * t) * p - 1e-12)
            assert np.all(q <= math.exp(kb * t) * p + 1e-12)


def test_density_rejects_nonpositive_time(m2):
    with pytest.raises(ValueError):
        MeanSemigroup(m2).density(0.0)


# ---------------------------------------------------------------------------
# principal eigendata

def test_spectral_data_m1(m1):
    sd = spectral_data(m1)
    assert sd.lambda0 == pytest.approx(0.0, abs=1e-14)
    assert math.isinf(sd.gamma)
    np.testing.assert_allclose(sd.phi0, [1.0])
    np.testing.assert_allclose(sd.psi0, [1.0])
    assert fit_expansion_constant(m1, sd) == 0.0


def test_spectral_data_m2(m2):
    sd = spectral_data(m2)
    assert sd.lambda0 == pytest.approx(0.0, abs=1e-14)
    assert sd.gamma == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(sd.phi0, [INV_SQRT2, INV_SQRT2], rtol=1e-12)
    np.testing.assert_allclose(sd.psi0, [INV_SQRT2, INV_SQRT2], rtol=1e-12)
    # the deviation is (1/2) e^{-2t} in every entry, so the constant is 1
    assert fit_expansion_constant(m2, sd) == pytest.approx(1.0, abs=1e-12)


def test_spectral_shift_moves_only_lambda(m2):
    shifted = with_linear_coefficient(m2, [0.3, 0.3])
    sd = spectral_data(shifted)
    assert sd.lambda0 == pytest.approx(0.3, rel=1e-12)
    assert sd.gamma == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(sd.phi0, [INV_SQRT2, INV_SQRT2], rtol=1e-12)


def test_normalizations_on_random_models(rng):
    for _ in range(20):
        model = acceptance.random_model(rng)
        sd = spectral_data(model)
        assert m_inner(sd.phi0, sd.phi0, model.m) == pytest.approx(1.0, abs=1e-12)
        assert m_inner(sd.phi0, sd.psi0, model.m) == pytest.approx(1.0, abs=1e-12)
        assert np.all(sd.phi0 > 0) and np.all(sd.psi0 > 0)
        sg = MeanSemigroup(model)
        np.testing.assert_allclose(
            sg.apply(1.0, sd.phi0), math.exp(sd.lambda0) * sd.phi0, rtol=1e-10
        )
        np.testing.assert_allclose(
            sg.dual_apply(1.0, sd.psi0), math.exp(sd.lambda0) * sd.psi0, rtol=1e-10
        )


def test_left_vector_matches_lapack_left_eigenvector(m1, m2, m3):
    # psi0 from the stationary law of the Doob transform against LAPACK's
    # left eigenvector of L at the principal eigenvalue
    import scipy.linalg

    rng = np.random.default_rng(20260419)
    models = [m1, m2, m3] + [
        acceptance.random_model(rng, n_states=int(rng.integers(1, 9)))
        for _ in range(200)
    ]
    for model in models:
        sd = spectral_data(model)
        w, vl = scipy.linalg.eig(derived_coefficients(model).L, left=True, right=False)
        left = vl[:, np.argmax(w.real)].real / model.m
        psi_ref = left / m_inner(sd.phi0, left, model.m)
        np.testing.assert_allclose(sd.psi0, psi_ref, rtol=1e-12, atol=0)


def killed_birth_death_chain(n, backward):
    """Unit-weight chain stepping up at rate 1 and down at ``backward``;
    every state loses 1 + backward, so both ends are killed.  Its
    eigenvectors grow ill-conditioned fast in n / backward."""
    Q = np.diag(np.ones(n - 1), 1) + backward * np.diag(np.ones(n - 1), -1)
    np.fill_diagonal(Q, -1.0 - backward)
    return SuperprocessModel(
        labels=tuple(f"s{i}" for i in range(n)), m=np.ones(n), Q=Q,
        beta=np.ones(n), a=np.zeros(n), b=np.ones(n), jumps=((),) * n,
    )


@pytest.mark.parametrize("n", [6, 8, 12])
@pytest.mark.parametrize("backward", [1e-2, 1e-3, 1e-4])
def test_spectral_data_on_killed_birth_death_chains(n, backward):
    # non-normal generators, cond(VR) 1e5 to 1e22, all of it scale: with its
    # rows scaled to unit norm VR has cond 2.1 to 4.3, so every chain keeps
    # its eigensystem; spectral_data checks both eigen relations to 1e-10
    model = killed_birth_death_chain(n, backward)
    sd = spectral_data(model)
    assert np.all(sd.phi0 > 0) and np.all(sd.psi0 > 0)
    assert derived_coefficients(model).eigensystem is not None


def three_cycle(delta):
    """The 3-cycle with rates 1, 4 + delta, 1: at delta = 0 its generator
    has characteristic polynomial lambda (lambda + 3)^2 with one Jordan
    block, and its row-equilibrated cond grows like 1 / sqrt(|delta|)."""
    return SuperprocessModel(
        labels=("a", "b", "c"), m=[1.0, 2.0, 0.5],
        Q=[[-1.0, 1.0, 0.0], [0.0, -4.0 - delta, 4.0 + delta], [1.0, 0.0, -1.0]],
        beta=[1.0] * 3, a=[0.0] * 3, b=[1.0, 0.5, 2.0], jumps=([],) * 3,
    )


@pytest.mark.parametrize("delta", [
    0.0, 3e-15, 1e-14, 1e-13, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5,
    1e-4, 1e-2, -1e-12, -1e-9, -1e-6,
])
def test_near_exceptional_point_takes_an_accurate_route(delta, force_expm):
    # with a cond limit of 1e8 spectral_data failed its 1e-10 eigen relation
    # check for delta = 0 ... 1e-12 (cond 9.3e7 ... 3.0e6); at 1e5 it passed,
    # but sigma_f^2 was 4e-7 off and the variance profile 1e-3 at delta = 1e-9
    # (cond 9.5e4), where the fallback agrees with mpmath to 1e-14
    model = three_cycle(delta)
    f = np.array([1.0, -0.3, 0.7])
    sd = spectral_data(model)
    f_tilde = remove_principal_component(f, sd)
    got = [fluctuation_variance(model, sd, f_tilde), *_variance_profile(model, f, 1.0)]
    expm_calls = force_expm()
    by_expm = [fluctuation_variance(model, sd, f_tilde)]
    assert len(expm_calls) > 0
    expm_calls.clear()
    by_expm.extend(_variance_profile(model, f, 1.0))
    assert len(expm_calls) > 0
    np.testing.assert_allclose(got, by_expm, rtol=1e-8, atol=0)


# (n, backward): sigma_f^2 and the stable deviations at t = 3, 6 and 9 / gamma
# of criticalize(killed_birth_death_chain(n, backward)) with f = cos(k),
# k = 0..n-1, minus its psi0 part, t the float k / gamma.  Computed with
# mpmath at 60 digits, and checked to 50 digits at 90: mp.eig of the float
# L, whose entries mpmath holds exactly, psi0 from the principal row of the
# inverse, sigma_f^2 = sum_{i,j != p} K_ij g_i g_j / -(w_i + w_j) with
# K = V^T diag(avar psi0 m) V and g = V^{-1} f, and the variance profile
# from its mode integrals (e^{(w_i + w_j) t} - e^{w_k t}) / (w_i + w_j - w_k)
# minus sigma_f^2 phi0, the cancellation absorbed by the precision.
CHAIN_ORACLE = {
    (6, 1e-2): (3419081.6844752743, (1941674.271509537, 85446.35594476445, 4193.040905899312)),
    (6, 1e-3): (1776167070875.3809, (1053888260917.3997, 45072088727.03556, 2209698190.1404567)),
    (6, 1e-4): (6.109141391229216e+17, (3.748402882370849e+17, 1.5859790362552156e+16, 777030187002820.4)),
    (8, 1e-2): (227140038164.66476, (138305530429.99167, 5755140913.166849, 282120726.44218475)),
    (8, 1e-3): (3.7581976462366484e+18, (2.7085273418968765e+18, 1.0693324029655138e+17, 5219204922317491.0)),
    (8, 1e-4): (9.563427872804307e+25, (7.316601343075589e+25, 2.8307235094318094e+24, 1.3792269726763325e+23)),
    (12, 1e-2): (7.775943444137592e+16, (5.895049996802977e+16, 2222840330899913.5, 108321441978050.0)),
    (12, 1e-3): (1.1504229393153584e+27, (1.0081449221742925e+27, 3.5391173439426277e+25, 1.7148276726315902e+24)),
    (12, 1e-4): (1.8515866043188642e+37, (1.6747146097237345e+37, 5.7496164375476486e+35, 2.7813593815713364e+34)),
}


def critical_chain(n, backward):
    """The criticalized chain, its spectral data and the field of
    ``CHAIN_ORACLE``."""
    model = criticalize(killed_birth_death_chain(n, backward))
    sd = spectral_data(model)
    return model, sd, remove_principal_component(np.cos(np.arange(float(n))), sd)


@pytest.mark.parametrize("n, backward", list(CHAIN_ORACLE))
def test_fluctuation_variance_on_killed_birth_death_chains(n, backward):
    # the closed form on the row-equilibrated eigenbasis; a deflated
    # Lyapunov solve returned 37x too little at (12, 1e-3) and a negative
    # value at (12, 1e-4)
    model, sd, f = critical_chain(n, backward)
    got = fluctuation_variance(model, sd, f)
    assert got == pytest.approx(CHAIN_ORACLE[n, backward][0], rel=1e-10)


def test_expansion_bound_holds_on_the_grid(m2, rng):
    for model in (m2, acceptance.random_model(rng, n_states=3, critical=True)):
        sd = spectral_data(model)
        c = fit_expansion_constant(model, sd)
        assert math.isfinite(c)
        grid = np.geomspace(1.0, 40.0, 33)
        sg = MeanSemigroup(model)
        rank_one = np.outer(sd.phi0, sd.psi0)
        # dev below is formed by subtraction, so it carries an absolute
        # roundoff of about eps * max(q); with the exact constant, m2's
        # bound near t = 10.4 falls inside it
        floor = 1e-13 * rank_one.max()
        for t in grid:
            dev = np.abs(sg.density(t) * math.exp(-sd.lambda0 * t) - rank_one)
            bound = c * math.exp(-sd.gamma * t) * rank_one
            assert np.all(dev <= bound * (1 + 1e-9) + floor)


def test_expansion_fit_fallback_agrees(m2, rng, monkeypatch):
    # the deflated-expm route against the eigenmode route
    models = [m2] + [
        acceptance.random_model(rng, n_states=int(rng.integers(2, 5)), critical=True)
        for _ in range(20)
    ]
    cases = [(model, spectral_data(model)) for model in models]

    def fits():
        return np.array([fit_expansion_constant(model, sd) for model, sd in cases])

    by_modes = fits()
    monkeypatch.setattr(MeanSemigroup, "eigensystem", property(lambda self: None))
    by_expm = fits()
    assert by_modes[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(by_expm, by_modes, rtol=1e-10)


def test_mean_convergence_bound(rng):
    # the kernel expansion bound integrates to the field-level bound
    for _ in range(5):
        model = acceptance.random_model(rng, critical=True)
        sd = spectral_data(model)
        if not math.isfinite(sd.gamma):
            continue
        c = fit_expansion_constant(model, sd)
        sg = MeanSemigroup(model)
        f = rng.normal(size=model.n_states)
        weight = m_inner(f, sd.psi0, model.m)
        abs_weight = m_inner(np.abs(f), sd.psi0, model.m)
        for t in (1.0, 3.0, 10.0):
            dev = np.abs(sg.apply(t, f) - weight * sd.phi0)
            bound = c * math.exp(-sd.gamma * t) * abs_weight * sd.phi0
            assert np.all(dev <= bound * (1 + 1e-6) + 1e-12)


# ---------------------------------------------------------------------------
# criticalize

def test_criticalize_shift(m2):
    model = with_linear_coefficient(m2, [0.3, 0.3])
    flat = criticalize(model)
    np.testing.assert_allclose(flat.a, [0.0, 0.0], atol=1e-14)
    assert abs(spectral_data(flat).lambda0) <= 1e-12


def test_criticalize_is_a_fixed_point(m1):
    assert criticalize(m1) is m1


def test_criticalize_asymmetric(m2):
    model = with_linear_coefficient(m2, [0.2, -0.2])
    assert abs(spectral_data(criticalize(model)).lambda0) <= 1e-12


@pytest.mark.parametrize("scale", [1e4, 1e5, 1e6])
def test_criticalize_holds_large_rates_to_the_critical_tolerance(scale):
    # the residual eigenvalue after the shift is roundoff of order
    # scale * 1e-16, far above 1e-12 at these rates; criticalize must
    # succeed exactly when its result passes require_critical
    for seed in range(10):
        raw = acceptance.random_model(np.random.default_rng(seed), 3)
        model = dataclasses.replace(raw, Q=raw.Q * scale, a=raw.a * scale)
        require_critical(spectral_data(criticalize(model)))


def test_eigendata_and_criticalize_do_not_fit_the_expansion(m2, rng, monkeypatch):
    # only the callers that print or check the expansion constant fit it
    def refuse(*args, **kwargs):
        raise AssertionError("expansion constant fitted")

    monkeypatch.setattr("spcrit.spectral.fit_expansion_constant", refuse)
    for raw in (with_linear_coefficient(m2, [0.3, 0.3]), acceptance.random_model(rng)):
        sd = spectral_data(criticalize(raw))
        assert sd.is_critical
        assert not hasattr(sd, "c_expansion")


def test_criticalize_needs_positive_beta(m2):
    model = dataclasses.replace(m2, beta=[1.0, 0.0], a=[0.5, 0.5])
    with pytest.raises(ValueError, match="beta"):
        criticalize(model)


# ---------------------------------------------------------------------------
# constants

def test_nu_values(m1, m2, m3):
    assert nu(m1, spectral_data(m1)) == pytest.approx(0.5, rel=1e-14)
    assert nu(m2, spectral_data(m2)) == pytest.approx(INV_SQRT2, abs=1e-10)
    assert nu(m3, spectral_data(m3)) == pytest.approx(0.5, rel=1e-14)


def test_nu_requires_critical(m2):
    model = with_linear_coefficient(m2, [0.3, 0.3])
    with pytest.raises(NotCriticalError):
        nu(model, spectral_data(model))


def test_projection_examples(m2):
    sd = spectral_data(m2)
    np.testing.assert_allclose(
        remove_principal_component(np.array([1.0, -1.0]), sd), [1.0, -1.0],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        remove_principal_component(np.array([1.0, 1.0]), sd), [0.0, 0.0],
        atol=1e-14,
    )
    # weight of (2, 0) against psi0 is sqrt(2), so sqrt(2)*phi0 = (1, 1) drops
    np.testing.assert_allclose(
        remove_principal_component(np.array([2.0, 0.0]), sd), [1.0, -1.0],
        atol=1e-12,
    )


def test_projection_annihilates_weight_and_is_idempotent(rng):
    for _ in range(20):
        model = acceptance.random_model(rng, critical=True)
        sd = spectral_data(model)
        f = rng.normal(size=model.n_states) * 3.0
        ft = remove_principal_component(f, sd)
        assert abs(m_inner(ft, sd.psi0, model.m)) <= 1e-12 * max(1, np.abs(f).max())
        np.testing.assert_allclose(
            remove_principal_component(ft, sd), ft, atol=1e-12
        )


def test_fluctuation_variance_m2(m2):
    sd = spectral_data(m2)
    got = fluctuation_variance(m2, sd, np.array([1.0, -1.0]))
    assert got == pytest.approx(INV_SQRT2, abs=1e-8)


def test_fluctuation_variance_zero_field(m2):
    sd = spectral_data(m2)
    assert fluctuation_variance(m2, sd, np.zeros(2)) == 0.0


def test_fluctuation_variance_precondition(m2):
    sd = spectral_data(m2)
    with pytest.raises(ValueError, match="psi0-weight"):
        fluctuation_variance(m2, sd, np.array([1.0, 1.0]))


def test_fluctuation_variance_is_profile_limit(m2, rng):
    # the closed form against the psi0-weight of the finite-t variance
    # profile, whose gap to the limit is e^{-80} at t = 40/gamma
    cases = [(m2, np.array([1.0, -1.0]))]
    for _ in range(20):
        model = acceptance.random_model(
            rng, n_states=int(rng.integers(2, 5)), critical=True
        )
        sd = spectral_data(model)
        cases.append(
            (model, remove_principal_component(rng.normal(size=model.n_states), sd))
        )
    for model, f in cases:
        sd = spectral_data(model)
        profile = _variance_profile(model, f, 40.0 / sd.gamma)
        assert fluctuation_variance(model, sd, f) == pytest.approx(
            sd.psi_weight(profile), rel=1e-10
        )


def test_one_eigendecomposition_per_model(monkeypatch):
    # the derived record is built once per model and every layer reads it
    from spcrit import loglaplace, moments

    base = acceptance.random_model(np.random.default_rng(3), n_states=3, critical=True)
    model = dataclasses.replace(base)
    calls = {"eig": 0, "adaptive": 0}
    real_eig, real_adaptive = np.linalg.eig, loglaplace._adaptive

    def eig(*args, **kwargs):
        calls["eig"] += 1
        return real_eig(*args, **kwargs)

    def adaptive(*args):
        calls["adaptive"] += 1
        return real_adaptive(*args)

    monkeypatch.setattr(np.linalg, "eig", eig)
    monkeypatch.setattr(loglaplace, "_adaptive", adaptive)
    mu = np.array([1.0, 0.5, 0.2])
    g = np.array([0.5, 1.0, 0.2])
    sd = spectral_data(model)
    nu(model, sd)
    f = remove_principal_component(np.array([1.0, -0.5, 0.2]), sd)
    fluctuation_variance(model, sd, f)
    moments.variance_limit_check(model, sd, f, [5.0, 10.0, 15.0])
    loglaplace.solve_log_laplace(model, g, 2.0)
    moments.variance(model, f, 2.0, mu)
    moments.variance_from_transform(model, g, 2.0, mu)
    calls["adaptive"] = 0
    loglaplace.kolmogorov_table(model, sd, mu, [10.0, 100.0])
    assert calls == {"eig": 1, "adaptive": 1}


def test_fit_expansion_constant_refinement_stays_bounded(m2):
    sd = spectral_data(m2)
    dense = fit_expansion_constant(m2, sd, t_grid=np.geomspace(1.0, 40.0, 2049))
    assert dense <= fit_expansion_constant(m2, sd) * 1.10
