import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from spcrit import acceptance, moments
from spcrit.loglaplace import (
    TOL_ODE,
    LadderError,
    SolverError,
    _check_mean_domination,
    branching_mechanism,
    kolmogorov_table,
    mechanism_field,
    mechanism_remainders,
    neg_log_extinction,
    nu_slope_estimate,
    remainder_field,
    remainder_identity,
    solve_log_laplace,
    survival_probability,
    yaglom_transform,
)
from spcrit.model import check_dual_submarkov, derived_coefficients
from spcrit.spectral import MeanSemigroup, fit_expansion_constant, spectral_data


def riccati(theta: float, b: float, t: float) -> float:
    """Closed form for a single conservative state with b z^2 mechanism."""
    return theta / (1.0 + b * theta * t)


# ---------------------------------------------------------------------------
# mechanism

def test_mechanism_pure_quadratic(m1):
    assert branching_mechanism(m1, 0, 2.0) == pytest.approx(2.0, rel=1e-15)


def test_mechanism_single_atom(m3):
    assert branching_mechanism(m3, 0, 1.0) == pytest.approx(math.exp(-1.0),
                                                            rel=1e-14)


def test_mechanism_vanishes_at_zero(m1, m2, m3):
    for model in (m1, m2, m3):
        for x in range(model.n_states):
            assert branching_mechanism(model, x, 0.0) == 0.0


@pytest.mark.parametrize("z", [1e-9, 1e-6, 1e-3])
def test_jump_term_keeps_its_digits_at_small_argument(m3, z):
    # e^{-z} - 1 + z by its Taylor series, summed far past double precision
    series = sum((-z) ** k / math.factorial(k) for k in range(2, 12))
    assert branching_mechanism(m3, 0, z) == pytest.approx(series, rel=1e-12, abs=0)


def test_kernel_jump_part_matches_mechanism_field(m3):
    # m3 is one state with one atom and no drift, so its field is all jump
    from spcrit import _kernels

    dc = derived_coefficients(m3)
    u = np.array([[1e-9]])
    zero = np.zeros(1)
    kernel = -_kernels._rhs_numpy(np.zeros((1, 1)), zero, zero, dc.jump_y, dc.jump_w, u)
    field = mechanism_field(m3, u[0])
    assert field[0] == pytest.approx(0.5e-18 - 1e-27 / 6.0, rel=1e-12, abs=0)
    # expm1(-z) + z has an absolute error of about 1e-16 * z
    np.testing.assert_allclose(kernel[0], field, rtol=1e-6)


def test_mechanism_rejects_negative_argument(m1, m2):
    with pytest.raises(ValueError):
        branching_mechanism(m1, 0, -0.1)
    with pytest.raises(ValueError):
        mechanism_remainders(m1, 0, -1.0)
    with pytest.raises(ValueError, match=r"-1.0 at state 1"):
        mechanism_field(m2, [0.5, -1.0])
    with pytest.raises(ValueError, match=r"-1.0 at state 0"):
        remainder_field(m2, [-1.0, 0.5])


def test_remainders_single_atom(m3):
    r, r2, ec = mechanism_remainders(m3, 0, 1.0)
    assert r == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert r2 == pytest.approx(math.exp(-1.0) - 0.5, rel=1e-12)
    assert ec == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert abs(r2) <= ec * 1.0 ** 2


def test_remainders_quadratic_saturates_bound(m1):
    r, r2, ec = mechanism_remainders(m1, 0, 3.0)
    assert r == pytest.approx(4.5, rel=1e-15)   # equals kbound z^2 / 2
    assert r2 == 0.0
    assert ec == 0.0


def test_remainders_zero(m2):
    assert mechanism_remainders(m2, 1, 0.0) == (0.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(z=st.floats(min_value=0.0, max_value=50.0))
def test_remainder_bounds_single_atom_model(z):
    m3 = acceptance.model_m3()
    kb = derived_coefficients(m3).kbound
    r, r2, ec = mechanism_remainders(m3, 0, z)
    assert -1e-12 <= r <= 0.5 * kb * z * z + 1e-12
    assert abs(r2) <= ec * z * z + 1e-12


def test_remainder_bounds_randomized(rng):
    for _ in range(300):
        model = acceptance.random_model(rng)
        kb = derived_coefficients(model).kbound
        x = int(rng.integers(model.n_states))
        z = float(rng.uniform(0.0, 8.0))
        r, r2, ec = mechanism_remainders(model, x, z)
        assert -1e-12 <= r <= 0.5 * kb * z * z + 1e-12
        assert abs(r2) <= ec * z * z + 1e-12


# ---------------------------------------------------------------------------
# solver

def test_riccati_closed_form(m1):
    traj = solve_log_laplace(m1, [1.0], 2.0)
    assert traj.final[0] == pytest.approx(riccati(1.0, 0.5, 2.0), rel=1e-9)
    assert traj.t_grid[0] == 0.0
    np.testing.assert_allclose(traj.u_values[0], [1.0])


def test_zero_initial_field_stays_zero(m1):
    traj = solve_log_laplace(m1, [0.0], 5.0)
    assert np.all(traj.u_values == 0.0)


def test_symmetric_two_state_reduces_to_scalar(m2):
    traj = solve_log_laplace(m2, [1.0, 1.0], 1.0)
    np.testing.assert_allclose(traj.final, [0.5, 0.5], rtol=1e-9)


def test_solver_rejects_bad_inputs(m1):
    with pytest.raises(ValueError):
        solve_log_laplace(m1, [-1.0], 1.0)
    with pytest.raises(ValueError):
        solve_log_laplace(m1, [1.0], 0.0)
    for horizon in (math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            solve_log_laplace(m1, [1.0], horizon)


_TIME_ENTRY_POINTS = {
    "solve_log_laplace": lambda m, sd, t: solve_log_laplace(m, [1.0, 1.0], t),
    "neg_log_extinction": lambda m, sd, t: neg_log_extinction(m, t),
    "survival_probability": lambda m, sd, t: survival_probability(m, [1.0, 0.0], t),
    "yaglom_transform": lambda m, sd, t: yaglom_transform(
        m, sd, [1.0, 0.0], [1.0, 1.0], 1.0, t
    ),
    "nu_slope_estimate": lambda m, sd, t: nu_slope_estimate(m, sd, [1.0, 0.0], t, 5),
    "first_moment": lambda m, sd, t: moments.first_moment(
        m, [1.0, -1.0], t, [1.0, 0.0]
    ),
    "variance": lambda m, sd, t: moments.variance(m, [1.0, -1.0], t, [1.0, 0.0]),
    "second_moment": lambda m, sd, t: moments.second_moment(
        m, [1.0, -1.0], t, [1.0, 0.0]
    ),
    "variance_from_transform": lambda m, sd, t: moments.variance_from_transform(
        m, [1.0, 1.0], t, [1.0, 0.0]
    ),
    "variance_limit_check": lambda m, sd, t: moments.variance_limit_check(
        m, sd, [1.0, -1.0], [5.0, t]
    ),
    "matrix": lambda m, sd, t: MeanSemigroup(m).matrix(t),
    "density": lambda m, sd, t: MeanSemigroup(m).density(t),
    "check_dual_submarkov": lambda m, sd, t: check_dual_submarkov(m, [1.0, t]),
    "fit_expansion_constant": lambda m, sd, t: fit_expansion_constant(
        m, sd, t_grid=[1.0, t]
    ),
    "kolmogorov_table": lambda m, sd, t: kolmogorov_table(m, sd, [1.0, 0.0], [10.0, t]),
}


@pytest.mark.parametrize(
    "bad", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"]
)
@pytest.mark.parametrize("entry", sorted(_TIME_ENTRY_POINTS))
def test_time_arguments_reject_nan_and_negative(m2, entry, bad):
    # a NaN time fails every comparison, so only checks written as
    # "not t >= 0" stop it before it reaches the solver or the quadrature
    sd = spectral_data(m2)
    with pytest.raises(ValueError, match=str(bad)):
        _TIME_ENTRY_POINTS[entry](m2, sd, bad)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda m, sd: yaglom_transform(m, sd, [1.0, 0.0], [1.0, 1.0], math.inf, 5.0),
         "lambda"),
        (lambda m, sd: yaglom_transform(m, sd, [1.0, 0.0], [1.0, 1.0], math.nan, 5.0),
         "lambda"),
        (lambda m, sd: yaglom_transform(m, sd, [1.0, 0.0], [1.0, 1.0], -1.0, 5.0),
         "lambda .* -1"),
        (lambda m, sd: yaglom_transform(m, sd, [1.0, 0.0], [-1.0, 1.0], 1.0, 5.0),
         r"f\[0\] = -1"),
        (lambda m, sd: moments.variance_from_transform(m, [1.0, -0.5], 2.0, [1.0, 0.0]),
         r"f\[1\] = -0.5"),
        (lambda m, sd: nu_slope_estimate(m, sd, [1.0, 0.0], 0.5, 2.5), "n must"),
        (lambda m, sd: nu_slope_estimate(m, sd, [1.0, 0.0], 0.5, 0), "n must"),
    ],
    ids=["yaglom-lambda-inf", "yaglom-lambda-nan", "yaglom-lambda-negative",
         "yaglom-field-negative", "transform-field-negative", "slope-n-fraction",
         "slope-n-zero"],
)
def test_scalar_arguments_rejected_by_name(m2, call, name):
    with pytest.raises(ValueError, match=name):
        call(m2, spectral_data(m2))


def test_solution_dominated_by_mean(m2, rng):
    sg = MeanSemigroup(m2)
    for _ in range(5):
        f0 = rng.uniform(0.0, 2.0, 2)
        if not f0.any():
            continue
        traj = solve_log_laplace(m2, f0, 2.0)
        for k in range(0, len(traj.t_grid), max(1, len(traj.t_grid) // 8)):
            t = traj.t_grid[k]
            mean = sg.apply(float(t), f0)
            assert np.all(traj.u_values[k] <= mean + 1e-8)
            assert np.all(traj.u_values[k] >= -1e-12)


def test_mean_domination_check_names_first_offending_time(m2):
    f0 = np.array([1.0, 0.5])
    t_grid = np.linspace(0.0, 2.0, 33)
    sg = MeanSemigroup(m2)
    mean = sg.apply(t_grid, f0)
    bound = np.exp(derived_coefficients(m2).kbound * t_grid)[:, None] * sg.apply(
        t_grid, f0 * f0
    )
    _check_mean_domination(m2, t_grid, mean, f0)  # gap 0 passes both checks

    above = mean.copy()
    above[[10, 20]] += 1e-3
    with pytest.raises(SolverError, match=rf"mean-semigroup bound at t={t_grid[10]:g} "):
        _check_mean_domination(m2, t_grid, above, f0)

    low = mean.copy()
    low[3:] -= 2.0 * bound[3:] + 1.0
    with pytest.raises(SolverError, match=rf"second-moment bound at t={t_grid[3]:g}$"):
        _check_mean_domination(m2, t_grid, low, f0)

    # the earliest offender wins whichever check it fails
    mixed = mean.copy()
    mixed[[7, 25]] = low[[7, 25]]
    mixed[12] += 1e-3
    with pytest.raises(SolverError, match=rf"second-moment bound at t={t_grid[7]:g}$"):
        _check_mean_domination(m2, t_grid, mixed, f0)
    mixed[5] += 1e-3
    with pytest.raises(SolverError, match=rf"mean-semigroup bound at t={t_grid[5]:g} "):
        _check_mean_domination(m2, t_grid, mixed, f0)
    # one time failing both checks (in different states) reports the first
    mixed[2, 0] = mean[2, 0] + 1e-3
    mixed[2, 1] = mean[2, 1] - 2.0 * bound[2, 1] - 1.0
    with pytest.raises(SolverError, match=rf"mean-semigroup bound at t={t_grid[2]:g} "):
        _check_mean_domination(m2, t_grid, mixed, f0)


def test_monotone_in_initial_level(m2, rng):
    for _ in range(5):
        t = float(rng.uniform(0.5, 3.0))
        lo = solve_log_laplace(m2, [0.5, 0.5], t).final
        hi = solve_log_laplace(m2, [1.5, 1.5], t).final
        assert np.all(hi >= lo - 1e-12)


def test_mass_deficit_identity(m2, rng):
    # both routes to the deficit: direct difference vs time quadrature
    for model in (m2, acceptance.random_model(rng, critical=True)):
        f0 = rng.uniform(0.2, 1.5, model.n_states)
        traj = solve_log_laplace(model, f0, 1.5)
        direct, integral = remainder_identity(model, traj)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.all(np.abs(direct - integral) <= 1e-6 * scale)
        # deficit bounds: between 0 and e^{Kt} T_t(f0^2)
        kb = derived_coefficients(model).kbound
        cap = math.exp(kb * 1.5) * MeanSemigroup(model).apply(1.5, f0 * f0)
        assert np.all(direct >= -1e-9)
        assert np.all(direct <= cap + 1e-9)


def test_remainder_identity_is_simpson_over_the_recorded_grid(m2, m3, rng):
    from scipy.integrate import simpson

    for model in (m2, m3, acceptance.random_model(rng, critical=True)):
        traj = solve_log_laplace(model, rng.uniform(0.2, 1.5, model.n_states), 1.5)
        t = traj.t_grid[-1]
        rem = np.array([remainder_field(model, np.maximum(u, 0.0)) for u in traj.u_values])
        vals = np.einsum("kxy,ky->kx", MeanSemigroup(model).matrix(t - traj.t_grid), rem)
        want = simpson(vals, x=traj.t_grid, axis=0)
        np.testing.assert_allclose(remainder_identity(model, traj)[1], want, rtol=1e-12)


# ---------------------------------------------------------------------------
# extinction and survival

def test_extinction_riccati_limit(m1):
    assert neg_log_extinction(m1, 4.0)[0] == pytest.approx(0.5, abs=1e-6)
    assert neg_log_extinction(m1, 100.0)[0] == pytest.approx(0.02, abs=1e-8)


def test_extinction_symmetric_two_state(m2):
    w = neg_log_extinction(m2, 10.0)
    np.testing.assert_allclose(w, [0.1, 0.1], atol=1e-6)


def test_extinction_warns_and_fails_without_grey(m3):
    # jump-only mechanism: no finite-time extinction, the ladder diverges;
    # the error names the time it failed at
    with pytest.warns(UserWarning, match="not certified"):
        with pytest.raises(LadderError, match="at t=4"):
            neg_log_extinction(m3, 4.0)


def test_extinction_probability_monotone_and_full(m1):
    # statewise extinction mass is nonincreasing in t and tends to 0
    grid = [1.0, 2.0, 5.0, 20.0, 200.0]
    ws = [neg_log_extinction(m1, t)[0] for t in grid]
    assert all(a >= b - 1e-12 for a, b in zip(ws, ws[1:]))
    assert math.exp(-ws[-1]) > 0.99   # q_t -> 1


def test_survival_probability_values(m1, m2):
    assert survival_probability(m1, [1.0], 200.0) == pytest.approx(
        -math.expm1(-0.01), abs=1e-9
    )
    assert survival_probability(m1, [2.0], 200.0) == pytest.approx(
        -math.expm1(-0.02), abs=1e-9
    )
    assert survival_probability(m2, [1.0, 0.0], 10.0) == pytest.approx(
        -math.expm1(-0.1), abs=1e-6
    )


def test_kolmogorov_table_m1(m1):
    sd = spectral_data(m1)
    report = kolmogorov_table(m1, sd, [1.0], [100.0, 1000.0])
    assert report.limit == pytest.approx(2.0, rel=1e-12)
    assert report.rows[0].t_times_p == pytest.approx(
        100 * -math.expm1(-0.02), abs=1e-6
    )
    assert report.rows[1].t_times_p == pytest.approx(
        1000 * -math.expm1(-0.002), abs=1e-5
    )
    assert report.survival_decreasing


def test_kolmogorov_table_m2(m2):
    sd = spectral_data(m2)
    report = kolmogorov_table(m2, sd, [1.0, 0.0], [1000.0])
    assert report.limit == pytest.approx(1.0, rel=1e-12)
    assert report.rows[0].t_times_p == pytest.approx(
        1000 * -math.expm1(-0.001), abs=1e-4
    )


def test_kolmogorov_grid_is_one_ladder_matching_per_time_survival(m2):
    rng = np.random.default_rng(20261018)
    models = [m2] + [
        acceptance.random_model(rng, n_states=int(rng.integers(2, 4)), critical=True)
        for _ in range(6)
    ]
    grid = [10.0, 100.0, 1000.0]
    for model in models:
        mu = rng.uniform(0.1, 1.0, model.n_states)
        rows = kolmogorov_table(model, spectral_data(model), mu, grid).rows
        per_time = [survival_probability(model, mu, t) for t in grid]
        # the first time ends on the same steps as its own ladder
        assert rows[0].p_survival == per_time[0]
        np.testing.assert_allclose(
            [row.p_survival for row in rows[1:]], per_time[1:], rtol=1e-9, atol=0
        )


def test_kolmogorov_grid_keeps_the_callers_order(m2):
    sd = spectral_data(m2)
    grid = [100.0, 10.0, 100.0, 30.0, 10.0]
    report = kolmogorov_table(m2, sd, [1.0, 0.0], grid)
    assert [row.t for row in report.rows] == grid
    assert report.rows[0] == report.rows[2] and report.rows[1] == report.rows[4]
    assert report.rows[1].p_survival == survival_probability(m2, [1.0, 0.0], 10.0)
    assert report.survival_decreasing
    repeated = kolmogorov_table(m2, sd, [1.0, 0.0], [10.0, 10.0, 10.0]).rows
    assert repeated[0] == repeated[1] == repeated[2] == report.rows[1]


# ---------------------------------------------------------------------------
# yaglom transform and slope

def riccati_limit(t: float) -> float:
    # theta -> infinity limit of the Riccati solution at b = 1/2
    return 2.0 / t


def test_yaglom_m1_finite_time(m1):
    sd = spectral_data(m1)
    res = yaglom_transform(m1, sd, [1.0], [1.0], 1.0, 100.0)
    oracle = 1.0 - (-math.expm1(-riccati(0.01, 0.5, 100.0))) / (
        -math.expm1(-riccati_limit(100.0))
    )
    assert res.value == pytest.approx(oracle, abs=1e-6)
    assert res.value == pytest.approx(0.66444, abs=1e-5)
    assert res.target == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_yaglom_degenerate_lambda(m1, m2):
    for model in (m1, m2):
        sd = spectral_data(model)
        mu = np.eye(model.n_states)[0]
        res = yaglom_transform(model, sd, mu, sd.phi0, 0.0, 5.0)
        assert res.value == 1.0 and res.target == 1.0


def test_yaglom_long_horizon(m1):
    sd = spectral_data(m1)
    res = yaglom_transform(m1, sd, [1.0], [1.0], 2.0, 1000.0)
    assert res.target == pytest.approx(0.5, rel=1e-12)
    assert res.value == pytest.approx(0.5, abs=1e-3)


def test_nu_slope_exact_for_quadratic(m1):
    sd = spectral_data(m1)
    # 1/u is linear in time for the pure quadratic mechanism, so the slope
    # equals nu at every horizon
    assert nu_slope_estimate(m1, sd, [1.0], 1.0, 1000) == pytest.approx(
        0.5, rel=1e-7
    )
    assert nu_slope_estimate(m1, sd, [2.0], 1.0, 10) == pytest.approx(
        0.5, rel=1e-9
    )


def test_nu_slope_two_state(m2):
    sd = spectral_data(m2)
    got = nu_slope_estimate(m2, sd, [1.0, 0.0], 1.0, 500)
    assert got == pytest.approx(2.0 ** -0.5, rel=0.01)


def test_nu_slope_preconditions(m2):
    sd = spectral_data(m2)
    with pytest.raises(ValueError):
        nu_slope_estimate(m2, sd, [1.0, 0.0], -1.0, 5)
    with pytest.raises(ValueError):
        nu_slope_estimate(m2, sd, [0.0, 0.0], 1.0, 5)


# ---------------------------------------------------------------------------
# shape of the solution at large times

def principal_profile_gap(sd, u: np.ndarray) -> float:
    """Sup-norm of u normalized by its rank-one principal profile, minus 1."""
    weight = sd.psi_weight(u)
    assert weight > 0, "profile gap needs a field with positive psi0-weight"
    return float(np.abs(u / (weight * sd.phi0) - 1.0).max())


def test_principal_profile_flattens(m2):
    sd = spectral_data(m2)
    t_lo, t_hi = 5.0 / sd.gamma, 50.0 / sd.gamma
    gap_lo = principal_profile_gap(sd, solve_log_laplace(m2, [2.0, 0.3], t_lo).final)
    gap_hi = principal_profile_gap(sd, solve_log_laplace(m2, [2.0, 0.3], t_hi).final)
    assert gap_hi <= gap_lo / 10.0


def test_remainder_field_matches_pointwise(m3):
    u = np.array([1.0])
    r, _, _ = mechanism_remainders(m3, 0, 1.0)
    np.testing.assert_allclose(remainder_field(m3, u), [r], rtol=1e-14)


def test_step_meta_bookkeeping(m1):
    traj = solve_log_laplace(m1, [1.0], 1.0)
    meta = traj.step_meta
    assert np.all(np.diff(traj.t_grid) > 0)
    assert traj.t_grid[-1] == 1.0
    assert meta.n_steps_fine == len(traj.t_grid) - 1
    assert meta.dt_fine <= meta.dt_coarse / 2
    assert meta.rel_discrepancy <= TOL_ODE


def _dop853_final(model, f0, T: float) -> np.ndarray:
    """Reference solve by Dormand-Prince 8(5,3) on the mechanism views.

    It shares neither the solver's right-hand side kernel nor its step
    control; both read the derived record's padded atoms, which
    test_model checks against the model's own atoms.
    """
    def rhs(t, u):
        return model.Q @ u - mechanism_field(model, np.maximum(u, 0.0))

    sol = solve_ivp(rhs, (0.0, T), f0, method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1]


def test_solver_agrees_with_dop853_reference(m1, m2, m3):
    rng = np.random.default_rng(20241018)
    models = [m1, m2, m3] + [acceptance.random_model(rng) for _ in range(20)]
    for model in models:
        f0 = rng.uniform(0.1, 1.5, model.n_states)
        got = solve_log_laplace(model, f0, 1.0).final
        np.testing.assert_allclose(got, _dop853_final(model, f0, 1.0), rtol=1e-7)
        if model is m3:
            continue  # no grey domination: the extinction ladder diverges
        # the ladder's top rung is one flow, so w_{1.5} = S_1(w_{0.5})
        w_half = neg_log_extinction(model, 0.5)
        np.testing.assert_allclose(
            neg_log_extinction(model, 1.5),
            _dop853_final(model, w_half, 1.0),
            rtol=1e-7,
        )


def test_adaptive_failing_step_raises(m2, monkeypatch):
    from spcrit import _kernels

    real = _kernels.rk4_evolve
    calls, steps = [], []

    def off_by_one_ppm(Q, lin, quad, jy, jw, u, h, n_steps):
        real(Q, lin, quad, jy, jw, u, h, n_steps)
        calls.append(h)
        if len(calls) % 2 == 1:
            # each attempt runs the stacked call first: the coarse rows,
            # then the first half step's rows
            steps.append(float(h[0, 0]))
            u[: len(u) // 2] *= 1.0 + 1e-6  # the coarse step misses by 1e-6 at every h

    monkeypatch.setattr(_kernels, "rk4_evolve", off_by_one_ppm)
    with pytest.raises(SolverError, match="step-halving"):
        solve_log_laplace(m2, [1.0, 0.5], 1.0)
    # every retry shrinks the step, and the floor ends the retries
    assert [col.ravel().tolist() for col in calls[::2]] == [[h, 0.5 * h] for h in steps]
    assert calls[1::2] == [0.5 * h for h in steps]
    assert len(steps) < 100
    assert all(b < a for a, b in zip(steps, steps[1:]))


def test_adaptive_negative_step_raises(m2, monkeypatch):
    from spcrit import _kernels

    real = _kernels.rk4_evolve

    def shifted_down(Q, lin, quad, jy, jw, u, h, n_steps):
        real(Q, lin, quad, jy, jw, u, h, n_steps)
        # a shift in proportion to h moves the coarse step and the two half
        # steps alike, so the halving check passes
        u -= h

    monkeypatch.setattr(_kernels, "rk4_evolve", shifted_down)
    with pytest.raises(SolverError, match="negative"):
        solve_log_laplace(m2, [1.0, 0.0], 1.0)


def _kernel_args(model):
    dc = derived_coefficients(model)
    return model.Q, dc.alpha, dc.quad, dc.jump_y, dc.jump_w


def test_stacked_step_column_matches_scalar_steps(m1, m2, m3):
    from spcrit import _kernels

    rng = np.random.default_rng(20261018)
    # one-state models with jumps: their u @ Q.T is a single product
    jump_models = []
    while len(jump_models) < 2:
        model = acceptance.random_model(rng, n_states=1)
        if derived_coefficients(model).jump_y.shape[1]:
            jump_models.append(model)
    # a one-row and a two-row u @ Q.T may take different BLAS routines and
    # round the sum differently, so wider random models get 4 ulp
    cases = [(model, 0.0) for model in [m1, m2, m3] + jump_models]
    cases += [(acceptance.random_model(rng, n_states=n), 4.0) for n in (2, 2, 3, 3, 3)]
    for model, max_ulps in cases:
        for batch in (1, 3):
            u = rng.uniform(0.0, 2.0, (batch, model.n_states))
            h = float(rng.uniform(1e-3, 0.3))
            stacked = np.concatenate((u, u))
            steps = np.repeat([h, 0.5 * h], batch)[:, None]
            _kernels.rk4_evolve(*_kernel_args(model), stacked, steps, 1)
            coarse, fine = u.copy(), u.copy()
            _kernels.rk4_evolve(*_kernel_args(model), coarse, h, 1)
            _kernels.rk4_evolve(*_kernel_args(model), fine, 0.5 * h, 1)
            expected = np.concatenate((coarse, fine))
            ulps = np.abs(stacked - expected) / np.spacing(np.abs(expected))
            assert ulps.max() <= max_ulps


def test_two_kernel_calls_per_attempted_step(m2, monkeypatch):
    from spcrit import _kernels

    real = _kernels.rk4_evolve
    calls = []

    def counted(Q, lin, quad, jy, jw, u, h, n_steps):
        calls.append(n_steps)
        real(Q, lin, quad, jy, jw, u, h, n_steps)

    monkeypatch.setattr(_kernels, "rk4_evolve", counted)
    meta = solve_log_laplace(m2, [1.0, 0.5], 5.0).step_meta
    attempts = meta.n_steps_fine // 2 + meta.n_rejected
    assert calls == [1] * (2 * attempts)
