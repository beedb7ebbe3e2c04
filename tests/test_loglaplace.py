import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from spcrit import acceptance, moments
from spcrit.loglaplace import (
    TOL_STEP,
    LadderError,
    SolverError,
    _adaptive,
    _check_mean_domination,
    _field,
    _local_rate,
    _remainder,
    branching_mechanism,
    kolmogorov_table,
    mechanism_remainders,
    neg_log_extinction,
    solve_log_laplace,
    survival_probability,
    yaglom_transform,
)
from spcrit.model import (
    ModelError,
    SuperprocessModel,
    as_field,
    as_times,
    derived_coefficients,
)
from spcrit.spectral import (
    MeanSemigroup,
    fit_expansion_constant,
    require_critical,
    spectral_data,
)
from test_model import check_dual_submarkov


def riccati(theta: float, b: float, t: float) -> float:
    """Closed form for a single conservative state with b z^2 mechanism."""
    return theta / (1.0 + b * theta * t)


# ---------------------------------------------------------------------------
# views of the mechanism and the solution that only the tests read

def mechanism_field(model, u) -> np.ndarray:
    """Mechanism evaluated statewise at u(x)."""
    dc, u = _field(model, u)
    return _remainder(dc, u) - dc.alpha * u


def remainder_field(model, u) -> np.ndarray:
    """Statewise nonlinear remainder r(x, u(x))."""
    return _remainder(*_field(model, u))


def nu_slope_estimate(model, sd, f, delta: float, n: int) -> float:
    """Finite-horizon slope of the reciprocal psi0-weight of the solution.

    Converges to the constant nu as the horizon n*delta grows; exact at
    every horizon for purely quadratic mechanisms.
    """
    require_critical(sd)
    f = as_field(model, f)
    (delta,) = as_times(delta, "delta", positive=True)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    w0 = sd.psi_weight(f)
    if not w0 > 0:
        raise ValueError(f"psi0-weight of f must be positive, got {w0}")
    horizon = n * delta
    wt = sd.psi_weight(solve_log_laplace(model, f, horizon).final)
    return (1.0 / wt - 1.0 / w0) / horizon


_DEFICIT_NODES = 12


def _deficit_integrand(model, f0, t: float, taus: np.ndarray) -> np.ndarray:
    """T_{t-tau} r(u(tau)) as (n_states, len(taus)), each u(tau) its own solve."""
    sg = MeanSemigroup(model)
    finals = [np.maximum(solve_log_laplace(model, f0, tau).final, 0.0) for tau in taus]
    return np.stack(
        [sg.matrix(t - tau) @ remainder_field(model, u) for tau, u in zip(taus, finals)],
        axis=-1,
    )


def remainder_identity(model, f0, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the mass-deficit identity at time t.

    Direct side: mean-semigroup image minus the solution.  Integral side:
    the integral over [0, t] of T_{t-tau} applied to the nonlinear
    remainder r(u(tau)), by Gauss-Legendre quadrature whose every node
    is its own solve, so no rule depends on where the solver steps.  The
    two sides agree up to quadrature and solver error.
    """
    direct = MeanSemigroup(model).matrix(t) @ f0 - solve_log_laplace(model, f0, t).final
    x, w = np.polynomial.legendre.leggauss(_DEFICIT_NODES)
    vals = _deficit_integrand(model, f0, t, 0.5 * t * (x + 1.0))
    return direct, 0.5 * t * (vals @ w)


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

    u = np.array([[1e-9]])
    ws = _workspace(m3, 1)
    _kernels.start_step(ws, u)
    # the first slope's linear and nonlinear parts, summed
    kernel = -ws.parts[0].sum(axis=0)[:, 0]
    field = mechanism_field(m3, u[:, 0])
    assert field[0] == pytest.approx(0.5e-18 - 1e-27 / 6.0, rel=1e-12, abs=0)
    # expm1(-z) + z has an absolute error of about 1e-16 * z
    np.testing.assert_allclose(kernel, field, rtol=1e-6)


def test_mechanism_rejects_negative_argument(m1, m2):
    with pytest.raises(ValueError):
        branching_mechanism(m1, 0, -0.1)
    with pytest.raises(ValueError):
        mechanism_remainders(m1, 0, -1.0)
    with pytest.raises(ValueError, match=r"u\[1\] must be >= 0, got -1.0"):
        mechanism_field(m2, [0.5, -1.0])
    with pytest.raises(ValueError, match=r"u\[0\] must be >= 0, got -1.0"):
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


@pytest.mark.parametrize("T", [1e2, 1e10, 1e17, 1e100])
def test_riccati_along_phi0_keeps_its_quadratic_term(m2, T):
    # from 1/T in both states u stays along phi0, where L u = 0 and only
    # the quadratic term moves it: u(T) = u0 / (1 + u0 T).  Summed in one
    # product with L u, that term was rounded away, and past T = 1e16 u
    # never moved.  The step count holds the cost: 9 to 150 accepted steps
    u0 = 1.0 / T
    traj = solve_log_laplace(m2, [u0, u0], T)
    np.testing.assert_allclose(traj.final, u0 / (1.0 + u0 * T), rtol=1e-9, atol=0)
    assert traj.step_meta.n_steps_fine <= 150


def test_symmetric_jump_model_matches_its_one_state_reduction():
    # m2's flip with b = 1/2 and one atom (y = 1, w = 1/2) per state: from
    # equal data u stays along phi0 and solves the one-state equation of
    # the same mechanism.  With the two parts summed it took 256k steps
    jump = [(1.0, 0.5)]
    flip = SuperprocessModel(
        labels=("A", "B"), m=[1.0, 1.0], Q=[[-1.0, 1.0], [1.0, -1.0]],
        beta=[1.0, 1.0], a=[0.0, 0.0], b=[0.5, 0.5], jumps=(jump, jump),
    )
    one = SuperprocessModel(
        labels=("o",), m=[1.0], Q=[[0.0]], beta=[1.0], a=[0.0], b=[0.5], jumps=(jump,)
    )
    T = 1e12
    got = solve_log_laplace(flip, [1.0 / T, 1.0 / T], T)
    want = solve_log_laplace(one, [1.0 / T], T).final[0]
    np.testing.assert_allclose(got.final, want, rtol=1e-6, atol=0)
    # 4695 accepted steps, against 4627 for the one-state model
    assert got.step_meta.n_steps_fine <= 5000


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


@pytest.mark.parametrize("entry", [
    "first_moment", "variance", "second_moment", "variance_from_transform",
    "yaglom_transform", "survival_probability", "solve_log_laplace",
])
def test_single_time_arguments_reject_a_grid(m2, entry):
    # each of these answers for one time, so a grid, even of one time, is
    # refused by its name (t, or the solver's horizon) before it reaches the
    # closed forms or the solver
    sd = spectral_data(m2)
    name = "horizon" if entry == "solve_log_laplace" else "t"
    for t in ([1.0, 2.0], np.array([1.5])):
        with pytest.raises(ModelError, match=rf"^{name} must be a single time, got shape \("):
            _TIME_ENTRY_POINTS[entry](m2, sd, t)


@pytest.mark.parametrize("call", [
    lambda m, sd: kolmogorov_table(m, sd, [1.0, 0.0], []),
    lambda m, sd: fit_expansion_constant(m, sd, t_grid=[]),
], ids=["kolmogorov_table", "fit_expansion_constant"])
def test_an_empty_t_grid_is_refused_by_name(m2, call):
    # the table named the solver's horizon instead, and the fit returned 0.0,
    # a constant fitted on no times
    with pytest.raises(ModelError, match="^t_grid must hold at least one time"):
        call(m2, spectral_data(m2))


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
         r"f\[0\] must be >= 0, got -1"),
        (lambda m, sd: moments.variance_from_transform(m, [1.0, -0.5], 2.0, [1.0, 0.0]),
         r"f\[1\] must be >= 0, got -0.5"),
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
            mean = sg.matrix(float(t)) @ f0
            assert np.all(traj.u_values[k] <= mean + 1e-8)
            assert np.all(traj.u_values[k] >= -1e-12)


def test_mean_domination_check_names_first_offending_time(m2):
    f0 = np.array([1.0, 0.5])
    t_grid = np.linspace(0.0, 2.0, 33)
    sg = MeanSemigroup(m2)
    mean = sg.matrix(t_grid) @ f0
    bound = np.exp(derived_coefficients(m2).kbound * t_grid)[:, None] * (
        sg.matrix(t_grid) @ (f0 * f0)
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
        direct, integral = remainder_identity(model, f0, 1.5)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.all(np.abs(direct - integral) <= 1e-6 * scale)
        # deficit bounds: between 0 and e^{Kt} T_t(f0^2)
        kb = derived_coefficients(model).kbound
        cap = math.exp(kb * 1.5) * (MeanSemigroup(model).matrix(1.5) @ (f0 * f0))
        assert np.all(direct >= -1e-9)
        assert np.all(direct <= cap + 1e-9)


def test_remainder_identity_is_gauss_legendre_over_separate_solves(m2, m3, rng):
    from scipy.integrate import fixed_quad

    for model in (m2, m3, acceptance.random_model(rng, critical=True)):
        f0 = rng.uniform(0.2, 1.5, model.n_states)
        want, _ = fixed_quad(
            lambda taus: _deficit_integrand(model, f0, 1.5, taus), 0.0, 1.5,
            n=_DEFICIT_NODES,
        )
        np.testing.assert_allclose(remainder_identity(model, f0, 1.5)[1], want, rtol=1e-12)


# ---------------------------------------------------------------------------
# extinction and survival

def test_extinction_riccati_limit(m1):
    assert neg_log_extinction(m1, 4.0)[0] == pytest.approx(0.5, abs=1e-6)
    assert neg_log_extinction(m1, 100.0)[0] == pytest.approx(0.02, abs=1e-8)


def test_extinction_symmetric_two_state(m2):
    w = neg_log_extinction(m2, 10.0)
    np.testing.assert_allclose(w, [0.1, 0.1], atol=1e-6)


def test_extinction_is_the_exact_limit_at_every_scale(m1, m2):
    # v_t = 2/t on m1 and 1/t on m2; a finite initial level theta would
    # miss by 2/(theta t) relative, most at small t
    for t in (0.01, 0.1, 1.0, 10.0, 100.0):
        assert neg_log_extinction(m1, t)[0] == pytest.approx(2.0 / t, rel=1e-12)
        np.testing.assert_allclose(neg_log_extinction(m2, t), 1.0 / t, rtol=1e-12)


@pytest.mark.parametrize("b", [1e-300, 1e300])
def test_one_state_extinction_at_extreme_quadratic_rates(m1, b):
    # v_t = 1 / (beta b t) exactly; Hairer's blend of the step error
    # estimates once squared them, which gave 0 / 0 (a bare ZeroDivisionError)
    # at b = 1e-300 and inf / inf (a nan estimate, SolverError) at b = 1e300
    t = np.array([1.0, 10.0])
    v = neg_log_extinction(dataclasses.replace(m1, b=[b]), t)
    np.testing.assert_allclose(v[:, 0], 1.0 / (b * t), rtol=1e-15, atol=0)


def _extinction_oracle(model, times) -> np.ndarray:
    """v at ``times`` by scipy's DOP853 on the u-equation from theta = 1e7
    and 1e8, Richardson-extrapolated in 1/theta.

    The gap u_theta - v is c/theta + O(1/theta^2), so the extrapolation
    leaves about 1e-16 relative; the solves share neither the reciprocal
    form nor the solver's step control.
    """
    def rhs(t, u):
        return model.Q @ u - mechanism_field(model, np.maximum(u, 0.0))

    finals = []
    for theta in (1e7, 1e8):
        sol = solve_ivp(
            rhs, (0.0, times[-1]), np.full(model.n_states, theta), method="DOP853",
            rtol=1e-13, atol=1e-300, t_eval=times,
        )
        assert sol.success, sol.message
        finals.append(sol.y.T)
    return (1e8 * finals[1] - 1e7 * finals[0]) / (1e8 - 1e7)


def test_extinction_agrees_with_richardson_oracle():
    rng = np.random.default_rng(3)
    models = []
    while len(models) < 6:
        model = acceptance.random_model(rng, int(rng.integers(2, 4)), critical=True)
        if derived_coefficients(model).jump_y.shape[1]:
            models.append(model)
    times = [1.0, 10.0]
    for model in models:
        np.testing.assert_allclose(
            neg_log_extinction(model, times), _extinction_oracle(model, times), rtol=1e-9
        )


def test_extinction_through_a_stiff_initial_layer(m2):
    # beta*b = 1e-6 in state 1: v there is 1e8 at t = 0.01, and the
    # coupling term w_0^2 Q_01 / w_1 makes the first trial steps overflow;
    # they are retried shorter with no floating-point warning, and the
    # result is one flow, so v_{1.5} = S_1(v_{0.5})
    model = dataclasses.replace(m2, b=[1.0, 1e-6])
    v = neg_log_extinction(model, [0.01, 0.5, 1.5])
    assert np.all(np.isfinite(v)) and v[0, 1] > 1e7
    np.testing.assert_allclose(v[2], _dop853_final(model, v[1], 1.0), rtol=1e-9)


def test_extinction_names_the_state_without_grey(m2):
    # beta*b = 0 in state 1 only: w = 1/v stays 0 there, so v is infinite
    model = dataclasses.replace(m2, b=[1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LadderError, match=r"at t=2\b.*state 1 "):
            neg_log_extinction(model, [2.0, 3.0])
    # a grid with no first time is a bad argument before it is a bad model
    with pytest.raises(ModelError, match="nonempty ascending"):
        neg_log_extinction(model, [])


def test_extinction_fails_without_grey(m3):
    # jump-only mechanism: no finite-time extinction, the solution from
    # infinite data stays infinite; the error names the first time asked,
    # and it is the only report: no warning precedes it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def test_survival_probability_may_round_to_one():
    # beta*b = 1e-6 in the start state makes <v_10, mu> about 1e5, and
    # -expm1(-x) is correctly rounded, so 1.0 is the answer, not a fault
    base = acceptance.random_model(np.random.default_rng(3), 3, critical=True)
    model = dataclasses.replace(base, b=np.r_[1e-6, base.b[1:]])
    assert survival_probability(model, [1.0, 0.0, 0.0], 10.0) == 1.0


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
    p = [row.p_survival for row in report.rows]
    assert p[0] >= p[1]


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
    # survival falls with t
    p = {row.t: row.p_survival for row in report.rows}
    assert p[10.0] >= p[30.0] >= p[100.0]
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
    # the record times are sums of the steps, so their gaps round differently
    assert np.diff(traj.t_grid).max() == pytest.approx(meta.dt_max, rel=1e-12)
    assert np.diff(traj.t_grid).min() == pytest.approx(meta.dt_min, rel=1e-12)
    assert meta.rel_discrepancy <= TOL_STEP


def _reference_final(model, f0, T: float, method: str, **tols) -> np.ndarray:
    """Reference solve by a scipy integrator on the mechanism views.

    It shares neither the solver's right-hand side kernel nor its step
    control; both read the derived record's padded atoms, which
    test_model checks against the model's own atoms.
    """
    def rhs(t, u):
        return model.Q @ u - mechanism_field(model, np.maximum(u, 0.0))

    sol = solve_ivp(rhs, (0.0, T), f0, method=method, **tols)
    assert sol.success, sol.message
    return sol.y[:, -1]


def _dop853_final(model, f0, T: float) -> np.ndarray:
    return _reference_final(model, f0, T, "DOP853", rtol=1e-12, atol=1e-14)


def _radau_final(model, f0, T: float) -> np.ndarray:
    # an implicit collocation method: it shares no tableau with the solver
    return _reference_final(model, f0, T, "Radau", rtol=1e-12, atol=1e-14)


def test_solver_agrees_with_dop853_reference(m1, m2, m3):
    rng = np.random.default_rng(20241018)
    models = [m1, m2, m3] + [acceptance.random_model(rng) for _ in range(20)]
    for model in models:
        f0 = rng.uniform(0.1, 1.5, model.n_states)
        got = solve_log_laplace(model, f0, 1.0).final
        np.testing.assert_allclose(got, _dop853_final(model, f0, 1.0), rtol=1e-7)
        if model is m3:
            continue  # no grey domination: no finite extinction limit
        # the limit from infinite data is one flow, so w_{1.5} = S_1(w_{0.5})
        w_half = neg_log_extinction(model, 0.5)
        np.testing.assert_allclose(
            neg_log_extinction(model, 1.5),
            _dop853_final(model, w_half, 1.0),
            rtol=1e-7,
        )


def test_solver_agrees_with_radau_reference(m1, m2, m3):
    # the DOP853 reference's models and initial fields
    rng = np.random.default_rng(20241018)
    models = [m1, m2, m3] + [acceptance.random_model(rng) for _ in range(20)]
    for model in models:
        f0 = rng.uniform(0.1, 1.5, model.n_states)
        got = solve_log_laplace(model, f0, 1.0).final
        np.testing.assert_allclose(got, _radau_final(model, f0, 1.0), rtol=1e-7)


# Hairer's nodes c_i of dop853.f, which the autonomous step never reads
_DOP853_NODES = [
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
]


def test_dop853_tableau_order_conditions():
    from spcrit import _kernels

    A, B = _kernels._A, _kernels._B
    c = np.array(_DOP853_NODES)
    np.testing.assert_allclose(A.sum(axis=1), c, rtol=0, atol=1e-14)
    assert np.all(np.triu(A) == 0.0)  # explicit: each stage reads earlier ones
    for k in range(8):
        assert B @ c**k == pytest.approx(1.0 / (k + 1), rel=1e-13, abs=1e-15)
    # both error weights are differences of weight vectors of consistent
    # methods, so they sum to zero
    e5, e3 = _kernels._WEIGHTS[1:]
    assert abs(e5.sum()) <= 1e-14 and abs(e3.sum()) <= 1e-14


def _workspace(model, batch, reciprocal=False):
    from spcrit import _kernels

    dc = derived_coefficients(model)
    return _kernels.Workspace(dc.stage_matrix, dc.neg_atom_y, dc.quad, batch, reciprocal)


def _fixed_step_riccati(model, theta: float, T: float, n: int) -> float:
    from spcrit import _kernels

    ws = _workspace(model, 1)
    u = np.array([[theta]])
    for _ in range(n):
        _kernels.start_step(ws, u)
        u = _kernels.dop853_step(ws, T / n)[0]
    return float(u[0, 0])


def test_dop853_step_is_eighth_order_on_riccati(m1):
    # h = 1/2, 1/4 and 1/8 on [0, 1]: past the error's sign change near h = 1,
    # and the smallest error is still about 40 ulp of u
    exact = riccati(1.0, 0.5, 1.0)
    errs = [abs(_fixed_step_riccati(m1, 1.0, 1.0, n) - exact) for n in (2, 4, 8)]
    orders = np.log2(errs[:-1]) - np.log2(errs[1:])
    np.testing.assert_allclose(orders, 8.0, atol=0.5)


def test_adaptive_failing_step_raises(m2, monkeypatch):
    from spcrit import _kernels

    real = _kernels.dop853_step
    steps = []

    def off_by_one_ppm(ws, h):
        block = real(ws, h)
        steps.append(h)
        # the 5th-order estimate misses by 1e-6 of the solution at every h
        block[1:] += 1e-6 * np.abs(block[0])
        return block

    monkeypatch.setattr(_kernels, "dop853_step", off_by_one_ppm)
    with pytest.raises(SolverError, match="step error estimate"):
        solve_log_laplace(m2, [1.0, 0.5], 1.0)
    # every retry shrinks the step, and the floor ends the retries
    assert len(steps) < 100
    assert all(b < a for a, b in zip(steps, steps[1:]))


def test_adaptive_negative_step_raises(m2, monkeypatch):
    from spcrit import _kernels

    real = _kernels.dop853_step

    def shifted_down(ws, h):
        block = real(ws, h)
        # the shift leaves the error estimate alone, so the step passes it
        block[0] -= h
        return block

    monkeypatch.setattr(_kernels, "dop853_step", shifted_down)
    with pytest.raises(SolverError, match="negative"):
        solve_log_laplace(m2, [1.0, 0.0], 1.0)


def test_adaptive_step_budget_raises(m1, monkeypatch):
    from spcrit import loglaplace

    monkeypatch.setattr(loglaplace, "_MAX_STEPS", 3)
    with pytest.raises(SolverError, match=(
        r"^adaptive integration used 3 steps and reached only t=0\.00793509 of 1000$"
    )):
        solve_log_laplace(m1, [100.0], 1000.0)


# Initial data past 1.3e154, the square root of the double range: f0^2
# overflows, so the mean-domination bound is inf and constrains nothing,
# and the stage's quadratic term is (beta*b*s)*s, finite where s*s is not.

def test_jump_model_from_data_past_the_square_root_of_the_double_range(m3):
    # m3 is u' = -(u - 1) once e^{-u} underflows
    got = solve_log_laplace(m3, [1e200], 1.0).final[0]
    assert got == pytest.approx(1.0 + (1e200 - 1.0) / math.e, rel=1e-9)


def test_riccati_from_data_past_the_square_root_of_the_double_range():
    # u' = -1e-200 u^2: u(1) = 1e200 / (1 + 1e-200 * 1e200)
    tiny_b = SuperprocessModel(
        labels=("x",), m=[1.0], Q=[[0.0]], beta=[1.0], a=[0.0], b=[1e-200], jumps=((),)
    )
    assert solve_log_laplace(tiny_b, [1e200], 1.0).final[0] == pytest.approx(
        5e199, rel=1e-9
    )


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


# The step before the one-workspace kernel, kept as its reference: each
# stage is a product and an add, and the right-hand sides read Q and the
# linear weight apart instead of the generator L = Q + diag(lin).

def _reference_rhs(Q, lin, quad, jy, jw, u):
    out = u @ Q.T
    out += (lin - quad * u) * u
    if jy.shape[1]:
        z = u[:, :, None] * jy
        out -= np.vecdot(np.expm1(-z) + z, jw)
    return out


def _reference_rhs_reciprocal(Q, lin, quad, jy, jw, w):
    r = 1.0 / w
    out = r @ Q.T
    if jy.shape[1]:
        z = r[:, :, None] * jy
        out -= np.vecdot(np.expm1(-z) + z, jw)
    return quad - w * (lin + w * out)


def _reference_step(Q, lin, quad, jy, jw, u, k1, h, rhs):
    """The end and the (2, batch, n) pair of error estimates."""
    from spcrit import _kernels

    k = np.empty((12,) + u.shape)
    k[0] = k1
    flat = k.reshape(12, -1)
    ha = h * _kernels._A
    for i in range(1, 12):
        stage = (ha[i, :i] @ flat[:i]).reshape(u.shape) + u
        k[i] = rhs(Q, lin, quad, jy, jw, stage)
    out = (h * _kernels._WEIGHTS) @ flat
    return out[0].reshape(u.shape) + u, out[1:].reshape((2,) + u.shape)


def test_dop853_step_matches_reference_step(m1, m2, m3):
    from spcrit import _kernels

    rng = np.random.default_rng(20261019)
    models = [m1, m2, m3] + [acceptance.random_model(rng) for _ in range(10)]
    for model in models:
        dc = derived_coefficients(model)
        parts = (dc.quad, dc.jump_y, dc.jump_w)
        for batch in (1, 3):
            for reciprocal, ref_rhs in (
                (False, _reference_rhs),
                (True, _reference_rhs_reciprocal),
            ):
                # u > 0 keeps 1/u finite; h inside the step's stability region
                u = rng.uniform(0.1, 2.0, (batch, model.n_states))
                h = float(rng.uniform(0.05, 0.5)) / _local_rate(dc, float(u.max()))
                ws = _workspace(model, batch, reciprocal)
                _kernels.start_step(ws, u.T)
                # the kernel runs state-major, (n, batch)
                block = _kernels.dop853_step(ws, h).transpose(0, 2, 1)
                k1_ref = ref_rhs(model.Q, dc.alpha, *parts, u)
                end, err = _reference_step(
                    model.Q, dc.alpha, *parts, u, k1_ref, h, ref_rhs
                )
                assert block.shape == (3, batch, model.n_states)
                np.testing.assert_allclose(block[0], end, rtol=1e-13, atol=0)
                # the estimates are differences, so they are held to 1e-13 of
                # the scale the step controller divides them by
                scale = float(np.abs(end).max())
                np.testing.assert_allclose(block[1:], err, rtol=0, atol=1e-13 * scale)


def test_adaptive_steps_match_reference_step(monkeypatch):
    # _adaptive on the kernel, then on the reference step and right-hand
    # sides, which reproduce the earlier solver's arithmetic; the steps can
    # differ only where an error estimate's last digits differ
    from spcrit import _kernels

    rng = np.random.default_rng(11)
    # the batch-3 fields come from their own stream, so the batch-1 cases
    # stay the draws they were
    wide = np.random.default_rng(12)
    for _ in range(50):
        model = acceptance.random_model(rng, critical=True)
        dc = derived_coefficients(model)
        parts = (dc.quad, dc.jump_y, dc.jump_w)
        f0 = rng.uniform(0.1, 1.5, (1, model.n_states))
        T = float(rng.choice([0.5, 5.0, 50.0]))
        # batch 3 is what variance_from_transform solves
        f0_wide = np.concatenate((f0, wide.uniform(0.1, 1.5, (2, model.n_states))))

        def reference_rhs(ref):
            # the kernel's state-major stage, through the batch-major
            # reference, whose whole slope goes into the linear part
            def rhs(ws, j):
                ws.parts[j, 1] = 0.0
                ws.parts[j, 0] = ref(model.Q, dc.alpha, *parts, ws.stage.T).T

            return rhs

        def reference_block(ws, h):
            ref = _reference_rhs_reciprocal if ws.reciprocal else _reference_rhs
            u, k1 = ws.u.T, ws.parts[0].sum(axis=0).T
            end, err = _reference_step(model.Q, dc.alpha, *parts, u, k1, h, ref)
            return np.concatenate((end[None], err)).transpose(0, 2, 1)

        def solves():
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                return (
                    _adaptive(model, f0, [T]),
                    _adaptive(model, f0_wide, [T]),
                    _adaptive(
                        model, np.zeros((1, model.n_states)), [1.0, 10.0, 100.0],
                        reciprocal=True,
                    ),
                )

        *batch_solves, extinction = solves()
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "dop853_step", reference_block)
            mp.setattr(_kernels, "_rhs", reference_rhs(_reference_rhs))
            mp.setattr(_kernels, "_rhs_reciprocal", reference_rhs(_reference_rhs_reciprocal))
            *ref_solves, ref_extinction = solves()
        for solve, ref_solve in zip(batch_solves, ref_solves):
            counts = (solve.meta.n_steps_fine, solve.meta.n_rejected)
            assert counts == (ref_solve.meta.n_steps_fine, ref_solve.meta.n_rejected)
            np.testing.assert_allclose(solve.at_stops, ref_solve.at_stops, rtol=1e-10)
        # to t = 100 the extinction step rides the pair's stability edge,
        # where the estimate jumps by 10x between neighbouring h and a last
        # digit can move a rejection; measured over 500 such runs against
        # the earlier solver: at most 1 accepted and 2 rejected steps apart
        acc = extinction.meta.n_steps_fine - ref_extinction.meta.n_steps_fine
        rej = extinction.meta.n_rejected - ref_extinction.meta.n_rejected
        assert abs(acc) <= 1 and abs(rej) <= 2
        np.testing.assert_allclose(extinction.at_stops, ref_extinction.at_stops, rtol=1e-9)


def _count_rhs(monkeypatch):
    """One counter over both right-hand side kernels."""
    from spcrit import _kernels

    calls = [0]
    for name in ("_rhs", "_rhs_reciprocal"):
        real = getattr(_kernels, name)

        def counted(*args, real=real):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(_kernels, name, counted)
    return calls


def test_one_kernel_step_and_eleven_rhs_per_attempted_step(m2, monkeypatch):
    from spcrit import _kernels

    real = _kernels.dop853_step
    attempts = []

    def counted_step(ws, h):
        attempts.append(h)
        return real(ws, h)

    monkeypatch.setattr(_kernels, "dop853_step", counted_step)
    rhs = _count_rhs(monkeypatch)
    meta = solve_log_laplace(m2, [1.0, 0.5], 5.0).step_meta
    assert len(attempts) == meta.n_steps_fine + meta.n_rejected
    # one right-hand side at the start, 11 stages per attempt, and one at
    # each accepted step's end that the next step reuses, save the last
    assert rhs[0] == 1 + 11 * len(attempts) + meta.n_steps_fine - 1


# right-hand sides of the benchmark's extinction grid and of its longest
# Riccati solve, measured at 95 and 696 and pinned with under 10% headroom;
# the three-rung theta ladder that the reciprocal solve replaced took 2316,
# and the step-doubling RK4 before it 4000 and 1200
KOLMOGOROV_RHS = 104
RICCATI_RHS = 760


def test_right_hand_side_work_is_pinned(m1, m2, monkeypatch):
    # counts, not times, so the guard cannot flake; a count of 0 would mean
    # the solver went round the counted kernels
    rhs = _count_rhs(monkeypatch)
    kolmogorov_table(m2, spectral_data(m2), [1.0, 0.0], [10.0, 100.0, 1000.0])
    assert 0 < rhs[0] <= KOLMOGOROV_RHS
    rhs[0] = 0
    solve_log_laplace(m1, [100.0], 10.0)
    assert 0 < rhs[0] <= RICCATI_RHS
