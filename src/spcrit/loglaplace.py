"""Nonlinear mass evolution: survival, extinction and conditional limits.

The negative log of the Laplace functional of the process solves a
nonlinear evolution equation driven by the spatial generator and the
branching mechanism.  Integrating it gives survival probabilities, the
t*P(survival) limit table, and the finite-time Laplace transforms whose
long-time targets are 1/(1 + nu*lambda*weight).

The equation is integrated by classical RK4 with step doubling: every
step is also taken as two half steps, and it stands only if the two
results agree to a relative TOL_ODE.  That check also sizes the steps,
which shrink against large data and grow as the solution decays, so one
integrator serves short solves, the long extinction ladders and the
transform oracle of ``moments`` alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .model import (
    SuperprocessModel,
    DerivedCoefficients,
    ModelError,
    _require,
    as_field,
    as_measure,
    as_times,
    check_grey_domination,
    derived_coefficients,
    pairing,
)
from .spectral import MeanSemigroup, SpectralData, nu as nu_constant, require_critical

TOL_ODE = 1e-8
TOL_LADDER = 1e-6
THETA_LADDER = (1e2, 1e4, 1e6)
_JUMP_POWERS = np.arange(2, 8)  # Taylor series of e^{-z} - 1 + z
_JUMP_SERIES = np.array([(-1.0) ** k / math.factorial(k) for k in _JUMP_POWERS])
_MAX_STEPS = 1_000_000   # step budget of one solve
_GROW_MAX = 5.0          # largest step growth per step
_SHRINK_MIN = 0.2        # largest step shrink per step


class SolverError(RuntimeError):
    """Step-halving disagreement or a negative solution value."""


class LadderError(RuntimeError):
    """The large-initial-data ladder failed to converge."""


# ---------------------------------------------------------------------------
# branching mechanism evaluations

def _remainder(dc: DerivedCoefficients, u: np.ndarray) -> np.ndarray:
    """Remainder quad*u^2 + sum_k w_k (e^{-u y_k} - 1 + u y_k) at u >= 0.

    ``u`` is (..., n_states); the record's zero-weight atom padding adds
    nothing.  Below u y_k = 0.01 a jump term is its Taylor series through
    (u y_k)^7, where expm1 would lose digits; it holds 2e-14 relative.
    Every term is >= 0, and the mechanism is the remainder minus alpha*u.
    """
    zy = u[..., None] * dc.jump_y
    series = zy[..., None] ** _JUMP_POWERS @ _JUMP_SERIES
    jump = dc.jump_w * np.where(zy < 0.01, series, np.expm1(-zy) + zy)
    return dc.quad * u * u + jump.sum(axis=-1)


def _field(model: SuperprocessModel, u) -> tuple[DerivedCoefficients, np.ndarray]:
    """The record and u as a field; the first negative entry is named."""
    u = as_field(model, u)
    _require("mechanism argument u", u, u >= 0, ">= 0")
    return derived_coefficients(model), u


def branching_mechanism(model: SuperprocessModel, x: int, z: float) -> float:
    """Pointwise mechanism beta*(-a z + b z^2 + sum_k w_k (e^{-z y_k}-1+z y_k))."""
    dc, u = _field(model, np.full(model.n_states, float(z)))
    return float(_remainder(dc, u)[x] - dc.alpha[x] * u[x])


def mechanism_field(model: SuperprocessModel, u: np.ndarray) -> np.ndarray:
    """Mechanism evaluated statewise at u(x)."""
    dc, u = _field(model, u)
    return _remainder(dc, u) - dc.alpha * u


class RemainderParts(NamedTuple):
    remainder: float       # mechanism plus the linear drift part; >= 0
    quad_defect: float     # remainder minus the pure-quadratic approximation
    defect_bound: float    # jump-tail control coefficient for the defect


def mechanism_remainders(model: SuperprocessModel, x: int, z: float) -> RemainderParts:
    """Nonlinear remainder, its quadratic defect and the defect control.

    The remainder is squeezed between 0 and kbound*z^2/2, and the defect is
    bounded by defect_bound*z^2; both bounds are exact consequences of the
    mechanism's convexity and are exercised as properties in the tests.
    """
    dc, u = _field(model, np.full(model.n_states, float(z)))
    remainder = float(_remainder(dc, u)[x])
    quad_defect = remainder - 0.5 * dc.avar[x] * z * z
    y = dc.jump_y[x]
    defect_bound = float(np.sum(dc.jump_w[x] * y ** 2 * np.minimum(1.0, y * z / 6.0)))
    return RemainderParts(remainder, float(quad_defect), defect_bound)


def remainder_field(model: SuperprocessModel, u: np.ndarray) -> np.ndarray:
    """Statewise nonlinear remainder r(x, u(x))."""
    return _remainder(*_field(model, u))


# ---------------------------------------------------------------------------
# solver plumbing

def _local_rate(dc: DerivedCoefficients, u_max: float) -> float:
    """Lipschitz bound of the right-hand side at solution scale u_max.

    The jump part's slope saturates at beta*sum(w*y), unlike the
    quadratic part which keeps growing with the solution.
    """
    per_state = (
        np.abs(dc.alpha)
        + 2.0 * dc.quad * u_max
        + np.minimum(dc.jump_y2w * u_max, dc.jump_yw)
    )
    return dc.qnorm + float(per_state.max())


def _check_negative(min_seen: float, floor: float) -> None:
    if min_seen < floor:
        raise SolverError(
            f"solution went negative (min {min_seen:.3e}); the step is too "
            f"large for this mechanism; negatives are never clipped silently"
        )


def _rel_gap(coarse: np.ndarray, fine: np.ndarray) -> float:
    """Max relative gap between a coarse and a fine result."""
    scale = float(np.abs(fine).max())
    gap = float(np.abs(coarse - fine).max())
    if scale == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / scale


@dataclass(frozen=True)
class StepMeta:
    """How one solve stepped; every step runs as a coarse/fine RK4 pair.

    ``dt_coarse`` is the largest accepted coarse step and ``dt_fine`` the
    smallest accepted fine step, so every fine step lies in
    [dt_fine, dt_coarse / 2]; ``n_steps_fine`` counts the fine steps of
    accepted steps (two each) and ``rel_discrepancy`` is the worst gap of
    an accepted step.  That gap bounds the local error of the fine run
    (about gap/15), not of the Richardson-extrapolated step ends, whose
    error is of higher order and carries no separate estimate.
    ``n_rejected`` counts the steps that failed the halving check and were
    retried smaller.
    """

    dt_coarse: float
    dt_fine: float
    n_steps_fine: int
    rel_discrepancy: float
    n_rejected: int


@dataclass(frozen=True, eq=False)
class LogLaplaceTrajectory:
    """Solution values on a time grid, starting at the initial field.

    The grid holds each accepted step's midpoint and end, so it is as
    uneven as the steps; a midpoint holds the fine run's value and an end
    the Richardson-extrapolated value the next step starts from.
    """

    t_grid: np.ndarray
    u_values: np.ndarray
    f0: np.ndarray
    step_meta: StepMeta

    @property
    def final(self) -> np.ndarray:
        return self.u_values[-1]


class _BatchSolution(NamedTuple):
    times: np.ndarray        # record times, excluding 0
    values: np.ndarray       # (n_rec, batch, n) records
    at_stops: np.ndarray     # (n_stops, batch, n) values at the stop times
    meta: StepMeta


def _adaptive(
    model: SuperprocessModel,
    f0_batch: np.ndarray,
    stops,
) -> _BatchSolution:
    """Step-doubling RK4 over [0, T] (Hairer, Norsett & Wanner, §II.4).

    Steps are clipped to land on each time of the ascending grid ``stops``
    (ending at T), so one run answers the whole grid.

    Each step runs one coarse step of h and two fine steps of h/2 from the
    same state in two kernel calls: the coarse step and the first half
    step run stacked as one (2*batch, n) array with the step column
    [h..., h/2...], then the second half step runs alone.  The step is
    accepted only when the relative gap between the coarse and the fine
    end is at most TOL_ODE.  The fine run's error is then about gap/15,
    and the step ends on the Richardson-extrapolated value
    fine + (fine - coarse)/15, whose error is of higher order; without it
    the fine run's errors add up over the steps to several times
    TOL_ODE/15.  The fine run's midpoint and the
    extrapolated end are recorded, and the negativity check runs on them
    and on the coarse run; the fine end lies between the coarse and the
    extrapolated end.  A rejected step is retried smaller.  Either way the
    next h is resized from the gap, whose leading term grows like h^5.
    The whole batch shares one step sequence, so differences across the
    batch keep their cancellation.  A step that cannot pass the check
    before h stops advancing time raises SolverError, as does running out
    of the step budget.
    """
    stops = as_times(stops, "horizon", positive=True)
    if not stops.size or np.any(np.diff(stops) <= 0):
        raise ValueError(f"horizon must be a nonempty ascending grid, got {stops}")
    dc = derived_coefficients(model)
    kernel_args = (model.Q, dc.alpha, dc.quad, dc.jump_y, dc.jump_w)
    batch, n = f0_batch.shape
    u = f0_batch.copy()
    u_max = float(np.max(u, initial=0.0))
    floor = -1e-12 * max(1.0, u_max)
    # the stacked call's rows: the coarse step's, then the first half step's;
    # times h, unit_steps is its step column [h..., h/2...]
    stacked = np.empty((2 * batch, n))
    starts = stacked.reshape(2, batch, n)
    unit_steps = np.repeat([1.0, 0.5], batch)[:, None]

    T = float(stops[-1])
    rate = _local_rate(dc, u_max)
    h = min(T, 0.05 / rate if rate > 0 else T)
    t = 0.0
    grow = _GROW_MAX
    times: list[float] = []
    values: list[np.ndarray] = []
    at_stops: list[np.ndarray] = []
    worst = 0.0
    h_lo, h_hi = math.inf, 0.0
    n_rejected = 0
    stop_times = stops.tolist()
    for _ in range(_MAX_STEPS):
        stop = stop_times[len(at_stops)]
        lands = t + h >= stop
        if lands:
            h = stop - t
        starts[:] = u
        _kernels.rk4_evolve(*kernel_args, stacked, h * unit_steps, 1)
        uc = starts[0]
        # the second half step advances in place in the record block
        rec = np.empty((2, batch, n))
        rec[:] = starts[1]
        _kernels.rk4_evolve(*kernel_args, rec[1], 0.5 * h, 1)
        gap = _rel_gap(uc, rec[1])
        fac = 0.9 * (TOL_ODE / gap) ** 0.2 if gap > 0.0 else _GROW_MAX
        if not gap <= TOL_ODE:  # a NaN gap is rejected as well
            n_rejected += 1
            h *= max(_SHRINK_MIN, min(fac, 0.9))
            grow = 1.0
            if t + h == t or h <= 1e-14 * T:
                raise SolverError(
                    f"step-halving discrepancy {gap:.3e} at t={t:g} stays "
                    f"above {TOL_ODE:g} down to step {h:.3e}"
                )
            continue
        rec[1] += (rec[1] - uc) / 15.0
        u = rec[1]
        _check_negative(min(float(uc.min()), float(rec.min())), floor)
        times += [t + 0.5 * h, stop if lands else t + h]
        values.append(rec)
        worst = max(worst, gap)
        h_lo, h_hi = min(h_lo, h), max(h_hi, h)
        if lands:
            at_stops.append(u)
            if len(at_stops) == stops.size:
                meta = StepMeta(h_hi, 0.5 * h_lo, 2 * len(values), worst, n_rejected)
                return _BatchSolution(
                    np.array(times), np.concatenate(values), np.stack(at_stops), meta
                )
        t = stop if lands else t + h
        h *= min(grow, max(_SHRINK_MIN, fac))
        grow = _GROW_MAX
    raise SolverError(
        f"adaptive integration used {_MAX_STEPS} steps and reached only "
        f"t={t:g} of {T:g}"
    )


def solve_log_laplace(
    model: SuperprocessModel,
    f0,
    T: float,
) -> LogLaplaceTrajectory:
    """Integrate the evolution equation from a nonnegative initial field.

    The step adapts: every step is taken twice, once whole and once as two
    halves, and is accepted only when the two agree to a relative 1e-8.
    The solution is then checked to lie between 0 and the mean-semigroup
    image of the initial field.
    """
    f0 = as_field(model, f0)
    _require("initial field f0", f0, f0 >= 0, ">= 0")

    sol = _adaptive(model, f0[None, :], [T])
    t_grid = np.concatenate(([0.0], sol.times))
    u_values = np.concatenate((f0[None, :], sol.values[:, 0, :]), axis=0)

    _check_mean_domination(model, t_grid, u_values, f0)
    return LogLaplaceTrajectory(
        t_grid=t_grid, u_values=u_values, f0=f0, step_meta=sol.meta
    )


def _check_mean_domination(model, t_grid, u_values, f0) -> None:
    """0 <= u <= T_t f0, and the gap is at most e^{Kt} T_t(f0^2).

    Checked at up to 33 record times spread evenly over the grid, all
    evaluated as one semigroup stack; an error names the first offending
    time.
    """
    if not np.any(f0 > 0):
        return
    kbound = derived_coefficients(model).kbound
    idx = np.unique(np.linspace(0, len(t_grid) - 1, 33).astype(int))
    t = np.asarray(t_grid, dtype=float)[idx]
    mats = MeanSemigroup(model).matrix(t)
    mean = mats @ f0
    slack = TOL_ODE * (1.0 + np.abs(mean).max(axis=1))
    gap = mean - u_values[idx]
    above = np.any(gap < -slack[:, None], axis=1)
    tracked = kbound * t < 700.0
    bound = np.exp(np.where(tracked, kbound * t, 0.0))[:, None] * (mats @ (f0 * f0))
    loose = tracked & np.any(gap > bound + slack[:, None], axis=1)
    bad = above | loose
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if above[k]:
        raise SolverError(
            f"solution exceeds its mean-semigroup bound at t={t[k]:g} "
            f"by {float(-gap[k].min()):.3e}"
        )
    raise SolverError(f"remainder exceeds its second-moment bound at t={t[k]:g}")


# ---------------------------------------------------------------------------
# extinction and survival

def neg_log_extinction(
    model: SuperprocessModel,
    t,
) -> np.ndarray:
    """Negative log extinction probability by time t, statewise.

    Computed as the large-theta limit of the evolution started from the
    constant field theta, along the ladder (1e2, 1e4, 1e6).  Convergence
    requires the increments between rungs to shrink geometrically (the gap
    to the limit decays like 1/theta) or the Richardson-estimated
    remainder past the last rung to fall below 1e-6 relatively.

    The rungs run as one batch through the adaptive solver, whose steps
    start tiny against the large data and grow as the solution collapses.
    An ascending grid of times gives one row per time from a single run,
    with the convergence check at each time.
    """
    if not check_grey_domination(model):
        warnings.warn(
            "finite-time extinction is not certified (min beta*b = 0); "
            "the ladder may fail to converge",
            stacklevel=2,
        )
    n = model.n_states
    u0 = np.tile(np.asarray(THETA_LADDER)[:, None], (1, n))
    stops = as_times(t, "horizon", positive=True)
    at_stops = _adaptive(model, u0, stops).at_stops
    for stop, u in zip(stops, at_stops):
        if np.any(u[:-1] > u[1:] * (1.0 + 1e-9) + 1e-30):
            raise LadderError(f"ladder is not monotone in the initial level at t={stop:g}")
        # the gap to the limit decays like 1/theta; the remainder past the
        # last rung is the last increment shrunk by theta[-2]/theta[-1], and
        # healthy convergence shows successive increments shrinking by that
        # same factor
        inc_prev = float(np.abs(u[-2] - u[-3]).max())
        inc_last = float(np.abs(u[-1] - u[-2]).max())
        remainder = inc_last * THETA_LADDER[-2] / (THETA_LADDER[-1] - THETA_LADDER[-2])
        scale = float(np.abs(u[-1]).max())
        small = remainder <= TOL_LADDER * max(scale, 1e-300)
        geometric = inc_prev >= 20.0 * inc_last
        if not (small or geometric):
            raise LadderError(
                f"ladder not converged at t={stop:g}: estimated remaining gap "
                f"{remainder:.3e} vs scale {scale:.3e}; the mechanism may be "
                f"too weak"
            )
    return at_stops[:, -1] if np.ndim(t) else at_stops[0, -1]


def _survival(w: np.ndarray, mu: np.ndarray) -> float:
    p = -math.expm1(-pairing(w, mu))
    if not 0.0 < p < 1.0:
        raise SolverError(f"survival probability {p} outside (0, 1)")
    return p


def survival_probability(model: SuperprocessModel, mu, t: float) -> float:
    """Probability the process started from mu is alive at time t."""
    mu = as_measure(model, mu)
    return _survival(neg_log_extinction(model, t), mu)


@dataclass(frozen=True)
class KolmogorovRow:
    t: float
    p_survival: float
    t_times_p: float
    limit: float


@dataclass(frozen=True)
class KolmogorovReport:
    rows: tuple[KolmogorovRow, ...]
    limit: float
    survival_decreasing: bool


def kolmogorov_table(
    model: SuperprocessModel,
    sd: SpectralData,
    mu,
    t_grid,
) -> KolmogorovReport:
    """t * P(survival) against its constant long-time limit, from one
    extinction ladder over the distinct grid times; rows keep the caller's
    order and repeats."""
    require_critical(sd)
    mu = as_measure(model, mu)
    ts = as_times(t_grid, "t_grid", positive=True)
    limit = pairing(sd.phi0, mu) / nu_constant(model, sd)
    grid, back = np.unique(ts, return_inverse=True)
    ps = [_survival(w, mu) for w in neg_log_extinction(model, grid)]
    rows = tuple(
        KolmogorovRow(float(t), ps[k], float(t) * ps[k], limit) for t, k in zip(ts, back)
    )
    decreasing = all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))
    return KolmogorovReport(rows, limit, decreasing)


@dataclass(frozen=True)
class YaglomResult:
    value: float
    target: float
    p_survival: float
    lam: float
    t: float


def yaglom_transform(
    model: SuperprocessModel,
    sd: SpectralData,
    mu,
    f,
    lam: float,
    t: float,
) -> YaglomResult:
    """Conditional Laplace transform of the time-scaled mass functional.

    value = E[exp(-lam/t * <f, X_t>) | survival to t]; its long-time target
    is 1/(1 + nu*lam*<f, psi0>_m).
    """
    require_critical(sd)
    mu = as_measure(model, mu)
    f = as_field(model, f)
    _require("f", f, f >= 0, ">= 0")
    if not 0 <= lam < math.inf:
        raise ModelError(f"lambda must be finite and >= 0, got {lam}")
    (t,) = as_times(t, positive=True)
    target = 1.0 / (1.0 + nu_constant(model, sd) * lam * sd.psi_weight(f))
    p = survival_probability(model, mu, t)
    if lam == 0.0:
        return YaglomResult(1.0, target, p, lam, t)
    traj = solve_log_laplace(model, lam * f / t, t)
    value = 1.0 - (-math.expm1(-pairing(traj.final, mu))) / p
    return YaglomResult(value, target, p, lam, t)


def nu_slope_estimate(
    model: SuperprocessModel,
    sd: SpectralData,
    f,
    delta: float,
    n: int,
) -> float:
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
    traj = solve_log_laplace(model, f, horizon)
    wt = sd.psi_weight(traj.final)
    return (1.0 / wt - 1.0 / w0) / horizon


# ---------------------------------------------------------------------------
# diagnostics used by the property suites

def remainder_identity(
    model: SuperprocessModel,
    traj: LogLaplaceTrajectory,
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the mass-deficit identity at the final time t.

    Direct side: mean-semigroup image minus the solution.  Integral side:
    the integral over [0, t] of T_{t-tau} applied to the nonlinear
    remainder r(u(tau)), by Simpson's rule over each solver step, which
    relies on the grid the solver records: 0, then each step's midpoint
    and end, so every odd-indexed time halves the (uneven) step around it.
    The two sides agree up to quadrature error.
    """
    t = float(traj.t_grid[-1])
    sg = MeanSemigroup(model)
    direct = sg.apply(t, traj.f0) - traj.final
    rem = _remainder(derived_coefficients(model), np.maximum(traj.u_values, 0.0))
    vals = np.einsum("kxy,ky->kx", sg.matrix(t - traj.t_grid), rem)
    width = (traj.t_grid[2::2] - traj.t_grid[:-2:2])[:, None]
    integral = (width / 6.0 * (vals[:-2:2] + 4.0 * vals[1::2] + vals[2::2])).sum(axis=0)
    return direct, integral
