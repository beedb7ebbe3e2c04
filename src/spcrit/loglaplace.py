"""Nonlinear mass evolution: survival, extinction and conditional limits.

The negative log of the Laplace functional of the process solves a
nonlinear evolution equation driven by the spatial generator and the
branching mechanism.  Integrating it gives survival probabilities, the
t*P(survival) limit table, and the finite-time Laplace transforms whose
long-time targets are 1/(1 + nu*lambda*weight).

The equation is integrated by the Dormand-Prince 8(5,3) pair: every step
carries an embedded error estimate, and it stands only if that estimate
is at most a relative TOL_STEP.  The estimate also sizes the steps, which
grow as the solution decays.  The extinction limit, the solution from
infinite data, is integrated in the reciprocal w = 1/u from w = 0, where
nothing is singular, so one integrator serves short solves, long
extinction grids and the transform oracle of ``moments`` alike.
"""

from __future__ import annotations

import math
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
    as_time,
    as_times,
    check_grey_domination,
    derived_coefficients,
    pairing,
)
from .spectral import MeanSemigroup, SpectralData, nu as nu_constant, require_critical

TOL_ODE = 1e-8           # relative accuracy of a solve; slack of its bound checks
# each step's error target: the accepted errors add up over the tens of
# steps of a solve, and the estimate undercounts on steps near the pair's
# stability edge; at 3e-10 the worst final error on seeded random models
# stays at a few 1e-9 or below
TOL_STEP = 3e-10
_JUMP_POWERS = np.arange(2, 8)  # Taylor series of e^{-z} - 1 + z
_JUMP_SERIES = np.array([(-1.0) ** k / math.factorial(k) for k in _JUMP_POWERS])
_MAX_STEPS = 1_000_000   # step budget of one solve
_GROW_MAX = 5.0          # largest step growth per step
_SHRINK_MIN = 0.2        # largest step shrink per step
_FIRST_STEP = 0.25       # first step, in units of 1 / (the local rate)


class SolverError(RuntimeError):
    """An unmet step error target, a negative solution value or a broken bound."""


class LadderError(RuntimeError):
    """No finite extinction limit: Grey's condition beta*b > 0 fails in
    some state, and the solution from infinite initial data stays infinite
    there."""


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


@dataclass(frozen=True)
class StepMeta:
    """How one solve stepped; every step is one Dormand-Prince 8(5,3) step.

    ``dt_max`` and ``dt_min`` are the largest and the smallest accepted
    step (a step clipped to land on a stop counts as taken);
    ``n_steps_fine`` counts the accepted steps, one record each, and
    ``rel_discrepancy`` is the worst error estimate of an accepted step,
    relative to the largest |u| at its end.  ``n_rejected`` counts the
    steps whose estimate exceeded the target and were retried smaller.
    """

    dt_max: float
    dt_min: float
    n_steps_fine: int
    rel_discrepancy: float
    n_rejected: int


@dataclass(frozen=True, eq=False)
class LogLaplaceTrajectory:
    """Solution values on a time grid, starting at the initial field.

    The grid holds 0 and then each accepted step's end, so it is as uneven
    as the steps.
    """

    t_grid: np.ndarray
    u_values: np.ndarray
    step_meta: StepMeta

    @property
    def final(self) -> np.ndarray:
        return self.u_values[-1]


class _BatchSolution(NamedTuple):
    times: np.ndarray        # step end times, excluding 0
    values: np.ndarray       # (n_steps, batch, n) values at the step ends
    at_stops: np.ndarray     # (n_stops, batch, n) values at the stop times
    meta: StepMeta


def _rel_error(block: np.ndarray) -> float:
    """Hairer's blend err5^2 / sqrt(err5^2 + 0.01 err3^2), relative to max|end|.

    ``block`` is the step's (3, batch, n) block of the step end and its 5th-
    and 3rd-order error estimates; each is measured by its largest entry,
    all three in one reduction.  The blend is taken as err5 / hypot(1, 0.1
    err3 / err5), which squares nothing, so estimates near the ends of the
    double range neither underflow to 0 / 0 nor overflow to inf / inf.
    """
    scale, err5, err3 = np.abs(block).max(axis=(1, 2)).tolist()
    if err5 == 0.0:
        return 0.0
    if scale == 0.0:
        return math.inf
    return err5 / math.hypot(1.0, 0.1 * err3 / err5) / scale


def _stop_grid(stops) -> np.ndarray:
    stops = as_times(stops, "horizon", positive=True)
    if not stops.size or np.any(np.diff(stops) <= 0):
        raise ModelError(f"horizon must be a nonempty ascending grid, got {stops}")
    return stops


def _adaptive(
    model: SuperprocessModel,
    f0_batch: np.ndarray,
    stops,
    reciprocal: bool = False,
) -> _BatchSolution:
    """Dormand-Prince 8(5,3) over [0, T] (Hairer, Norsett & Wanner, §II.10).

    Steps are clipped to land on each time of the ascending grid ``stops``
    (ending at T), so one run answers the whole grid.  The batch ``f0_batch``
    is (batch, n) and so are the returned values; the steps run on one
    ``_kernels.Workspace``, state-major.  With ``reciprocal`` the batch is
    w = 1/u and starts from w = 0, where its slope is beta*b.

    The first step is _FIRST_STEP over the local Lipschitz bound of the
    right-hand side; at h*L = 0.25 the pair's estimate on the Riccati
    equation is about 1e-10, so a short solve can end in one step.  Each
    attempt is one 12-stage step whose first stage is the right-hand side
    at the step start, carried over from the previous step's end, so a
    rejected attempt costs 11 right-hand sides and an accepted one 12,
    save the last, whose end slope is never needed.  The step is accepted
    when Hairer's blend of its 5th- and 3rd-order error estimates,
    relative to max|u| over the batch at the step end, is at most
    TOL_STEP; the step end is recorded and the negativity check runs on
    it.  Either way the next h is resized from the estimate with exponent
    1/8.  The whole batch shares one step sequence, so differences across
    the batch keep their cancellation.  A step that cannot pass the check
    before h stops advancing time raises SolverError, as does running out
    of the step budget.
    """
    stops = _stop_grid(stops)
    dc = derived_coefficients(model)
    u = f0_batch.T
    ws = _kernels.Workspace(
        dc.stage_matrix, dc.neg_atom_y, dc.quad, u.shape[1], reciprocal
    )
    _kernels.start_step(ws, u, dc.quad[:, None] if reciprocal else None)
    u_max = float(np.max(u, initial=0.0))
    floor = -1e-12 * max(1.0, u_max)

    T = float(stops[-1])
    rate = _local_rate(dc, u_max)
    h = min(T, _FIRST_STEP / rate if rate > 0 else T)
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
        block = _kernels.dop853_step(ws, h)
        rel = _rel_error(block)
        fac = 0.9 * (TOL_STEP / rel) ** 0.125 if rel > 0.0 else _GROW_MAX
        if not rel <= TOL_STEP:  # a NaN estimate is rejected as well
            n_rejected += 1
            h *= max(_SHRINK_MIN, min(fac, 0.9))
            grow = 1.0
            if t + h == t or h <= 1e-14 * T:
                raise SolverError(
                    f"step error estimate {rel:.3e} at t={t:g} stays "
                    f"above {TOL_STEP:g} down to step {h:.3e}"
                )
            continue
        u = block[0]
        if u.min() < floor:
            raise SolverError(
                f"solution went negative (min {u.min():.3e}); the step is too "
                f"large for this mechanism; negatives are never clipped silently"
            )
        times.append(stop if lands else t + h)
        values.append(u)
        worst = max(worst, rel)
        h_lo, h_hi = min(h_lo, h), max(h_hi, h)
        if lands:
            at_stops.append(u)
            if len(at_stops) == stops.size:
                meta = StepMeta(h_hi, h_lo, len(values), worst, n_rejected)
                return _BatchSolution(
                    np.array(times),
                    np.stack(values).transpose(0, 2, 1),
                    np.stack(at_stops).transpose(0, 2, 1),
                    meta,
                )
        _kernels.start_step(ws, u)
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

    The step adapts: each step carries an embedded error estimate and is
    accepted only when that estimate is at most a relative TOL_STEP.
    The solution is then checked to lie between 0 and the mean-semigroup
    image of the initial field.
    """
    f0 = as_field(model, f0)
    _require("initial field f0", f0, f0 >= 0, ">= 0")
    T = as_time(T, "horizon", positive=True)

    sol = _adaptive(model, f0[None, :], [T])
    t_grid = np.concatenate(([0.0], sol.times))
    u_values = np.concatenate((f0[None, :], sol.values[:, 0, :]), axis=0)

    _check_mean_domination(model, t_grid, u_values, f0)
    return LogLaplaceTrajectory(
        t_grid=t_grid, u_values=u_values, step_meta=sol.meta
    )


def _check_mean_domination(model, t_grid, u_values, f0) -> None:
    """0 <= u <= T_t f0, and the gap is at most e^{Kt} T_t(f0^2).

    Checked at up to 33 record times spread evenly over the grid, all
    evaluated as one semigroup stack; an error names the first offending
    time.
    """
    kbound = derived_coefficients(model).kbound
    idx = np.unique(np.linspace(0, len(t_grid) - 1, 33).astype(int))
    t = np.asarray(t_grid, dtype=float)[idx]
    mats = MeanSemigroup(model).matrix(t)
    mean = mats @ f0
    slack = TOL_ODE * (1.0 + np.abs(mean).max(axis=1))
    gap = mean - u_values[idx]
    above = np.any(gap < -slack[:, None], axis=1)
    # past the double range e^{Kt} or f0^2 make the bound inf, or nan as
    # inf * 0; it then constrains nothing, and no gap exceeds it
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.exp(kbound * t)[:, None] * (mats @ (f0 * f0))
        loose = np.any(gap > bound + slack[:, None], axis=1)
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

    This is v_t, the solution of the evolution equation started from
    infinite data (Grey, J. Appl. Probab. 11, 1974).  It is computed
    exactly at that limit: w = 1/v solves w' = -w^2 F(1/w), with F the
    equation's right-hand side, from w = 0, where the slope is beta*b.
    The adaptive solver integrates w with its usual step error target,
    relative to max|w|, so v carries the relative accuracy of any other
    solve.  An ascending grid of times gives one row per time from a
    single run.

    When beta*b = 0 in some state, Grey's condition fails there: w stays
    0, v is infinite, and LadderError names that state.
    """
    stops = _stop_grid(t)
    dc = derived_coefficients(model)
    if not check_grey_domination(model):
        x = int(np.argmin(dc.quad))
        raise LadderError(
            f"no finite extinction limit at t={stops[0]:g}: beta*b = 0 in "
            f"state {x} ({model.labels[x]!r}), so the solution from infinite "
            f"data stays infinite there"
        )
    w0 = np.zeros((1, model.n_states))
    # a trial step too long for the initial layer can overflow 1/w or
    # e^{y/w}; its error estimate is then not finite and the step is retried
    # shorter, so such a trial is no fault
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sol = _adaptive(model, w0, stops, reciprocal=True)
    v = 1.0 / sol.at_stops[:, 0]
    return v if np.ndim(t) else v[0]


def _survival(w: np.ndarray, mu: np.ndarray) -> float:
    # -expm1(-x) is correctly rounded: 1.0 is the answer once e^{-x} <= 2^-54
    p = -math.expm1(-pairing(w, mu))
    if not 0.0 < p <= 1.0:
        raise SolverError(f"survival probability {p} outside (0, 1]")
    return p


def survival_probability(model: SuperprocessModel, mu, t: float) -> float:
    """Probability the process started from mu is alive at time t."""
    mu = as_measure(model, mu)
    return _survival(neg_log_extinction(model, as_time(t, positive=True)), mu)


@dataclass(frozen=True)
class KolmogorovRow:
    t: float
    p_survival: float
    t_times_p: float


@dataclass(frozen=True)
class KolmogorovReport:
    rows: tuple[KolmogorovRow, ...]
    limit: float


def kolmogorov_table(
    model: SuperprocessModel,
    sd: SpectralData,
    mu,
    t_grid,
) -> KolmogorovReport:
    """t * P(survival) against its constant long-time limit, from one
    extinction solve over the distinct grid times; rows keep the caller's
    order and repeats."""
    require_critical(sd)
    mu = as_measure(model, mu)
    ts = as_times(t_grid, "t_grid", positive=True)
    if not ts.size:
        raise ModelError("t_grid must hold at least one time, got an empty grid")
    limit = pairing(sd.phi0, mu) / nu_constant(model, sd)
    grid, back = np.unique(ts, return_inverse=True)
    ps = [_survival(w, mu) for w in neg_log_extinction(model, grid)]
    rows = tuple(
        KolmogorovRow(float(t), ps[k], float(t) * ps[k]) for t, k in zip(ts, back)
    )
    return KolmogorovReport(rows, limit)


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
    t = as_time(t, positive=True)
    target = 1.0 / (1.0 + nu_constant(model, sd) * lam * sd.psi_weight(f))
    p = survival_probability(model, mu, t)
    traj = solve_log_laplace(model, lam * f / t, t)
    value = 1.0 - (-math.expm1(-pairing(traj.final, mu))) / p
    return YaglomResult(value, target, p, lam, t)
