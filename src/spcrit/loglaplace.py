"""Nonlinear mass evolution: survival, extinction and conditional limits.

The negative log of the Laplace functional of the process solves a
nonlinear evolution equation driven by the spatial generator and the
branching mechanism.  Integrating it gives survival probabilities, the
t*P(survival) limit table, and the finite-time Laplace transforms whose
long-time targets are 1/(1 + nu*lambda*weight).

The equation is integrated by classical RK4 with step doubling: every
step is also taken as two half steps, and it stands only if the two
results agree to a relative TOL_ODE.  By default that check also sizes
the steps, which shrink against large data and grow as the solution
decays, so one integrator serves short solves and the long extinction
ladders alike.  An explicit ``dt`` to ``solve_log_laplace`` selects a
fixed step instead; the extinction ladders always adapt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson

from . import _kernels
from .model import (
    SuperprocessModel,
    as_field,
    as_measure,
    check_grey_domination,
    derived_coefficients,
    pairing,
)
from .spectral import MeanSemigroup, SpectralData, nu as nu_constant, require_critical

TOL_ODE = 1e-8
TOL_LADDER = 1e-6
THETA_LADDER = (1e2, 1e4, 1e6)
_MAX_RECORDS = 4096      # fixed-step mode: records kept over the horizon
_MAX_STEPS = 1_000_000   # adaptive mode: step budget of one solve
_GROW_MAX = 5.0          # adaptive mode: largest step growth per step
_SHRINK_MIN = 0.2        # adaptive mode: largest step shrink per step


class SolverError(RuntimeError):
    """Step-halving disagreement or a negative solution value."""


class LadderError(RuntimeError):
    """The large-initial-data ladder failed to converge."""


# ---------------------------------------------------------------------------
# branching mechanism evaluations

def branching_mechanism(model: SuperprocessModel, x: int, z: float) -> float:
    """Pointwise mechanism beta*(-a z + b z^2 + sum_k w_k (e^{-z y_k}-1+z y_k))."""
    if z < 0:
        raise ValueError(f"mechanism argument must be >= 0, got {z}")
    br = model.branching
    atoms = br.jumps[x]
    jump = float(np.sum(atoms[:, 1] * (np.exp(-z * atoms[:, 0]) - 1.0 + z * atoms[:, 0])))
    return float(br.beta[x] * (-br.a[x] * z + br.b[x] * z * z + jump))


def mechanism_field(model: SuperprocessModel, u: np.ndarray) -> np.ndarray:
    """Mechanism evaluated statewise at u(x)."""
    u = as_field(model, u)
    return np.array(
        [branching_mechanism(model, x, float(u[x])) for x in range(model.n_states)]
    )


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
    if z < 0:
        raise ValueError(f"mechanism argument must be >= 0, got {z}")
    br = model.branching
    dc = derived_coefficients(model)
    remainder = branching_mechanism(model, x, z) + dc.alpha[x] * z
    quad_defect = remainder - 0.5 * dc.avar[x] * z * z
    atoms = br.jumps[x]
    defect_bound = float(
        br.beta[x]
        * np.sum(atoms[:, 1] * atoms[:, 0] ** 2 * np.minimum(1.0, atoms[:, 0] * z / 6.0))
    )
    return RemainderParts(float(remainder), float(quad_defect), defect_bound)


def remainder_field(model: SuperprocessModel, u: np.ndarray) -> np.ndarray:
    """Statewise nonlinear remainder r(x, u(x))."""
    u = as_field(model, u)
    dc = derived_coefficients(model)
    return mechanism_field(model, u) + dc.alpha * u


# ---------------------------------------------------------------------------
# solver plumbing

def _padded_jumps(model: SuperprocessModel) -> tuple[np.ndarray, np.ndarray]:
    br = model.branching
    kmax = max((a.shape[0] for a in br.jumps), default=0)
    n = model.n_states
    jy = np.zeros((n, kmax))
    jw = np.zeros((n, kmax))
    for i, atoms in enumerate(br.jumps):
        k = atoms.shape[0]
        if k:
            jy[i, :k] = atoms[:, 0]
            jw[i, :k] = br.beta[i] * atoms[:, 1]
    return jy, jw


class _Rhs:
    """Precomputed kernel coefficients for one model."""

    def __init__(self, model: SuperprocessModel):
        br = model.branching
        self.Q = np.ascontiguousarray(model.Q)
        self.lin = np.ascontiguousarray(br.beta * br.a)
        self.quad = np.ascontiguousarray(br.beta * br.b)
        self.jy, self.jw = _padded_jumps(model)
        self.qnorm = float(np.abs(model.Q).sum(axis=1).max())
        self.j_y2w = (self.jw * self.jy ** 2).sum(axis=1)
        self.j_yw = (self.jw * self.jy).sum(axis=1)

    def local_rate(self, u_max: float) -> float:
        """Lipschitz bound of the right-hand side at solution scale u_max.

        The jump part's slope saturates at beta*sum(w*y), unlike the
        quadratic part which keeps growing with the solution.
        """
        per_state = (
            np.abs(self.lin)
            + 2.0 * self.quad * u_max
            + np.minimum(self.j_y2w * u_max, self.j_yw)
        )
        return self.qnorm + float(per_state.max())

    def evolve(self, u: np.ndarray, h: float, n_steps: int, rec_steps, rec):
        return _kernels.rk4_evolve(
            self.Q, self.lin, self.quad, self.jy, self.jw,
            u, h, n_steps, rec_steps, rec,
        )


def _check_negative(min_seen: float, u0: np.ndarray) -> None:
    floor = -1e-12 * max(1.0, float(np.max(u0, initial=0.0)))
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


def _check_discrepancy(rec_c: np.ndarray, rec_f: np.ndarray, times) -> float:
    """Max relative gap between the coarse and fine runs at shared times."""
    worst = 0.0
    worst_t = 0.0
    for k in range(rec_c.shape[0]):
        rel = _rel_gap(rec_c[k], rec_f[k])
        if rel > worst:
            worst = rel
            worst_t = float(times[k])
    if worst > TOL_ODE:
        raise SolverError(
            f"step-halving discrepancy {worst:.3e} at t={worst_t:g} exceeds "
            f"{TOL_ODE:g}; decrease dt"
        )
    return worst


@dataclass(frozen=True)
class StepMeta:
    """How one solve stepped; every step runs as a coarse/fine RK4 pair.

    Fixed-step mode (explicit ``dt``): ``dt_requested`` is that dt,
    ``dt_coarse`` the uniform step it was rounded to so that whole steps
    fill the horizon, ``dt_fine`` half of it, ``n_steps_fine`` the fine
    run's step count and ``rel_discrepancy`` the worst relative gap
    between the two runs at the record times.

    Adaptive mode (``dt=None``): ``dt_requested`` is None, ``dt_coarse``
    is the largest accepted coarse step and ``dt_fine`` the smallest
    accepted fine step, so every fine step lies in
    [dt_fine, dt_coarse / 2]; ``n_steps_fine`` counts the fine steps of
    accepted steps (two each) and ``rel_discrepancy`` is the worst gap of
    an accepted step.  That gap bounds the local error of the fine run
    (about gap/15), not of the Richardson-extrapolated step ends, whose
    error is of higher order and carries no separate estimate.
    ``n_rejected`` counts the steps that failed the halving check and were
    retried smaller (always 0 at a fixed step).
    """

    dt_requested: float | None
    dt_coarse: float
    dt_fine: float
    n_steps_fine: int
    rel_discrepancy: float
    n_rejected: int = 0


@dataclass(frozen=True, eq=False)
class LogLaplaceTrajectory:
    """Solution values on a time grid, starting at the initial field.

    The grid is uniform at a fixed step, with the fine run's values.  In
    adaptive mode it holds each accepted step's midpoint and end, so it is
    as uneven as the steps; a midpoint holds the fine run's value and an
    end the Richardson-extrapolated value the next step starts from.
    """

    t_grid: np.ndarray
    u_values: np.ndarray
    f0: np.ndarray
    step_meta: StepMeta

    @property
    def final(self) -> np.ndarray:
        return self.u_values[-1]

    def interp(self, t: float) -> np.ndarray:
        """Linear interpolation on the recorded grid."""
        return np.array(
            [np.interp(t, self.t_grid, self.u_values[:, i])
             for i in range(self.u_values.shape[1])]
        )


class _BatchSolution(NamedTuple):
    times: np.ndarray        # record times, excluding 0
    values: np.ndarray       # (n_rec, batch, n) records
    meta: StepMeta


def _fixed_step(
    rhs: _Rhs,
    f0_batch: np.ndarray,
    T: float,
    dt: float,
    max_records: int = _MAX_RECORDS,
) -> _BatchSolution:
    """Coarse run at a uniform step and fine run at half of it over [0, T].

    The halving check compares the two runs at the records.
    """
    n_req = max(1, int(math.ceil(T / dt - 1e-12)))
    stride = max(1, int(math.ceil(n_req / max_records)))
    # pad to an even number of uniform record intervals: downstream
    # quadrature runs on the recorded grid with composite Simpson
    n_rec = int(math.ceil(n_req / stride))
    if n_rec % 2 and n_rec > 1:
        n_rec += 1
    n_steps = stride * n_rec
    h = T / n_steps
    rec_steps = stride * np.arange(1, n_rec + 1, dtype=np.int64)
    times = rec_steps.astype(float) * h

    batch, n = f0_batch.shape
    rec_c = np.empty((rec_steps.size, batch, n))
    uc = f0_batch.copy()
    min_c = rhs.evolve(uc, h, n_steps, rec_steps, rec_c)

    rec_f = np.empty((rec_steps.size, batch, n))
    uf = f0_batch.copy()
    min_f = rhs.evolve(uf, 0.5 * h, 2 * n_steps, 2 * rec_steps, rec_f)

    disc = _check_discrepancy(rec_c, rec_f, times)
    _check_negative(min(min_c, min_f), f0_batch)
    meta = StepMeta(dt, h, 0.5 * h, 2 * n_steps, disc)
    return _BatchSolution(times, rec_f, meta)


def _adaptive(
    rhs: _Rhs,
    f0_batch: np.ndarray,
    T: float,
) -> _BatchSolution:
    """Step-doubling RK4 over [0, T] (Hairer, Norsett & Wanner, §II.4).

    Each step runs one coarse step of h and two fine steps of h/2 from the
    same state.  It is accepted only when their relative gap is at most
    TOL_ODE.  The fine run's error is then about gap/15, and the step ends
    on the Richardson-extrapolated value fine + (fine - coarse)/15, whose
    error is of higher order; without it the fine run's errors add up over
    the steps to several times TOL_ODE/15.  The fine run's midpoint and the
    extrapolated end are recorded, and the negativity check runs on the
    coarse run, the fine run and the extrapolated end.  A rejected step is
    retried smaller.  Either way the next h is resized from the gap, whose
    leading term grows like h^5.  The whole batch shares one step
    sequence, so differences across the batch keep their cancellation.
    A step that cannot pass the check before h stops advancing time
    raises SolverError, as does running out of the step budget.
    """
    batch, n = f0_batch.shape
    u = f0_batch.copy()
    no_steps = np.empty((0,), dtype=np.int64)
    no_rec = np.empty((0, batch, n))
    mid_end = np.array([1, 2], dtype=np.int64)

    rate = rhs.local_rate(float(np.max(u, initial=0.0)))
    h = min(T, 0.05 / rate if rate > 0 else T)
    t = 0.0
    grow = _GROW_MAX
    times: list[float] = []
    values: list[np.ndarray] = []
    worst = 0.0
    h_lo, h_hi = math.inf, 0.0
    n_rejected = 0
    for _ in range(_MAX_STEPS):
        last = t + h >= T
        if last:
            h = T - t
        uc = u.copy()
        min_c = rhs.evolve(uc, h, 1, no_steps, no_rec)
        uf = u.copy()
        rec = np.empty((2, batch, n))
        min_f = rhs.evolve(uf, 0.5 * h, 2, mid_end, rec)
        gap = _rel_gap(uc, uf)
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
        u = uf + (uf - uc) / 15.0
        rec[1] = u
        _check_negative(min(min_c, min_f, float(u.min())), f0_batch)
        times += [t + 0.5 * h, T if last else t + h]
        values.append(rec)
        worst = max(worst, gap)
        h_lo, h_hi = min(h_lo, h), max(h_hi, h)
        if last:
            meta = StepMeta(
                None, h_hi, 0.5 * h_lo, 2 * len(values), worst, n_rejected
            )
            return _BatchSolution(np.array(times), np.concatenate(values), meta)
        t += h
        h *= min(grow, max(_SHRINK_MIN, fac))
        grow = _GROW_MAX
    raise SolverError(
        f"adaptive integration used {_MAX_STEPS} steps and reached only "
        f"t={t:g} of {T:g}"
    )


def _solve_batch(
    model: SuperprocessModel,
    f0_batch: np.ndarray,
    T: float,
    dt: float | None = None,
) -> _BatchSolution:
    """Integrate a (batch, n) array of initial fields over [0, T].

    Adaptive by default; an explicit dt runs the fixed-step mode.
    """
    rhs = _Rhs(model)
    if dt is None:
        return _adaptive(rhs, f0_batch, T)
    return _fixed_step(rhs, f0_batch, T, float(dt))


def solve_log_laplace(
    model: SuperprocessModel,
    f0,
    T: float,
    dt: float | None = None,
) -> LogLaplaceTrajectory:
    """Integrate the evolution equation from a nonnegative initial field.

    By default the step adapts: every step is taken twice, once whole and
    once as two halves, and is accepted only when the two agree to a
    relative 1e-8.  An explicit ``dt`` instead runs classical RK4 at that
    fixed step over the whole horizon, reruns it at half the step and
    demands the same agreement at the records.  Either way the solution is
    then checked to lie between 0 and the mean-semigroup image of the
    initial field.
    """
    f0 = as_field(model, f0)
    if np.any(f0 < 0):
        idx = int(np.argmin(f0))
        raise ValueError(f"initial field must be >= 0; f0[{idx}] = {f0[idx]}")
    if T <= 0:
        raise ValueError(f"horizon must be > 0, got {T}")
    if dt is not None and dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")

    sol = _solve_batch(model, f0[None, :], T, dt)
    t_grid = np.concatenate(([0.0], sol.times))
    u_values = np.concatenate((f0[None, :], sol.values[:, 0, :]), axis=0)

    _check_mean_domination(model, t_grid, u_values, f0)
    return LogLaplaceTrajectory(
        t_grid=t_grid, u_values=u_values, f0=f0, step_meta=sol.meta
    )


def _check_mean_domination(model, t_grid, u_values, f0, n_checks: int = 33) -> None:
    """0 <= u <= T_t f0, and the gap is at most e^{Kt} T_t(f0^2).

    All check times are evaluated as one semigroup stack; an error names
    the first offending time.
    """
    if not np.any(f0 > 0):
        return
    kbound = derived_coefficients(model).kbound
    idx = np.unique(np.linspace(0, len(t_grid) - 1, n_checks).astype(int))
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
    t: float,
    thetas: tuple[float, ...] = THETA_LADDER,
) -> np.ndarray:
    """Negative log extinction probability by time t, statewise.

    Computed as the large-theta limit of the evolution started from the
    constant field theta, along the ladder (1e2, 1e4, 1e6).  Convergence
    requires the increments between rungs to shrink geometrically (the gap
    to the limit decays like 1/theta) or the Richardson-estimated
    remainder past the last rung to fall below 1e-6 relatively.

    The rungs run as one batch through the adaptive solver, whose steps
    start tiny against the large data and grow as the solution collapses.
    """
    if t <= 0:
        raise ValueError(f"extinction time must be > 0, got {t}")
    if len(thetas) < 3:
        raise ValueError("the ladder needs at least three rungs")
    grey = check_grey_domination(model)
    if not grey:
        warnings.warn(
            "finite-time extinction is not certified (min beta*b = 0); "
            "the ladder may fail to converge",
            stacklevel=2,
        )
    n = model.n_states
    u0 = np.tile(np.asarray(thetas, dtype=float)[:, None], (1, n))
    u = _adaptive(_Rhs(model), u0, t).values[-1]

    for r in range(len(thetas) - 1):
        if np.any(u[r] > u[r + 1] * (1.0 + 1e-9) + 1e-30):
            raise LadderError("ladder is not monotone in the initial level")
    # the gap to the limit decays like 1/theta; the remainder past the last
    # rung is the last increment shrunk by theta[-2]/theta[-1], and healthy
    # convergence shows successive increments shrinking by that same factor
    inc_prev = float(np.abs(u[-2] - u[-3]).max())
    inc_last = float(np.abs(u[-1] - u[-2]).max())
    remainder = inc_last * thetas[-2] / (thetas[-1] - thetas[-2])
    scale = float(np.abs(u[-1]).max())
    small = remainder <= TOL_LADDER * max(scale, 1e-300)
    geometric = inc_prev >= 20.0 * inc_last
    if not (small or geometric):
        raise LadderError(
            f"ladder not converged: estimated remaining gap {remainder:.3e} "
            f"vs scale {scale:.3e}; the mechanism may be too weak"
        )
    return u[-1]


def survival_probability(model: SuperprocessModel, mu, t: float) -> float:
    """Probability the process started from mu is alive at time t."""
    mu = as_measure(model, mu)
    w = neg_log_extinction(model, t)
    p = -math.expm1(-pairing(w, mu))
    if not 0.0 < p < 1.0:
        raise SolverError(f"survival probability {p} outside (0, 1)")
    return p


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
    """t * P(survival) against its constant long-time limit."""
    require_critical(sd)
    mu = as_measure(model, mu)
    limit = pairing(sd.phi0, mu) / nu_constant(model, sd)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        p = survival_probability(model, mu, float(t))
        rows.append(KolmogorovRow(float(t), p, float(t) * p, limit))
    decreasing = all(
        rows[i].p_survival >= rows[i + 1].p_survival - 1e-12
        for i in range(len(rows) - 1)
    )
    return KolmogorovReport(tuple(rows), limit, decreasing)


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
    if np.any(f < 0):
        raise ValueError("the test field must be >= 0")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
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
    if delta <= 0 or n < 1:
        raise ValueError("need delta > 0 and n >= 1")
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
    remainder r(u(tau)), by Simpson's rule on the trajectory's grid as
    recorded.  The grid may be uneven (adaptive steps record each step's
    midpoint and end), which Simpson's rule on uneven nodes handles.
    They agree up to quadrature error.
    """
    t = float(traj.t_grid[-1])
    sg = MeanSemigroup(model)
    direct = sg.apply(t, traj.f0) - traj.final
    rem = np.array(
        [remainder_field(model, np.maximum(u, 0.0)) for u in traj.u_values]
    )
    vals = np.einsum("kxy,ky->kx", sg.matrix(t - traj.t_grid), rem)
    integral = simpson(vals, x=traj.t_grid, axis=0)
    return direct, integral


def principal_profile_gap(sd: SpectralData, u: np.ndarray) -> float:
    """Sup-norm of u normalized by its rank-one principal profile, minus 1."""
    weight = sd.psi_weight(u)
    if weight <= 0:
        raise ValueError("profile gap needs a field with positive psi0-weight")
    return float(np.abs(u / (weight * sd.phi0) - 1.0).max())
