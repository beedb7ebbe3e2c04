"""First and second moments of the mass functionals and the variance limit.

The variance of <f, X_t> is a time integral of the semigroup applied to
the local variance factor times the squared evolved field.  Its closed
form, the gap from its limit sigma_f^2 phi0 and the choice between
eigenmode sums and matrix exponentials all live in ``spectral``; this
module pairs them with measures, bounds them a priori and checks the
limit.  Nothing here uses quadrature.  An independent oracle via second
differences of the log-Laplace transform is provided for cross-checking,
and the long-time variance limit check fits the geometric decay rate of
the cancellation-free deviation from the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loglaplace import _adaptive
from .model import (
    ModelError,
    SuperprocessModel,
    _require,
    as_field,
    as_measure,
    as_time,
    as_times,
    derived_coefficients,
    pairing,
)
from .spectral import (
    MeanSemigroup,
    SpectralData,
    _limit_gap,
    _require_zero_psi_weight,
    _variance_profile,
    fluctuation_variance,
    require_critical,
)


class QuadratureError(RuntimeError):
    """A variance broke its a priori bound by e^{K t} times the mean of f^2."""


def _in_range(name: str, t: float, moment) -> float:
    """``moment()``, or a ModelError naming the moment where its closed
    form overflowed to inf or nan: no float holds its value."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = moment()
    if not math.isfinite(value):
        raise ModelError(f"the {name} of <f, X_t> at t = {t:g} overflows the double range")
    return value


def first_moment(model: SuperprocessModel, f, t: float, mu) -> float:
    """Mean of <f, X_t> started from mu."""
    f = as_field(model, f)
    mu = as_measure(model, mu, allow_zero=True)
    t = as_time(t)
    return _in_range("mean", t, lambda: pairing(MeanSemigroup(model).matrix(t) @ f, mu))


def variance(model: SuperprocessModel, f, t: float, mu, rtol: float = 1e-8) -> float:
    """Variance of <f, X_t> started from mu, in closed form.

    Also enforces the a priori bound by e^{K t} times the mean of f^2.
    ``rtol`` is accepted for existing callers and not used.
    """
    f = as_field(model, f)
    mu = as_measure(model, mu, allow_zero=True)
    t = as_time(t)
    val = _in_range("variance", t, lambda: pairing(_variance_profile(model, f, t), mu))

    kbound = derived_coefficients(model).kbound
    # past the double range e^{Kt} or f^2 make the bound inf, or nan as
    # inf * 0; it then constrains nothing, and no variance exceeds it
    with np.errstate(over="ignore", invalid="ignore"):
        cap = np.exp(kbound * t) * pairing(MeanSemigroup(model).matrix(t) @ (f * f), mu)
    if val > cap * (1.0 + 1e-9) + 1e-12:
        raise QuadratureError(
            f"variance {val:.6e} exceeds its a priori bound {cap:.6e}"
        )
    return val


def second_moment(model: SuperprocessModel, f, t: float, mu) -> float:
    """Second moment of <f, X_t> started from mu."""
    mean = first_moment(model, f, t, mu)
    return variance(model, f, t, mu) + mean * mean


def variance_from_transform(
    model: SuperprocessModel,
    f,
    t: float,
    mu,
) -> float:
    """Independent variance oracle: second difference of the log transform.

    -log E exp(-theta <f, X_t>) is evaluated at theta in {0, h, 2h, 3h},
    h = 1e-4, by the evolution solver over the horizon t > 0; the
    one-sided four-point second difference at 0 gives the negated variance
    with O(h^2) bias.  (The three-point stencil carries an O(h) bias
    proportional to the third moment, which on jump-heavy models exceeds
    the 1e-4 comparison tolerance.)
    """
    f = as_field(model, f)
    mu = as_measure(model, mu, allow_zero=True)
    _require("f", f, f >= 0, ">= 0")
    t = as_time(t, positive=True)
    h = 1e-4
    batch = np.stack([h * f, 2.0 * h * f, 3.0 * h * f])
    # one adaptive step sequence for the whole batch keeps the stencil's
    # cancellation of the solver error
    g1, g2, g3 = (pairing(u, mu) for u in _adaptive(model, batch, [t]).at_stops[0])
    return (5.0 * g1 - 4.0 * g2 + g3) / (h * h)


@dataclass(frozen=True)
class VarianceLimitRow:
    t: float
    var_profile: np.ndarray      # statewise variance at t
    limit_profile: np.ndarray    # sigma_f^2 * phi0
    stable_deviation: float      # max_x |var - limit| / phi0, free of cancellation


@dataclass(frozen=True)
class VarianceLimitReport:
    rows: tuple[VarianceLimitRow, ...]
    fitted_rate: float
    gamma: float

    @property
    def rate_ok(self) -> bool:
        return self.fitted_rate >= 0.8 * self.gamma


class VarianceDecayError(RuntimeError):
    """A deviation was not finite or decayed slower than the gap predicts."""


def variance_limit_check(
    model: SuperprocessModel,
    sd: SpectralData,
    f,
    t_grid,
) -> VarianceLimitReport:
    """Deviation of the statewise variance from sigma_f^2 phi0 over a grid.

    Asserts the deviation is finite at every time and decays geometrically
    at a fitted rate of at least 0.8 times the spectral gap.  The rate is
    fitted on the cancellation-free deviations; the raw differences
    saturate at float noise once the true deviation falls below it.
    """
    f = as_field(model, f)
    require_critical(sd)
    _require_zero_psi_weight(sd, f)
    ts = as_times(t_grid, "t_grid")
    if len(set(ts.tolist())) < 2:
        raise ModelError(
            f"a decay rate needs at least two times that differ, got t_grid = {ts.tolist()}"
        )
    # the variance limit holds past t = 2
    _require("t_grid", ts, ts > 2.0, "> 2")

    limit_profile = fluctuation_variance(model, sd, f) * sd.phi0
    rows = []
    for t in ts:
        profile = _variance_profile(model, f, float(t))
        stable = float(np.abs(_limit_gap(model, sd, f, float(t)) / sd.phi0).max())
        if not math.isfinite(stable):
            raise VarianceDecayError(f"the deviation at t = {t} is not finite: {stable}")
        rows.append(VarianceLimitRow(float(t), profile, limit_profile, stable))

    devs = np.array([r.stable_deviation for r in rows])
    mask = devs > 1e-300
    fitted = math.inf
    if len(set(ts[mask].tolist())) >= 2:
        fitted = float(-np.polyfit(ts[mask], np.log(devs[mask]), 1)[0])
    report = VarianceLimitReport(tuple(rows), fitted, sd.gamma)
    if not report.rate_ok:
        raise VarianceDecayError(
            f"fitted decay rate {fitted:.4f} below 0.8 * gamma = "
            f"{0.8 * sd.gamma:.4f}"
        )
    return report
