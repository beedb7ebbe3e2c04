"""First and second moments of the mass functionals and the variance limit.

The variance of <f, X_t> is a time integral of the semigroup applied to
the local variance factor times the squared evolved field.  In the
eigenbasis of the mean generator that integrand is a sum of exponentials,
so the integral has a closed form; for an ill-conditioned eigenbasis it is
one block matrix exponential (Van Loan, IEEE TAC 23(3), 1978).  The
deviation of the variance from its limit sigma_f^2 phi0 is closed form the
same way, with the principal mode's part written as the tail of the limit
integral, so no large terms cancel.  Nothing here uses quadrature.  An
independent oracle via second differences of the log-Laplace transform is
provided for cross-checking, and the long-time variance limit check fits
the geometric decay rate of the deviation from its constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .loglaplace import _adaptive
from .model import (
    SuperprocessModel,
    as_field,
    as_measure,
    as_times,
    derived_coefficients,
    pairing,
)
from .spectral import (
    MeanSemigroup,
    SpectralData,
    _fluctuation_gram,
    fluctuation_variance,
    require_critical,
)


class QuadratureError(RuntimeError):
    """A variance broke its a priori bound by e^{K t} times the mean of f^2."""


def first_moment(model: SuperprocessModel, f, t: float, mu) -> float:
    """Mean of <f, X_t> started from mu."""
    f = as_field(model, f)
    mu = as_measure(model, mu, allow_zero=True)
    (t,) = as_times(t)
    return pairing(MeanSemigroup(model).apply(t, f), mu)


def _exp_integral(lam: np.ndarray, mu: np.ndarray, t: float) -> np.ndarray:
    """int_0^t exp(lam (t-s) + mu s) ds elementwise, free of cancellation.

    Written as t e^{a t} (e^z - 1)/z with a the rate of larger real part
    and z = (other - a) t, so Re z <= 0 and nearly equal rates lose nothing.
    """
    lead = np.where(lam.real >= mu.real, lam, mu)
    z = (lam + mu - 2.0 * lead) * t
    tiny = z == 0
    safe = np.where(tiny, 1.0, z)
    phi = np.where(tiny, 1.0, np.expm1(safe) / safe)
    return t * np.exp(lead * t) * phi


def _mode_terms(eig, avar: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Coefficients c[m, i, j] of avar (T_s f)^2 on mode m and e^{(w_i + w_j) s}.

    With L = V diag(w) V^{-1} and g = V^{-1} f, T_s f = V (g e^{w s}), so
    the squared field is a sum of exponentials e^{(w_i + w_j) s} and its
    mode-m component under V^{-1} carries the coefficient c[m, i, j].
    """
    _, v, vinv = eig
    g = vinv @ f
    return np.einsum("mx,x,xi,xj,i,j->mij", vinv, avar, v, v, g, g)


def _block_profile(G: np.ndarray, avar: np.ndarray, f: np.ndarray, t: float) -> np.ndarray:
    """int_0^t e^{(t-s) G} [avar (e^{s G} f)^2] ds by one matrix exponential.

    It is the upper-right block of exp(t [[G, diag(avar) D], [0, G (+) G]])
    applied to f (x) f, where G (+) G is the Kronecker sum and D picks out
    the diagonal entries of an n^2 vector (Van Loan, IEEE TAC 23(3), 1978).
    """
    n = G.shape[0]
    eye = np.eye(n)
    block = np.zeros((n + n * n, n + n * n))
    block[:n, :n] = G
    block[np.arange(n), n + np.arange(n) * (n + 1)] = avar
    block[n:, n:] = np.kron(G, eye) + np.kron(eye, G)
    return sla.expm(t * block)[:n, n:] @ np.kron(f, f)


def _variance_profile(model: SuperprocessModel, f: np.ndarray, t: float) -> np.ndarray:
    """Statewise variance of <f, X_t> started from unit mass at each state.

    The profile is the integral over [0, t] of T_{t-s}[avar (T_s f)^2] ds.
    Over the eigenmodes of L each term of ``_mode_terms`` integrates
    e^{w_m (t-s) + (w_i + w_j) s} in closed form.  When the eigenbasis is
    too ill-conditioned (the mean semigroup's own test), the profile is
    ``_block_profile`` of L.
    """
    if t == 0:
        return np.zeros(model.n_states)
    avar = derived_coefficients(model).avar
    sg = MeanSemigroup(model)
    eig = sg.eigensystem
    if eig is None:
        return _block_profile(sg.L, avar, f, t)
    w, v, _ = eig
    weights = _exp_integral(w[:, None, None], (w[:, None] + w[None, :])[None], t)
    return (v @ np.einsum("mij,mij->m", _mode_terms(eig, avar, f), weights)).real


def variance(model: SuperprocessModel, f, t: float, mu, rtol: float = 1e-8) -> float:
    """Variance of <f, X_t> started from mu, in closed form.

    Also enforces the a priori bound by e^{K t} times the mean of f^2.
    ``rtol`` is accepted for existing callers and not used.
    """
    f = as_field(model, f)
    mu = as_measure(model, mu, allow_zero=True)
    (t,) = as_times(t)
    profile = _variance_profile(model, f, t)
    val = pairing(profile, mu)

    kbound = derived_coefficients(model).kbound
    if kbound * t < 700.0 and np.any(f != 0):
        cap = math.exp(kbound * t) * first_moment(model, f * f, t, mu)
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
    if np.any(f < 0):
        raise ValueError("the transform oracle needs f >= 0")
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
    max_rel_deviation: float     # max_x |var - limit| / phi0, raw arithmetic
    stable_deviation: float      # same quantity via the cancellation-free route


@dataclass(frozen=True)
class VarianceLimitReport:
    rows: tuple[VarianceLimitRow, ...]
    sigma_sq: float
    fitted_rate: float
    gamma: float

    @property
    def rate_ok(self) -> bool:
        return self.fitted_rate >= 0.8 * self.gamma


class VarianceDecayError(RuntimeError):
    """Fitted decay rate fell short of the spectral-gap prediction."""


def _stable_deviation(
    model: SuperprocessModel,
    sd: SpectralData,
    f: np.ndarray,
    t: float,
) -> float:
    """max_x |Var - sigma^2 phi0| / phi0 without big-minus-big cancellation.

    With the principal part of f removed, the principal mode of the
    profile carries int_0^t e^{r s} ds per rate r = w_i + w_j, and its
    limit the same integral to infinity; their difference e^{r t} / r is
    small by itself, as are the other modes' terms.  For an
    ill-conditioned eigenbasis, the principal-free part is the block
    profile of the deflated generator A projected by P = I - phi0 (psi0 m)^T,
    and the principal part is minus the tail of the limit integral past t,
    read off the Lyapunov Gram matrix X as diag(e^{tA} X e^{tA^T}).
    """
    f = f - sd.psi_weight(f) * sd.phi0
    avar = derived_coefficients(model).avar
    eig = MeanSemigroup(model).eigensystem
    if eig is not None:
        w, v, _ = eig
        p = int(np.argmax(w.real))
        rest = np.arange(w.size) != p
        terms = _mode_terms(eig, avar, f)[:, rest][:, :, rest]
        rates = w[rest, None] + w[None, rest]
        weights = _exp_integral(w[:, None, None], rates[None], t)
        weights[p] = np.exp(rates * t) / rates
        dev = (v @ np.einsum("mij,mij->m", terms, weights)).real
    else:
        A, X = _fluctuation_gram(model, sd, f)
        E = sla.expm(t * A)
        tail = float(np.dot(avar * np.diag(E @ X @ E.T) * sd.psi0, sd.m))
        P = np.eye(model.n_states) - np.outer(sd.phi0, sd.psi0 * sd.m)
        dev = P @ _block_profile(A, avar, f, t) - tail * sd.phi0
    return float(np.abs(dev / sd.phi0).max())


def variance_limit_check(
    model: SuperprocessModel,
    sd: SpectralData,
    f,
    t_grid,
) -> VarianceLimitReport:
    """Deviation of the statewise variance from sigma_f^2 phi0 over a grid.

    Asserts the deviation decays geometrically at a fitted rate of at least
    0.8 times the spectral gap.  The rate is fitted on the cancellation-free
    deviations; the raw differences saturate at float noise once the true
    deviation falls below it.
    """
    f = as_field(model, f)
    require_critical(sd)
    weight = sd.psi_weight(f)
    if abs(weight) > 1e-9 * max(1.0, float(np.abs(f).max())):
        raise ValueError(
            f"psi0-weight of f must vanish (got {weight:.3e})"
        )
    ts = as_times(t_grid, "t_grid")
    if ts.size < 2:
        raise ValueError(f"a decay rate needs at least two times, got {ts.size}")
    if np.any(ts <= 2.0):
        raise ValueError(
            f"the variance limit holds past t = 2; use t_grid > 2, got {ts[ts <= 2.0][0]}"
        )

    zero_f = not np.any(f != 0)
    sigma_sq = fluctuation_variance(model, sd, f) if not zero_f else 0.0
    rows = []
    for t in ts:
        profile = _variance_profile(model, f, float(t))
        limit_profile = sigma_sq * sd.phi0
        raw = float(np.abs((profile - limit_profile) / sd.phi0).max())
        stable = 0.0 if zero_f else _stable_deviation(model, sd, f, float(t))
        rows.append(VarianceLimitRow(float(t), profile, limit_profile, raw, stable))

    devs = np.array([r.stable_deviation for r in rows])
    mask = devs > 1e-300
    fitted = math.inf
    if mask.sum() >= 2:
        fitted = float(-np.polyfit(ts[mask], np.log(devs[mask]), 1)[0])
    report = VarianceLimitReport(tuple(rows), sigma_sq, fitted, sd.gamma)
    if not report.rate_ok:
        raise VarianceDecayError(
            f"fitted decay rate {fitted:.4f} below 0.8 * gamma = "
            f"{0.8 * sd.gamma:.4f}"
        )
    return report
