"""Mean semigroup, principal eigenpair and the limit-theorem constants.

The mean semigroup acts on field vectors as exp(t*(Q + diag(alpha))) and
evaluates a whole time grid as one stack of matrices.  Its principal
eigenpair (phi0 right, psi0 left in the m-weighted sense), the spectral
gap and the constants nu and sigma_f^2 feed every limit check downstream.
phi0 comes from the model's one eigendecomposition; psi0 from phi0, as
the stationary law of the Doob transform of the generator by phi0,
computed by GTH state reduction without a subtraction (Grassmann, Taksar
& Heyman, Oper. Res. 33(5), 1985).
Both constants are closed form: nu is a weighted sum, and sigma_f^2 is
the gap sigma_f^2 phi0 - Var_t between the variance limit and the
variance profile, taken at t = 0 and weighted by psi0.  This module holds
every second-moment closed form, the profile and that gap: sums over the
eigenmodes of L, or, where only a near-defective generator lacks a usable
eigenbasis, one block matrix exponential (Van Loan, IEEE TAC 23(3), 1978).
No other module chooses between the two.

The kernel-expansion constant is fitted on a time grid, on request only,
from the kernel's non-principal part, so nothing cancels; near a defective
generator that part is one matrix exponential of the deflated generator
times the complementary projector (Moler & Van Loan, SIAM Rev. 45(1), 2003).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DerivedCoefficients,
    ModelError,
    SuperprocessModel,
    _require,
    as_field,
    as_times,
    derived_coefficients,
    m_inner,
    validate_model,
)

TOL_EIG = 1e-10       # componentwise relative tolerance on the eigen relations
TOL_CRITICAL = 1e-9   # |lambda0| below this counts as critical


class SpectralError(RuntimeError):
    """Eigensolver failure or violated spectral invariant."""


class NotCriticalError(ValueError):
    """Operation requires a critical model (lambda0 = 0)."""


class MeanSemigroup:
    """exp(t*L) at one time or on a whole grid of times.

    Uses the eigendecomposition of L unless L is near defective, then
    scaling-and-squaring (scipy's order-13 Pade).  A 1-D array of k times
    is evaluated in one array expression as a (k, n, n) stack.  Callers
    apply the matrix themselves: ``matrix(t) @ f`` is the action on a field
    and ``matrix(t) / m`` the kernel with respect to m.  L and its
    eigensystem come from the model's derived record, so building one
    costs nothing.
    """

    def __init__(self, model: SuperprocessModel):
        self.model = model

    def matrix(self, t) -> np.ndarray:
        """exp(t*L); entry (x, y) is the mean mass at y started from x.

        A scalar t gives the (n, n) matrix, a 1-D array of k times the
        (k, n, n) stack; t = 0 gives the identity exactly.
        """
        t = as_times(t).reshape(np.shape(t))
        ts = t[..., None, None]
        dc = derived_coefficients(self.model)
        if dc.eigensystem is not None:
            w, v, vinv = dc.eigensystem
            out = ((v * np.exp(ts * w)) @ vinv).real
        else:
            from scipy.linalg import expm

            out = expm(ts * dc.L)
        out[t == 0] = np.eye(self.model.n_states)
        return out


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Principal eigendata of the mean semigroup generator.

    phi0 is the positive right eigenvector with unit m-weighted 2-norm,
    psi0 the positive left one normalized against phi0; gamma is the gap
    to the rest of the spectrum's real parts (+inf for one state).  The
    reference weights m are carried for inner products.
    """

    lambda0: float
    phi0: np.ndarray
    psi0: np.ndarray
    gamma: float
    m: np.ndarray

    def psi_weight(self, f: np.ndarray) -> float:
        """The m-weighted pairing of f with psi0."""
        return m_inner(f, self.psi0, self.m)

    @property
    def is_critical(self) -> bool:
        return abs(self.lambda0) <= TOL_CRITICAL


def _principal_pair(dc: DerivedCoefficients) -> tuple[float, np.ndarray, float]:
    """Principal eigenvalue, its positive right eigenvector and the
    spectral gap, from the model's one eigendecomposition.

    L is an irreducible Metzler matrix, so by Perron-Frobenius the
    eigenvalue of largest real part is real and simple and its eigenvector
    is the only positive one: the vector is only required to be finite and
    > 0, and the checks in ``spectral_data`` guard the pair."""
    if dc.eig is None:
        raise SpectralError("the eigensolver did not converge on L")
    w, vr = dc.eig
    order = np.argsort(-w.real)
    i0 = order[0]
    right = vr[:, i0] / np.abs(vr[:, i0]).max()
    right = right.real if right.real.sum() >= 0 else -right.real
    _require_in_range("phi0", right, "the eigensolver cannot resolve it beside the rates of L")
    if w.size == 1:
        gap = math.inf
    else:
        gap = float(w.real[i0] - w.real[order[1]])
    return float(w.real[i0]), right, gap


def _require_in_range(name: str, v: np.ndarray, why: str, m: np.ndarray | None = None) -> None:
    """Reject the first entry of v that is not finite and > 0, naming it
    and, when given, its weight in m."""
    ok = np.isfinite(v) & (v > 0)
    if not ok.all():
        x = int(np.argmin(ok))
        at = "" if m is None else f" at m[{x}] = {m[x]:.3g}"
        raise ModelError(f"{name}[{x}] = {v[x]:.3g}{at} is not finite and > 0: {why}")


def _left_vector(L: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Positive left eigenvector of an irreducible L at the principal
    eigenvalue, up to scale, from the right one phi.

    The Doob transform of L by phi has off-diagonal rates L_xy phi_y /
    phi_x and zero row sums, and its stationary law pi gives the left
    eigenvector pi / phi.  pi comes from GTH state reduction (Grassmann,
    Taksar & Heyman, Oper. Res. 33(5), 1985): states are censored out one
    at a time, last first, and every pivot is a sum of positive rates and
    every update adds nonnegative terms, so nothing is subtracted.  No
    eigenvalue enters, so the left vector carries no error of lambda0.  A
    censored state whose ratio to the states before it overflows is named.
    """
    r = L * phi / phi[:, None]  # the diagonal is never read
    n = phi.size
    for k in range(n - 1, 0, -1):
        r[:k, k] /= r[k, :k].sum()
        if not np.isfinite(r[:k, k]).all():
            raise ModelError(
                "phi0 psi0 m, the stationary law of the Doob transform, leaves the "
                f"double range at state {k}"
            )
        r[:k, :k] += r[:k, k, None] * r[k, :k]
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ r[:k, k]
    return pi / phi


def fit_expansion_constant(model: SuperprocessModel, sd: SpectralData, t_grid=None) -> float:
    """Smallest constant making the kernel expansion bound hold on the grid.

    The bound compared is |q(t,x,y) e^{-lambda0 t} - phi0(x) psi0(y)| <=
    c e^{-gamma t} phi0(x) psi0(y), fitted as the max ratio over a log grid.
    The default grid is dense enough that oscillating second modes (complex
    eigenvalue pairs, period 2*pi/Im) cannot hide a peak between nodes.

    The deviation is summed over the non-principal eigenmodes of L only,
    each with the rate w - lambda0 + gamma so that e^{-gamma t} is divided
    out in the exponent.  The principal term phi0 psi0^T is never formed,
    so nothing cancels where e^{-gamma t} is below roundoff.  Near a
    defective L the same scaled deviation is expm(t (A + gamma I))
    (I - P0) / m, with P0 = phi0 (psi0 m)^T and A the
    ``_deflated_generator`` minus lambda0 I.  All grid times are evaluated
    as one stack.
    """
    if t_grid is None:
        t_grid = np.geomspace(1.0, 40.0, 1025)
    t = as_times(t_grid, "t_grid", positive=True)
    if not t.size:
        raise ModelError("t_grid must hold at least one time, got an empty grid")
    lambda0, phi0, psi0, gamma = sd.lambda0, sd.phi0, sd.psi0, sd.gamma
    ts = t[:, None, None]
    dc = derived_coefficients(model)
    m = model.m
    rank_one = np.outer(phi0, psi0)
    eig = dc.eigensystem
    if eig is not None:
        w, v, vinv = eig
        rest = np.arange(w.size) != np.argmax(w.real)
        rates = w[rest] - lambda0 + gamma
        scaled = ((v[:, rest] * np.exp(ts * rates)) @ vinv[rest]).real
    else:
        from scipy.linalg import expm

        eye = np.eye(m.size)
        A = _deflated_generator(dc.L, phi0, psi0, m) + (gamma - lambda0) * eye
        scaled = expm(ts * A) @ (eye - np.outer(phi0, psi0 * m))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = float((np.abs(scaled) / (rank_one * m)).max(initial=0.0))
    if not c < math.inf:
        raise ModelError(
            f"the kernel expansion constant is {c}: phi0 psi0 m leaves the double range"
        )
    return c


def _eigen_residual(
    A: np.ndarray, vec: np.ndarray, lambda0: float
) -> tuple[np.ndarray, np.ndarray]:
    """Relative residual of A vec = lambda0 vec per entry, and the
    eigensolver's rounding in the same units; the relation holds where the
    residual is at most TOL_EIG plus that rounding."""
    rate = np.maximum(1.0, np.abs(A.diagonal() - lambda0))
    size = float(np.abs(A).sum(axis=1).max()) + abs(lambda0)
    rel = np.abs(A @ vec - lambda0 * vec) / (vec * rate)
    rounding = 64.0 * np.finfo(float).eps * size * vec.max() / (vec * rate)
    return rel, rounding


def spectral_data(model: SuperprocessModel) -> SpectralData:
    """Principal eigenpair and spectral gap, with the eigen relations
    checked; ``fit_expansion_constant`` fits the expansion constant from
    the result.  L phi0 = lambda0 phi0 and L^T (psi0 m) = lambda0 psi0 m
    are checked by their residuals r, with no exponential: r_x moves v_x
    by about r_x / |L_xx - lambda0|, so |r_x| may reach TOL_EIG v_x
    max(1, |L_xx - lambda0|), plus the eigensolver's rounding, 64 eps
    (||L||_inf + |lambda0|) max(v), which small entries cannot resolve.
    Such entries of phi0 are taken from their rows of L - lambda0 before
    psi0 is built from phi0.  lambda0 is also held to the two-sided
    Rayleigh quotient.  Both normalizations hold to rounding by
    construction.  A value past the double range, or one the eigensolver
    cannot resolve beside the rates of L, is a ``ModelError`` that names it."""
    m = model.m
    dc = derived_coefficients(validate_model(model))
    lambda0, right, gamma = _principal_pair(dc)
    # a value past the double range comes out inf, nan or 0 (a subnormal
    # entry's rounding bound inf) and is named by the checks
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # psi0 takes phi0's ratios, so an entry the eigensolver resolves only
        # normwise (rounding above TOL_EIG), unless the largest, is taken from
        # its row of (L - lambda0) phi0 = 0, a sum of nonnegative terms
        small = _eigen_residual(dc.L, right, lambda0)[1] > TOL_EIG
        small[np.argmax(right)] = False
        d = dc.L.diagonal()
        right = np.where(small, ((dc.L - np.diag(d)) @ right) / (lambda0 - d), right)
        left = _left_vector(dc.L, right)
        phi0 = right / math.sqrt(m_inner(right, right, m))
        psi0 = left / m  # the left eigenvector of L over m
        _require_in_range("psi0", psi0, "it leaves the double range", m)
        psi0 = psi0 / np.dot(phi0, psi0 * m)
        for name, A, vec in (("phi0", dc.L, phi0), ("psi0", dc.L.T, psi0 * m)):
            rel, rounding = _eigen_residual(A, vec, lambda0)
            off = rel[~(rel <= TOL_EIG + rounding)]
            if not np.isfinite(off).all():
                raise ModelError(f"the eigen relation for {name} leaves the double range")
            if off.size:
                raise SpectralError(f"eigen relation for {name} off by relative {off.max():.3e}")
        # those bounds let a slow row carry eps ||L||, so lambda0 is also
        # held to the two-sided Rayleigh quotient <psi0, L phi0>_m, the mean
        # of the quotients (L phi0)_x / phi0_x under the weights phi0 psi0 m,
        # which sum to 1; the eigensolver loses lambda0 beside some rates
        # of 1e9
        p = phi0 * (psi0 * m)
        theta = float(p @ (dc.L @ phi0 / phi0))
        rounding = 64.0 * np.finfo(float).eps * float(p @ (np.abs(dc.L) @ phi0 / phi0))
        if not abs(theta - lambda0) <= TOL_EIG * max(1.0, abs(lambda0)) + rounding:
            raise ModelError(
                f"lambda0 = {lambda0:.6g} is {abs(theta - lambda0):.3g} off its Rayleigh "
                f"quotient <psi0, L phi0>_m: the eigensolver cannot resolve it beside "
                f"the rates of L, up to {float(np.abs(dc.L).max()):.3g}"
            )

    phi0.setflags(write=False)
    psi0.setflags(write=False)
    return SpectralData(lambda0=lambda0, phi0=phi0, psi0=psi0, gamma=gamma, m=m)


def criticalize(model: SuperprocessModel) -> SuperprocessModel:
    """Shift the linear coefficient so the principal eigenvalue vanishes.

    The residual is held to TOL_CRITICAL, so the result passes
    ``require_critical`` whenever this returns.
    """
    lambda0 = _principal_pair(derived_coefficients(validate_model(model)))[0]
    if abs(lambda0) <= 1e-12:
        return model
    _require("beta", model.beta, model.beta > 0, "> 0")
    shifted = dataclasses.replace(model, a=model.a - lambda0 / model.beta)
    residual = _principal_pair(derived_coefficients(shifted))[0]
    if abs(residual) > TOL_CRITICAL:
        raise SpectralError(
            f"criticalize left a residual principal eigenvalue {residual:.3e}"
        )
    return shifted


def require_critical(sd: SpectralData) -> None:
    if not sd.is_critical:
        raise NotCriticalError(
            f"model is not critical: lambda0 = {sd.lambda0:.6e}"
        )


def nu(model: SuperprocessModel, sd: SpectralData) -> float:
    """Mean of the exponential limit law: half the psi0-weighted variance
    factor against phi0 squared."""
    require_critical(sd)
    dc = derived_coefficients(model)
    # from psi0 m: each phi0 psi0 m lies in (0, 1], as they sum to 1, so
    # the partial products stay near the terms of nu
    with np.errstate(over="ignore"):
        val = float(np.dot(0.5 * dc.avar * sd.phi0, sd.phi0 * (sd.psi0 * sd.m)))
    if not 0 < val < math.inf:
        raise ModelError(f"nu = {val:.3g} is not finite and > 0: it leaves the double range")
    return val


def remove_principal_component(f: np.ndarray, sd: SpectralData) -> np.ndarray:
    """Project out the phi0 direction so the psi0-weight vanishes."""
    return f - sd.psi_weight(f) * sd.phi0


def _require_zero_psi_weight(sd: SpectralData, f: np.ndarray) -> None:
    """Reject a field whose psi0-weight does not vanish to 1e-9 relative."""
    weight = sd.psi_weight(f)
    if abs(weight) > 1e-9 * max(1.0, float(np.abs(f).max())):
        raise ModelError(
            f"psi0-weight of f must vanish (got {weight:.3e}); "
            f"project it out first"
        )


def _deflated_generator(
    L: np.ndarray, phi0: np.ndarray, psi0: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """L - c phi0 (psi0 m)^T with c = 1 + 2 ||L||_inf, more than twice the
    spectral radius of L.  It moves a critical L's principal eigenvalue to
    -c and keeps the rest, so it agrees with L on fields of zero
    psi0-weight and damps a principal part faster than any product of two
    other modes decays: projecting that part out loses no precision."""
    shift = 1.0 + 2.0 * float(np.abs(L).sum(axis=1).max())
    return L - shift * np.outer(phi0, psi0 * m)


def _block_profile(G: np.ndarray, avar: np.ndarray, f: np.ndarray, t: float) -> np.ndarray:
    """int_0^t e^{(t-s) G} [avar (e^{s G} f)^2] ds by one matrix exponential.

    It is the upper-right block of exp(t [[G, diag(avar) D], [0, G (+) G]])
    applied to f (x) f, where G (+) G is the Kronecker sum and D picks out
    the diagonal entries of an n^2 vector (Van Loan, IEEE TAC 23(3), 1978).
    """
    from scipy.linalg import expm

    n = G.shape[0]
    eye = np.eye(n)
    block = np.zeros((n + n * n, n + n * n))
    block[:n, :n] = G
    block[np.arange(n), n + np.arange(n) * (n + 1)] = avar
    block[n:, n:] = np.kron(G, eye) + np.kron(eye, G)
    return expm(t * block)[:n, n:] @ np.kron(f, f)


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


def _mode_terms(eig, avar: np.ndarray, f: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Coefficients c[m, i, j] of avar (T_s f)^2 on mode m and e^{(w_i + w_j) s}.

    With L = V diag(w) V^{-1} and g = V^{-1} f, T_s f = V (g e^{w s}), so
    the squared field is a sum of exponentials e^{(w_i + w_j) s} and its
    mode-m component under V^{-1} carries the coefficient c[m, i, j].
    Only the modes m picked by ``rows`` are built.
    """
    _, v, vinv = eig
    g = vinv @ f
    return np.einsum("mx,x,xi,xj,i,j->mij", vinv[rows], avar, v, v, g, g)


def _variance_profile(model: SuperprocessModel, f: np.ndarray, t: float) -> np.ndarray:
    """Statewise variance of <f, X_t> started from unit mass at each state.

    The profile is the integral over [0, t] of T_{t-s}[avar (T_s f)^2] ds.
    Over the eigenmodes of L each term of ``_mode_terms`` integrates
    e^{w_m (t-s) + (w_i + w_j) s} in closed form.  Near a defective L (the
    mean semigroup's own test) it is ``_block_profile`` of L.
    """
    dc = derived_coefficients(model)
    eig = dc.eigensystem
    if eig is None:
        return _block_profile(dc.L, dc.avar, f, t)
    w, v, _ = eig
    weights = _exp_integral(w[:, None, None], (w[:, None] + w[None, :])[None], t)
    return (v @ np.einsum("mij,mij->m", _mode_terms(eig, dc.avar, f), weights)).real


def _limit_gap(
    model: SuperprocessModel, sd: SpectralData, f: np.ndarray, t: float
) -> np.ndarray:
    """sigma_f^2 phi0 - Var_t for f of zero psi0-weight, without
    cancellation; at t = 0 it is sigma_f^2 phi0.

    Only pairs of non-principal modes enter, at rates r = w_i + w_j.  The
    principal mode takes int_t^inf e^{r s} ds = -e^{r t} / r, every other
    mode minus its profile integral.  Near a defective L the principal part
    is the tail past t, the psi0-weight of ``_block_profile`` of L at
    40 / gamma (e^{-80} short) from e^{tA} f, and the rest is minus the
    block profile of the deflated generator A, projected by
    P = I - phi0 (psi0 m)^T.
    """
    f = remove_principal_component(f, sd)
    dc = derived_coefficients(model)
    eig = dc.eigensystem
    if eig is None:
        from scipy.linalg import expm

        A = _deflated_generator(dc.L, sd.phi0, sd.psi0, sd.m)
        tail = sd.psi_weight(_block_profile(dc.L, dc.avar, expm(t * A) @ f, 40.0 / sd.gamma))
        P = np.eye(model.n_states) - np.outer(sd.phi0, sd.psi0 * sd.m)
        return tail * sd.phi0 - P @ _block_profile(A, dc.avar, f, t)
    w, v, _ = eig
    p = int(np.argmax(w.real))
    rest = np.arange(w.size) != p
    rates = w[rest, None] + w[None, rest]
    principal = -np.exp(rates * t) / rates
    if t > 0:
        live = slice(None)
        weights = -_exp_integral(w[:, None, None], rates[None], t)
        weights[p] = principal
    else:  # every other mode's integral over [0, t] vanishes
        live, weights = [p], principal[None]
    terms = _mode_terms(eig, dc.avar, f, live)[:, rest][:, :, rest]
    return (v[:, live] @ np.einsum("mij,mij->m", terms, weights)).real


def fluctuation_variance(model: SuperprocessModel, sd: SpectralData, f) -> float:
    """sigma_f^2 = int_0^inf <psi0 m, avar (T_s f)^2> ds, the psi0-weight
    of ``_limit_gap`` at t = 0.

    Requires the psi0-weight of f to vanish; otherwise the integrand tends
    to a positive constant and the integral diverges.
    """
    f = as_field(model, f)
    require_critical(sd)
    _require_zero_psi_weight(sd, f)
    if sd.gamma <= 0:
        raise SpectralError(f"spectral gap must be positive, got {sd.gamma}")
    return sd.psi_weight(_limit_gap(model, sd, f, 0.0))
