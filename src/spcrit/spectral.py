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
TOL_NORM = 1e-12      # tolerance on the two normalizations
TOL_CRITICAL = 1e-9   # |lambda0| below this counts as critical


class SpectralError(RuntimeError):
    """Eigensolver failure or violated spectral invariant."""


class NotCriticalError(ValueError):
    """Operation requires a critical model (lambda0 = 0)."""


class MeanSemigroup:
    """Action of exp(t*L) at one time or on a whole grid of times.

    Uses the eigendecomposition of L unless L is near defective, then
    scaling-and-squaring (scipy's order-13 Pade).  A 1-D array of k times
    is evaluated in one array expression as a (k, n, n) stack, so callers
    that need many times take one stack instead of looping.  L and its
    eigensystem come from the model's derived record, so building one
    costs nothing.
    """

    def __init__(self, model: SuperprocessModel):
        self.model = model
        self.L = derived_coefficients(model).L

    @property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(w, V, V^{-1}) with L = V diag(w) V^{-1}, or None when V is
        too ill-conditioned to use and the Pade fallback is in force."""
        return derived_coefficients(self.model).eigensystem

    def matrix(self, t) -> np.ndarray:
        """exp(t*L); entry (x, y) is the mean mass at y started from x.

        A scalar t gives the (n, n) matrix, a 1-D array of k times the
        (k, n, n) stack; t = 0 gives the identity exactly.
        """
        t = as_times(t).reshape(np.shape(t))
        ts = t[..., None, None]
        eig = self.eigensystem
        if eig is not None:
            w, v, vinv = eig
            out = ((v * np.exp(ts * w)) @ vinv).real
        else:
            from scipy.linalg import expm

            out = expm(ts * self.L)
        out[t == 0] = np.eye(self.L.shape[0])
        return out

    def apply(self, t, f: np.ndarray) -> np.ndarray:
        return self.matrix(t) @ f

    def dual_apply(self, t, g: np.ndarray) -> np.ndarray:
        """Adjoint action in the m-weighted inner product."""
        m = self.model.m
        return (np.swapaxes(self.matrix(t), -1, -2) @ (g * m)) / m

    def density(self, t) -> np.ndarray:
        """Kernel q(t,x,y) of the semigroup with respect to m."""
        as_times(t, positive=True)
        return self.matrix(t) / self.model.m


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
    spectral gap, from the model's one eigendecomposition."""
    if dc.eig is None:
        raise SpectralError("the eigensolver did not converge on L")
    w, vr = dc.eig
    scale = max(1.0, float(np.abs(dc.L).max()))
    order = np.argsort(-w.real)
    i0 = order[0]
    lam = w[i0]
    if abs(lam.imag) > 1e-9 * scale:
        raise SpectralError(
            f"leading eigenvalue has nonreal part {lam.imag}; expected a real "
            f"simple principal eigenvalue"
        )
    close = np.abs(w - lam) < 1e-9 * scale
    if close.sum() > 1:
        raise SpectralError(
            f"principal eigenvalue {lam.real} is not simple "
            f"(multiplicity {int(close.sum())})"
        )
    right = vr[:, i0] / np.abs(vr[:, i0]).max()
    if abs(right.imag).max() >= 1e-9:
        raise SpectralError("right eigenvector has a nonreal component")
    right = right.real if right.real.sum() >= 0 else -right.real
    if not np.all(right > 0):
        raise SpectralError(
            "right eigenvector is not strictly positive; "
            "the generator may be reducible"
        )
    if w.size == 1:
        gap = math.inf
    else:
        gap = float(lam.real - w.real[order[1]])
    return float(lam.real), right, gap


def _left_vector(L: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Positive left eigenvector of an irreducible L at the principal
    eigenvalue, up to scale, from the right one phi.

    The Doob transform of L by phi has off-diagonal rates L_xy phi_y /
    phi_x and zero row sums, and its stationary law pi gives the left
    eigenvector pi / phi.  pi comes from GTH state reduction (Grassmann,
    Taksar & Heyman, Oper. Res. 33(5), 1985): states are censored out one
    at a time, last first, and every pivot is a sum of positive rates and
    every update adds nonnegative terms, so nothing is subtracted.  No
    eigenvalue enters, so the left vector carries no error of lambda0.
    """
    r = L * phi / phi[:, None]  # the diagonal is never read
    n = phi.size
    for k in range(n - 1, 0, -1):
        r[:k, k] /= r[k, :k].sum()
        r[:k, :k] += r[:k, k, None] * r[k, :k]
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ r[:k, k]
    left = pi / phi
    if not np.all(np.isfinite(left) & (left > 0)):
        raise SpectralError("left eigenvector is not finite and strictly positive")
    return left


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
    lambda0, phi0, psi0, gamma = sd.lambda0, sd.phi0, sd.psi0, sd.gamma
    ts = t[:, None, None]
    sg = MeanSemigroup(model)
    m = model.m
    rank_one = np.outer(phi0, psi0)
    eig = sg.eigensystem
    if eig is not None:
        w, v, vinv = eig
        rest = np.arange(w.size) != np.argmax(w.real)
        rates = w[rest] - lambda0 + gamma
        scaled = ((v[:, rest] * np.exp(ts * rates)) @ vinv[rest]).real
    else:
        from scipy.linalg import expm

        eye = np.eye(m.size)
        A = _deflated_generator(sg.L, phi0, psi0, m) + (gamma - lambda0) * eye
        scaled = expm(ts * A) @ (eye - np.outer(phi0, psi0 * m))
    return float((np.abs(scaled) / (rank_one * m)).max(initial=0.0))


def spectral_data(model: SuperprocessModel) -> SpectralData:
    """Principal eigenpair and spectral gap, with the eigen relations and
    normalizations checked; ``fit_expansion_constant`` fits the expansion
    constant from the result."""
    m = model.m
    dc = derived_coefficients(validate_model(model))
    lambda0, right, gamma = _principal_pair(dc)
    left = _left_vector(dc.L, right)

    phi0 = right / math.sqrt(m_inner(right, right, m))
    # psi0 relates to the left eigenvector of L by an elementwise 1/m factor.
    psi0 = (left / m) / np.dot(phi0, left / m * m)

    sg = MeanSemigroup(model)
    grow = math.exp(lambda0)
    for name, vec, img in (
        ("phi0", phi0, sg.apply(1.0, phi0)),
        ("psi0", psi0, sg.dual_apply(1.0, psi0)),
    ):
        rel = np.abs(img - grow * vec) / (grow * vec)
        if rel.max() > TOL_EIG:
            raise SpectralError(
                f"eigen relation for {name} off by relative {rel.max():.3e}"
            )
    if abs(m_inner(phi0, phi0, m) - 1.0) > TOL_NORM:
        raise SpectralError("phi0 normalization drifted beyond tolerance")
    if abs(m_inner(phi0, psi0, m) - 1.0) > TOL_NORM:
        raise SpectralError("phi0/psi0 normalization drifted beyond tolerance")

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
    val = 0.5 * float(np.dot(dc.avar * sd.phi0 * sd.phi0 * sd.psi0, sd.m))
    if not 0 < val < math.inf:
        raise SpectralError(f"nu must be positive and finite, got {val}")
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


def _mode_terms(eig, avar: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Coefficients c[m, i, j] of avar (T_s f)^2 on mode m and e^{(w_i + w_j) s}.

    With L = V diag(w) V^{-1} and g = V^{-1} f, T_s f = V (g e^{w s}), so
    the squared field is a sum of exponentials e^{(w_i + w_j) s} and its
    mode-m component under V^{-1} carries the coefficient c[m, i, j].
    """
    _, v, vinv = eig
    g = vinv @ f
    return np.einsum("mx,x,xi,xj,i,j->mij", vinv, avar, v, v, g, g)


def _variance_profile(model: SuperprocessModel, f: np.ndarray, t: float) -> np.ndarray:
    """Statewise variance of <f, X_t> started from unit mass at each state.

    The profile is the integral over [0, t] of T_{t-s}[avar (T_s f)^2] ds.
    Over the eigenmodes of L each term of ``_mode_terms`` integrates
    e^{w_m (t-s) + (w_i + w_j) s} in closed form.  Near a defective L (the
    mean semigroup's own test) it is ``_block_profile`` of L.
    """
    avar = derived_coefficients(model).avar
    sg = MeanSemigroup(model)
    eig = sg.eigensystem
    if eig is None:
        return _block_profile(sg.L, avar, f, t)
    w, v, _ = eig
    weights = _exp_integral(w[:, None, None], (w[:, None] + w[None, :])[None], t)
    return (v @ np.einsum("mij,mij->m", _mode_terms(eig, avar, f), weights)).real


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
    eig = MeanSemigroup(model).eigensystem
    if eig is None:
        from scipy.linalg import expm

        A = _deflated_generator(dc.L, sd.phi0, sd.psi0, sd.m)
        tail = sd.psi_weight(_block_profile(dc.L, dc.avar, expm(t * A) @ f, 40.0 / sd.gamma))
        P = np.eye(model.n_states) - np.outer(sd.phi0, sd.psi0 * sd.m)
        return tail * sd.phi0 - P @ _block_profile(A, dc.avar, f, t)
    w, v, _ = eig
    p = int(np.argmax(w.real))
    rest = np.arange(w.size) != p
    terms = _mode_terms(eig, dc.avar, f)[:, rest][:, :, rest]
    rates = w[rest, None] + w[None, rest]
    weights = -_exp_integral(w[:, None, None], rates[None], t)
    weights[p] = -np.exp(rates * t) / rates
    return (v @ np.einsum("mij,mij->m", terms, weights)).real


def fluctuation_variance(
    model: SuperprocessModel,
    sd: SpectralData,
    f,
) -> float:
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
