"""Mean semigroup, principal eigenpair and the limit-theorem constants.

The mean semigroup acts on field vectors as exp(t*(Q + diag(alpha))) and
evaluates a whole time grid as one stack of matrices.  Its principal
eigenpair (phi0 right, psi0 left in the m-weighted sense), the spectral
gap and the constants nu and sigma_f^2 feed every limit check downstream.
Both constants are closed form: nu is a weighted sum, and sigma_f^2 comes
from one continuous Lyapunov solve with the generator deflated at its
principal eigenvalue (Bartels & Stewart, CACM 15(9), 1972).

The kernel-expansion constant c_expansion is fitted on a time grid from
the deviation of the kernel from its principal product.  That deviation
is summed over the non-principal eigenmodes only, so the principal term
is never subtracted and nothing cancels when e^{-gamma t} falls below
roundoff; with an ill-conditioned eigenbasis it is one matrix exponential
of the deflated generator times the complementary projector (Moler & Van
Loan, SIAM Rev. 45(1), 2003).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .model import (
    BranchingData,
    SuperprocessModel,
    as_field,
    derived_coefficients,
    m_inner,
    validate_model,
)

TOL_EIG = 1e-10       # componentwise relative tolerance on the eigen relations
TOL_NORM = 1e-12      # tolerance on the two normalizations
TOL_CRITICAL = 1e-9   # |lambda0| below this counts as critical
_COND_LIMIT = 1e8     # eigenvector condition number above which we fall back


class SpectralError(RuntimeError):
    """Eigensolver failure or violated spectral invariant."""


class NotCriticalError(ValueError):
    """Operation requires a critical model (lambda0 = 0)."""


def generator_matrix(model: SuperprocessModel) -> np.ndarray:
    """Generator of the mean semigroup: Q + diag(beta*a)."""
    return model.Q + np.diag(derived_coefficients(model).alpha)


class MeanSemigroup:
    """Action of exp(t*L) at one time or on a whole grid of times.

    Uses the eigendecomposition of L when it is well conditioned, otherwise
    scaling-and-squaring (scipy's order-13 Pade).  A 1-D array of k times
    is evaluated in one array expression as a (k, n, n) stack, so callers
    that need many times take one stack instead of looping.  The model
    itself stays immutable.
    """

    def __init__(self, model: SuperprocessModel):
        self.model = model
        self.L = generator_matrix(model)
        self._eig = None
        try:
            w, v = sla.eig(self.L)
            cond = np.linalg.cond(v)
            if np.isfinite(cond) and cond < _COND_LIMIT:
                self._eig = (w, v, sla.inv(v))
        except np.linalg.LinAlgError:
            self._eig = None

    @property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(w, V, V^{-1}) with L = V diag(w) V^{-1}, or None when V is
        too ill-conditioned to use and the Pade fallback is in force."""
        return self._eig

    def matrix(self, t) -> np.ndarray:
        """exp(t*L); entry (x, y) is the mean mass at y started from x.

        A scalar t gives the (n, n) matrix, a 1-D array of k times the
        (k, n, n) stack; t = 0 gives the identity exactly.
        """
        t = np.asarray(t, dtype=float)
        bad = ~(t >= 0)  # NaN too
        if bad.any():
            raise ValueError(f"time must be >= 0, got {float(t[bad].flat[0])}")
        ts = t[..., None, None]
        if self._eig is not None:
            w, v, vinv = self._eig
            out = ((v * np.exp(ts * w)) @ vinv).real
        else:
            out = sla.expm(ts * self.L)
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
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise ValueError(f"density needs t > 0, got {float(t[t <= 0].flat[0])}")
        return self.matrix(t) / self.model.m


def mean_semigroup(model: SuperprocessModel, t: float) -> np.ndarray:
    """Matrix of the mean semigroup at time t (acts by M @ f)."""
    return MeanSemigroup(model).matrix(t)


def density_matrix(model: SuperprocessModel, t: float) -> np.ndarray:
    return MeanSemigroup(model).density(t)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Principal eigendata of the mean semigroup generator.

    phi0 is the positive right eigenvector with unit m-weighted 2-norm,
    psi0 the positive left one normalized against phi0; gamma is the gap
    to the rest of the spectrum's real parts (+inf for one state) and
    c_expansion the fitted constant of the kernel expansion bound.  The
    reference weights m are carried for inner products.
    """

    lambda0: float
    phi0: np.ndarray
    psi0: np.ndarray
    gamma: float
    c_expansion: float
    m: np.ndarray

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        return m_inner(f, g, self.m)

    def psi_weight(self, f: np.ndarray) -> float:
        """The m-weighted pairing of f with psi0."""
        return m_inner(f, self.psi0, self.m)

    @property
    def is_critical(self) -> bool:
        return abs(self.lambda0) <= TOL_CRITICAL


def _principal_pair(L: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Principal eigenvalue, right/left eigenvectors and the spectral gap."""
    w, vl, vr = sla.eig(L, left=True, right=True)
    scale = max(1.0, float(np.abs(L).max()))
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

    def positive_real(vec: np.ndarray, name: str) -> np.ndarray:
        v = vec.real if abs(vec.imag).max() < 1e-9 else None
        if v is None:
            raise SpectralError(f"{name} eigenvector has a nonreal component")
        if v.sum() < 0:
            v = -v
        if not np.all(v > 0):
            raise SpectralError(
                f"{name} eigenvector is not strictly positive; "
                f"the generator may be reducible"
            )
        return v

    right = positive_real(vr[:, i0] / np.abs(vr[:, i0]).max(), "right")
    left = positive_real(vl[:, i0] / np.abs(vl[:, i0]).max(), "left")
    if L.shape[0] == 1:
        gap = math.inf
    else:
        gap = float(lam.real - w.real[order[1]])
    return float(lam.real), right, left, gap


def fit_expansion_constant(
    model: SuperprocessModel,
    lambda0: float,
    phi0: np.ndarray,
    psi0: np.ndarray,
    gamma: float,
    t_grid=None,
) -> float:
    """Smallest constant making the kernel expansion bound hold on the grid.

    The bound compared is |q(t,x,y) e^{-lambda0 t} - phi0(x) psi0(y)| <=
    c e^{-gamma t} phi0(x) psi0(y), fitted as the max ratio over a log grid.
    The default grid is dense enough that oscillating second modes (complex
    eigenvalue pairs, period 2*pi/Im) cannot hide a peak between nodes.

    The deviation is summed over the non-principal eigenmodes of L only,
    each with the rate w - lambda0 + gamma so that e^{-gamma t} is divided
    out in the exponent.  The principal term phi0 psi0^T is never formed,
    so nothing cancels, and the fit stays exact where e^{-gamma t} is
    below roundoff.  With an ill-conditioned eigenbasis the same scaled
    deviation is expm(t (A + gamma I)) (I - P0) / m, where P0 =
    phi0 (psi0 m)^T projects on the principal mode and A = L - lambda0 I -
    c P0 is deflated as in ``_fluctuation_gram``.  All grid times are
    evaluated as one stack.
    """
    if t_grid is None:
        t_grid = np.geomspace(1.0, 40.0, 1025)
    t = np.asarray(t_grid, dtype=float)
    ts = t[:, None, None]
    sg = MeanSemigroup(model)
    m = model.m
    rank_one = np.outer(phi0, psi0)
    if not math.isfinite(gamma):
        # single state: the kernel equals the product exactly
        dev = np.abs(sg.density(t) * np.exp(-lambda0 * ts) - rank_one)
        if dev.max(initial=0.0) > 1e-10 * rank_one.max():
            raise SpectralError("one-state kernel deviates from its eigenproduct")
        return 0.0
    eig = sg.eigensystem
    if eig is not None:
        w, v, vinv = eig
        rest = np.arange(w.size) != np.argmax(w.real)
        rates = w[rest] - lambda0 + gamma
        scaled = ((v[:, rest] * np.exp(ts * rates)) @ vinv[rest]).real
    else:
        eye = np.eye(m.size)
        A = _deflated_generator(sg.L, phi0, psi0, m) + (gamma - lambda0) * eye
        scaled = sla.expm(ts * A) @ (eye - np.outer(phi0, psi0 * m))
    return float((np.abs(scaled) / (rank_one * m)).max(initial=0.0))


def spectral_data(model: SuperprocessModel) -> SpectralData:
    """Principal eigenpair, spectral gap and fitted expansion constant."""
    validate_model(model)
    m = model.m
    L = generator_matrix(model)
    lambda0, right, left, gamma = _principal_pair(L)

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

    c_exp = fit_expansion_constant(model, lambda0, phi0, psi0, gamma)
    phi0.setflags(write=False)
    psi0.setflags(write=False)
    return SpectralData(
        lambda0=lambda0, phi0=phi0, psi0=psi0, gamma=gamma,
        c_expansion=c_exp, m=m,
    )


def criticalize(model: SuperprocessModel) -> SuperprocessModel:
    """Shift the linear coefficient so the principal eigenvalue vanishes."""
    sd = spectral_data(model)
    if abs(sd.lambda0) <= 1e-12:
        return model
    beta = model.branching.beta
    if np.any(beta == 0):
        idx = int(np.argmin(beta))
        raise ValueError(
            f"criticalize needs beta > 0 everywhere; beta[{idx}] = 0"
        )
    shifted = SuperprocessModel(
        space=model.space,
        motion=model.motion,
        branching=BranchingData(
            beta=beta,
            a=model.branching.a - sd.lambda0 / beta,
            b=model.branching.b,
            jumps=model.branching.jumps,
        ),
    )
    residual = spectral_data(shifted).lambda0
    if abs(residual) > 1e-12:
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


def _deflated_generator(
    L: np.ndarray, phi0: np.ndarray, psi0: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """L - c phi0 (psi0 m)^T with c = 1 + 2 ||L||_inf, more than twice the
    spectral radius of L; ``_fluctuation_gram`` says why."""
    shift = 1.0 + 2.0 * float(np.abs(L).sum(axis=1).max())
    return L - shift * np.outer(phi0, psi0 * m)


def _fluctuation_gram(
    model: SuperprocessModel, sd: SpectralData, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deflated generator A and the Gram matrix X of the evolved field.

    A = L - c phi0 (psi0 m)^T moves the principal eigenvalue 0 of a
    critical generator to -c and leaves the rest of the spectrum alone, so
    A is stable and agrees with L on fields of zero psi0-weight.  c exceeds
    twice the spectral radius of L, so the principal mode of A decays
    faster than any product of two other modes: a field propagated by A
    keeps only a principal part no larger than its principal-free one, and
    projecting that part out loses no precision.  For such f,
    X = int_0^inf e^{sA} f f^T e^{sA^T} ds solves A X + X A^T = -f f^T,
    and diag(e^{tA} X e^{tA^T}) is the integral of (T_s f)^2 over [t, inf).
    """
    f = f - sd.psi_weight(f) * sd.phi0
    A = _deflated_generator(generator_matrix(model), sd.phi0, sd.psi0, sd.m)
    return A, sla.solve_continuous_lyapunov(A, -np.outer(f, f))


def fluctuation_variance(
    model: SuperprocessModel,
    sd: SpectralData,
    f,
) -> float:
    """Time integral of the psi0-weighted squared evolved field.

    sigma_f^2 = sum_x avar psi0 m diag(X) with X from ``_fluctuation_gram``.
    Requires the psi0-weight of f to vanish; otherwise the integrand tends
    to a positive constant and the integral diverges.
    """
    f = as_field(model, f)
    require_critical(sd)
    weight = sd.psi_weight(f)
    if abs(weight) > 1e-9 * max(1.0, float(np.abs(f).max())):
        raise ValueError(
            f"psi0-weight of f must vanish (got {weight:.3e}); "
            f"project it out first"
        )
    if not np.any(f != 0):
        return 0.0
    if sd.gamma <= 0:
        raise SpectralError(f"spectral gap must be positive, got {sd.gamma}")
    _, X = _fluctuation_gram(model, sd, f)
    avar = derived_coefficients(model).avar
    return float(np.dot(avar * np.diag(X) * sd.psi0, sd.m))
