"""One-step RK4 kernel for the nonlinear mass evolution equation.

The right-hand side is du/dt = Q u - Psi(., u) written with the mechanism
expanded: linear part beta*a*u, quadratic part -beta*b*u^2 and one
exponential term per jump atom, expm1(-z) + z.  Scaled by the step, its
absolute error of about 1e-16*z stays far below the rounding of u, so the
small-z series of ``loglaplace.branching_mechanism`` is not needed here.
Jump atoms arrive padded to a rectangular (n_states, k_max) pair of arrays
with zero weights as filler; the weight array already carries the beta
factor.

Everything is plain numpy and deterministic.
"""

from __future__ import annotations

import numpy as np

# no compiled kernel exists; perfbench reads the flag into its run record
HAVE_NUMBA = False


def _rhs_numpy(Q, lin, quad, jy, jw, u):
    out = u @ Q.T + lin * u - quad * u * u
    if jy.shape[1]:
        z = u[:, :, None] * jy[None, :, :]
        out -= (jw[None, :, :] * (np.expm1(-z) + z)).sum(axis=2)
    return out


def rk4_evolve(Q, lin, quad, jy, jw, u, h, n_steps):
    """Advance u (batch, n) in place by n_steps RK4 steps of size h.

    The adaptive solver makes one call per step and per half step, always
    with n_steps = 1.  The parameter stays because perfbench counts kernel
    steps by reading it as the 8th argument of each call.
    """
    h = float(h)
    for _ in range(int(n_steps)):
        k1 = _rhs_numpy(Q, lin, quad, jy, jw, u)
        k2 = _rhs_numpy(Q, lin, quad, jy, jw, u + 0.5 * h * k1)
        k3 = _rhs_numpy(Q, lin, quad, jy, jw, u + 0.5 * h * k2)
        k4 = _rhs_numpy(Q, lin, quad, jy, jw, u + h * k3)
        u += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
