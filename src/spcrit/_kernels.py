"""Fixed-step RK4 kernel for the nonlinear mass evolution equation.

The right-hand side is du/dt = Q u - Psi(., u) written with the mechanism
expanded: linear part beta*a*u, quadratic part -beta*b*u^2 and one
exponential term per jump atom.  Jump atoms arrive padded to a rectangular
(n_states, k_max) pair of arrays with zero weights as filler; the weight
array already carries the beta factor.

Everything is plain numpy and deterministic.
"""

from __future__ import annotations

import numpy as np

# no compiled kernel exists; kept for callers that report the build
HAVE_NUMBA = False


def _rhs_numpy(Q, lin, quad, jy, jw, u):
    out = u @ Q.T + lin * u - quad * u * u
    if jy.shape[1]:
        z = u[:, :, None] * jy[None, :, :]
        out -= (jw[None, :, :] * (np.exp(-z) - 1.0 + z)).sum(axis=2)
    return out


def rk4_evolve(Q, lin, quad, jy, jw, u, h, n_steps, rec_steps, rec):
    """Advance u (batch, n) in place by n_steps of size h.

    Records the state after the 1-based step indices in ``rec_steps`` into
    ``rec`` and returns the smallest entry seen after any full step (for
    negativity detection; stage values are not inspected).
    """
    h = float(h)
    min_seen = min(0.0, float(u.min()))
    ptr = 0
    for s in range(int(n_steps)):
        k1 = _rhs_numpy(Q, lin, quad, jy, jw, u)
        k2 = _rhs_numpy(Q, lin, quad, jy, jw, u + 0.5 * h * k1)
        k3 = _rhs_numpy(Q, lin, quad, jy, jw, u + 0.5 * h * k2)
        k4 = _rhs_numpy(Q, lin, quad, jy, jw, u + h * k3)
        u += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        lo = float(u.min())
        if lo < min_seen:
            min_seen = lo
        if ptr < rec_steps.size and s + 1 == rec_steps[ptr]:
            rec[ptr] = u
            ptr += 1
    return min_seen
