"""One-step RK4 kernel for the nonlinear mass evolution equation.

The right-hand side is du/dt = Q u - Psi(., u) written with the mechanism
expanded: linear part beta*a*u, quadratic part -beta*b*u^2 and one
exponential term per jump atom, expm1(-z) + z.  Scaled by the step, its
absolute error of about 1e-16*z stays far below the rounding of u, so the
small-z series of ``loglaplace.branching_mechanism`` is not needed here.
Jump atoms arrive padded to a rectangular (n_states, k_max) pair of arrays
with zero weights as filler; the weight array already carries the beta
factor.

The arrays are a few states wide, so a step costs its numpy calls, not
its arithmetic: the stages accumulate in place, and the step may be a
column with one size per row, so that steps of different sizes from the
same state run as one stacked call.  Each row then takes the arithmetic
of a call with its own scalar step; only the BLAS product u @ Q.T may
round its sum differently for a different number of rows.

Everything is plain numpy and deterministic.
"""

from __future__ import annotations

import numpy as np

# no compiled kernel exists; perfbench reads the flag into its run record
HAVE_NUMBA = False


def _rhs_numpy(Q, lin, quad, jy, jw, u):
    out = u @ Q.T
    out += (lin - quad * u) * u
    if jy.shape[1]:
        z = u[:, :, None] * jy
        jump = np.negative(z)
        np.expm1(jump, out=jump)
        jump += z
        out -= np.vecdot(jump, jw)
    return out


def rk4_evolve(Q, lin, quad, jy, jw, u, h, n_steps):
    """Advance u (batch, n) in place by n_steps RK4 steps of size h.

    ``h`` is a scalar or a (batch, 1) column of per-row steps.  The
    adaptive solver makes two calls per attempted step, always with
    n_steps = 1: the coarse step and the first half step as one stacked
    call with the column [h..., h/2...], then the second half step.  The
    parameter stays because perfbench counts kernel steps by reading it as
    the 8th argument of each call.
    """
    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(int(n_steps)):
        k1 = _rhs_numpy(Q, lin, quad, jy, jw, u)
        k2 = _rhs_numpy(Q, lin, quad, jy, jw, u + half * k1)
        k3 = _rhs_numpy(Q, lin, quad, jy, jw, u + half * k2)
        k4 = _rhs_numpy(Q, lin, quad, jy, jw, u + h * k3)
        k2 += k3
        k2 *= 2.0
        k2 += k1 + k4
        k2 *= sixth
        u += k2
