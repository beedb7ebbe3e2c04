"""Right-hand side and one-step kernels for the nonlinear mass evolution.

The right-hand side is du/dt = Q u - Psi(., u) written with the mechanism
expanded: linear part beta*a*u, quadratic part -beta*b*u^2 and one
exponential term per jump atom, expm1(-z) + z.  Scaled by the step, its
absolute error of about 1e-16*z stays far below the rounding of u, so the
small-z series of ``loglaplace.branching_mechanism`` is not needed here.
Jump atoms arrive padded to a rectangular (n_states, k_max) pair of arrays
with zero weights as filler; the weight array already carries the beta
factor.

The adaptive solver advances by ``dop853_step``, one Dormand-Prince
8(5,3) step.  ``rk4_evolve`` is the solver's former classical RK4 step;
no library path calls it, and it stays only because the benchmark in
perfbench/ traces it by name.

The arrays are a few states wide, so a step costs its numpy calls, not
its arithmetic: each stage's combination of the earlier slopes is one
matrix product over the flattened batch.  Everything is plain numpy and
deterministic.
"""

from __future__ import annotations

import numpy as np

# no compiled kernel exists; perfbench reads the flag into its run record
HAVE_NUMBA = False

# Dormand-Prince 8(5,3), the tableau of Hairer's dop853.f (Hairer, Norsett &
# Wanner, Solving ODEs I, §II.10): 12 stages, the 8th-order weights B, and
# the error weights of the embedded 5th-order (E5) and 3rd-order (E3)
# estimates.  Row i of A holds a_{i,0..i-1}.  The equation is autonomous,
# so the step never reads the nodes c_i, the row sums of A.
_A = np.zeros((12, 12))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [
    2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
_A[5, :5] = [
    3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
_A[6, :6] = [
    3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2,
]
_A[7, :7] = [
    3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
_A[8, :8] = [
    6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]
_A[9, :9] = [
    4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_A[10, :10] = [
    -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
]
_A[11, :11] = [
    2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
# E3 = B - BHH, Hairer's 3rd-order weights bhh1, bhh2, bhh3 at stages 0, 8, 11
_BHH = np.zeros(12)
_BHH[[0, 8, 11]] = [
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
# the end weights and both error weights, applied to the stages as one product
_WEIGHTS = np.stack([_B, _E5, _B - _BHH])


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


def dop853_step(Q, lin, quad, jy, jw, u, k1, h):
    """One Dormand-Prince 8(5,3) step of size h from u (batch, n).

    ``k1`` is the right-hand side at u, which the caller carries over from
    the previous step's end.  The 11 further stages cost one right-hand
    side each.  Returns the step end and the (2, batch, n) pair of the 5th-
    and 3rd-order error estimates, both already scaled by h.
    """
    k = np.empty((12,) + u.shape)
    k[0] = k1
    flat = k.reshape(12, -1)
    stage = np.empty_like(u)
    flat_stage = stage.reshape(-1)
    ha = h * _A
    for i in range(1, 12):
        np.matmul(ha[i, :i], flat[:i], out=flat_stage)
        stage += u
        k[i] = _rhs_numpy(Q, lin, quad, jy, jw, stage)
    out = (h * _WEIGHTS) @ flat
    end = out[0].reshape(u.shape)
    end += u
    return end, out[1:].reshape((2,) + u.shape)


def rk4_evolve(Q, lin, quad, jy, jw, u, h, n_steps):
    """Advance u (batch, n) in place by n_steps classical RK4 steps of size h.

    ``h`` is a scalar or a (batch, 1) column of per-row steps.  No library
    path calls this; perfbench traces it and reads ``n_steps`` as the 8th
    argument of each call, so it keeps its name and signature.
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
