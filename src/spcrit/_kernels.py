"""Right-hand side and one-step kernel for the nonlinear mass evolution.

The right-hand side is du/dt = L u - Psi_nl(., u), with L = Q + diag(beta*a)
the mean-semigroup generator and the nonlinear part of the mechanism
expanded: quadratic part beta*b*u^2 and one exponential term per jump atom,
expm1(-z) + z.  Scaled by the step, its absolute error of about 1e-16*z
stays far below the rounding of u, so the small-z series of
``loglaplace._remainder`` is not needed here.  ``_rhs_reciprocal`` is the
same equation for w = 1/u, which the extinction limit integrates from
w = 0.

The arrays are a few states wide, so a step costs its numpy calls, not
its arithmetic.  A solve therefore lays its batch out state-major, as
(n, batch), and evaluates the right-hand side at a stage s as one matrix
product M S over the stacked stage S = [s; E; q]:

- E holds the compensated jump term e^{-z} - 1 + z of each atom at
  z = y s of its state, formed from -z = -Y s as expm1(-z) - (-z);
- q = (beta*b*s)*s, so the quadratic term is never s*s, which would
  overflow where beta*b*s*s does not;
- M = [[L, 0, 0], [0, -W, -I]], where W puts each atom's weight, times
  beta, on its state.  ``stage_matrices`` builds M and -Y, once per model.

The product writes each slope as two rows, its linear part L s and its
nonlinear part -W E - q, and the tableau repeats each slope's weight for
both.  Summed in one product, L s + (-W E - q) would leave the order of
the sum to the BLAS kernel, and a small nonlinear term added to partial
sums of size |L| |s| is rounded away where L s cancels (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., ch. 4).  That is the
phi0 direction, where L s vanishes and the long-time solution lives: so
summed, a solve on the two-state flip m2 from 1/T to T = 1e17 does not
move off its start.  Apart, L s cancels on its own, and the stage and
the step end add the two parts.  The reciprocal route takes
[[L, 0], [0, W]] on [1/w; E(1/w)], whose second row is 0 without jumps.

A stage is then two products and two multiplies, three calls more with
jumps.  ``Workspace`` holds S, the step start u and the two parts of its
12 slopes, allocated once per solve; ``dop853_step`` advances it by one
Dormand-Prince 8(5,3) step, whose stages each write one slope in place,
and the step end and both error estimates are one more product.  On 2
shared x86 cores with one BLAS thread a step takes about 32 us on the
one-state model m1, 26 us on the two-state m2 and 54 us on the one-atom
jump model m3, as with one summed row per slope, against 47, 42 and
104 us with a separate product, quadratic term and jump sum per stage.
Everything is plain numpy and deterministic.  ``rk4_evolve`` is a
classical RK4 step on the same right-hand side; no library path calls
it, and it stays only because the benchmark in perfbench/ traces it by
name.
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
# the end weights and both error weights
_WEIGHTS = np.stack([_B, _E5, _B - _BHH])
# every combination one step forms, over the workspace rows [u, k_0 .. k_11],
# each slope k_j as its linear and its nonlinear row: row i - 1 is stage i
# (i = 1..11), row 11 the step end and rows 12-13 the two error estimates.
# Both rows of a slope take its weight.  A step scales the slope columns by
# h; column 0, the weight of u, is 1 on the stage rows and the end row and 0
# on the error rows.
_C = np.zeros((14, 25))
_C[:11, 1::2] = _A[1:]
_C[11:, 1::2] = _WEIGHTS
_C[:, 2::2] = _C[:, 1::2]
_C[:12, 0] = 1.0


def stage_matrices(L, jump_y, jump_w):
    """M = [[L, 0, 0], [0, -W, -I]] and -Y over the atoms of nonzero weight.

    ``jump_y`` and ``jump_w`` are the padded (n, k_max) atom sizes and
    weights (times beta), with zero weights as filler.  W (n, atoms) puts
    each atom's weight on its state, and -Y (atoms, n) its size, negated,
    so -Y s is -z at every atom.  A zero-weight atom adds nothing and is
    left out, so its term cannot be inf * 0.
    """
    n = L.shape[0]
    state, slot = np.nonzero(jump_w)
    atom = np.arange(state.size)
    M = np.zeros((2 * n, 2 * n + state.size))
    M[:n, :n] = L
    M[n + state, n + atom] = -jump_w[state, slot]
    M[n:, -n:] = -np.eye(n)
    neg_y = np.zeros((state.size, n))
    neg_y[atom, state] = -jump_y[state, slot]
    return M, neg_y


class Workspace:
    """The arrays one solve steps in, built once per solve.

    ``K`` (25, n*batch) holds the step start u, then the linear and the
    nonlinear row of each of its 12 slopes, each row state-major; ``u`` is
    the start's (n, batch) view and ``parts`` the slopes' (12, 2, n, batch)
    view.  ``S`` is the stacked stage [s; E; q], and the right-hand side
    of slope j is the product of ``M`` and ``operand``, written into
    ``slopes[j]``: all of M and S on the u route, and [[L, 0], [0, W]] on
    [s; E] on the reciprocal route.  A stage value is written into
    ``stage``: s itself on the u route, and a separate w on the reciprocal
    route, whose right-hand side puts 1/w into s.
    """

    def __init__(self, M, neg_y, quad, batch, reciprocal=False):
        n, n_atoms = M.shape[0] // 2, neg_y.shape[0]
        self.reciprocal = reciprocal
        self.neg_y = neg_y if n_atoms else None
        self.quad = quad[:, None]
        self.K = np.zeros((25, n * batch))
        self.u = self.K[0].reshape(n, batch)
        self.parts = self.K[1:].reshape(12, 2, n, batch)
        self.S = np.zeros((2 * n + n_atoms, batch))
        self.s, self.E, self.q = self.S[:n], self.S[n:-n], self.S[-n:]
        self.z = np.zeros_like(self.E)
        # per slope both rows, as the one block its product writes
        self.slopes = list(self.parts.reshape(12, 2 * n, batch))
        if reciprocal:
            self.M = M[:, : n + n_atoms].copy()
            self.M[n:] *= -1.0
            self.operand = self.S[: n + n_atoms]
            self.stage = np.zeros((n, batch))
            # per slope its two parts, which w^2 scales, and the linear part
            self.scaled = list(self.parts)
            self.lin = list(self.parts[:, 0])
        else:
            self.M, self.operand = M, self.S
            self.stage = self.s
        self.stage_flat = self.stage.reshape(-1)
        # the scaled tableau, and per stage its row, the rows of K it
        # combines and the slope it writes
        self.c = np.empty_like(_C)
        self.stages = [
            (self.c[i - 1, : 2 * i + 1], self.K[: 2 * i + 1], i) for i in range(1, 12)
        ]


def _jump_terms(ws):
    """E = e^{-z} - 1 + z at z = y s, one row per atom, via -z in ws.z."""
    np.dot(ws.neg_y, ws.s, out=ws.z)
    np.expm1(ws.z, out=ws.E)
    ws.E -= ws.z


def _rhs(ws, j):
    """Slope j's parts at the stage s, L s and -W E(s) - (beta*b*s)*s, as
    one product M S."""
    s = ws.s
    if ws.neg_y is not None:
        _jump_terms(ws)
    np.multiply(ws.quad, s, out=ws.q)
    ws.q *= s
    np.dot(ws.M, ws.operand, out=ws.slopes[j])


def _rhs_reciprocal(ws, j):
    """Right-hand side of w = 1/u, statewise: w' = -w^2 F(1/w) at w > 0.

    Expanded, beta*b - w^2 L(1/w) + w^2 W E(1/w): the quadratic term is
    the constant beta*b, and the rest is the product [[L, 0], [0, W]]
    [1/w; E(1/w)], scaled by w^2; the first row is then taken from beta*b.
    At w = 0 the value is beta*b, which the caller passes as the first
    slope; w = 0 is never evaluated here.  At large w the jump term's
    rounding, about 1e-16 w y_k w_k in w', adds up to 1e-16 y_k w_k t
    relative by time t.
    """
    w = ws.stage
    np.divide(1.0, w, out=ws.s)
    if ws.neg_y is not None:
        _jump_terms(ws)
    np.dot(ws.M, ws.operand, out=ws.slopes[j])
    scaled, lin = ws.scaled[j], ws.lin[j]
    scaled *= w
    scaled *= w
    np.subtract(ws.quad, lin, out=lin)


def start_step(ws, u, k1=None):
    """Take u (n, batch) as the next step's start, with first slope k1.

    Without ``k1`` the slope is the right-hand side at u, written in place.
    """
    np.copyto(ws.u, u)
    if k1 is not None:
        ws.parts[0, 1] = 0.0
        np.copyto(ws.parts[0, 0], k1)
        return
    np.copyto(ws.stage, u)
    (_rhs_reciprocal if ws.reciprocal else _rhs)(ws, 0)


def dop853_step(ws, h):
    """One Dormand-Prince 8(5,3) step of size h from the workspace's start.

    The start and its slope are in place (``start_step``).  The 11 further
    stages cost one product for the stage value and one call of the
    right-hand side each, written into the slope's rows of ``ws.K``.
    Returns one (3, n, batch) block: the step end, then the 5th- and
    3rd-order error estimates, both already scaled by h.
    """
    c = ws.c
    np.multiply(_C, h, out=c)
    c[:, 0] = _C[:, 0]
    rhs = _rhs_reciprocal if ws.reciprocal else _rhs
    stage = ws.stage_flat
    for row, K, j in ws.stages:
        np.dot(row, K, out=stage)
        rhs(ws, j)
    return np.dot(c[11:], ws.K).reshape((3,) + ws.stage.shape)


def rk4_evolve(Q, lin, quad, jy, jw, u, h, n_steps):
    """Advance u (batch, n) in place by n_steps classical RK4 steps of size h.

    ``h`` is a scalar or a (batch, 1) column of per-row steps.  No library
    path calls this; perfbench traces it and reads ``n_steps`` as the 8th
    argument of each call, so it keeps its name and signature.
    """
    ws = Workspace(*stage_matrices(Q + np.diag(lin), jy, jw), quad, u.shape[0])
    h = np.asarray(h, dtype=float).T
    half = 0.5 * h
    sixth = h / 6.0
    x = u.T.copy()
    s = ws.s
    slopes = ws.parts[:4]
    k1, k2, k3, k4 = slopes[:, 0]

    def rhs(j):
        # slope j's linear row takes the sum of both parts
        _rhs(ws, j)
        slopes[j, 0] += slopes[j, 1]

    for _ in range(int(n_steps)):
        np.copyto(s, x)
        rhs(0)
        np.multiply(half, k1, out=s)
        s += x
        rhs(1)
        np.multiply(half, k2, out=s)
        s += x
        rhs(2)
        np.multiply(h, k3, out=s)
        s += x
        rhs(3)
        k2 += k3
        k2 *= 2.0
        k2 += k1 + k4
        k2 *= sixth
        x += k2
    u[...] = x.T
