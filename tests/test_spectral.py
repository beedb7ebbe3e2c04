import dataclasses
import math

import numpy as np
import pytest

from spcrit import acceptance
from spcrit.model import (
    ModelError,
    SuperprocessModel,
    derived_coefficients,
    m_inner,
)
from spcrit.spectral import (
    MeanSemigroup,
    NotCriticalError,
    SpectralError,
    _variance_profile,
    criticalize,
    fit_expansion_constant,
    fluctuation_variance,
    nu,
    remove_principal_component,
    require_critical,
    spectral_data,
)

INV_SQRT2 = 2.0 ** -0.5


def with_linear_coefficient(model, a):
    return dataclasses.replace(model, a=a)


# ---------------------------------------------------------------------------
# mean semigroup

def test_semigroup_identity_action(m1):
    np.testing.assert_allclose(MeanSemigroup(m1).matrix(3.0) @ [1.0], [1.0])


def test_semigroup_eigenvector_decay(m2):
    # (1, -1) is an eigenvector of the flip generator with eigenvalue -2
    got = MeanSemigroup(m2).matrix(0.5) @ np.array([1.0, -1.0])
    np.testing.assert_allclose(got, math.exp(-1.0) * np.array([1.0, -1.0]),
                               rtol=1e-12)


def test_semigroup_preserves_constants(m2):
    got = MeanSemigroup(m2).matrix(0.5) @ np.array([1.0, 1.0])
    np.testing.assert_allclose(got, [1.0, 1.0], rtol=1e-12)


def test_semigroup_rejects_negative_time(m2):
    with pytest.raises(ValueError):
        MeanSemigroup(m2).matrix(-0.1)


def test_semigroup_property_and_positivity(rng, monkeypatch, force_expm):
    for _ in range(10):
        model = acceptance.random_model(rng)
        sg = MeanSemigroup(model)
        s, t = rng.uniform(0.1, 3.0, 2)
        np.testing.assert_allclose(
            sg.matrix(s) @ sg.matrix(t), sg.matrix(s + t), atol=1e-10, rtol=1e-10
        )
        f = rng.uniform(0.0, 2.0, model.n_states)
        assert np.all(sg.matrix(t) @ f >= -1e-14)

        # a time grid gives the stack of per-time matrices, through the
        # eigenbasis and through the Pade fallback alike
        ts = np.concatenate(([0.0], rng.uniform(0.0, 10.0, 6)))
        stacks = []
        for pade in (False, True):
            with monkeypatch.context() as mp:
                if pade:
                    force_expm(mp)
                stack = sg.matrix(ts)
                assert stack.shape == (ts.size, model.n_states, model.n_states)
                np.testing.assert_array_equal(stack[0], np.eye(model.n_states))
                for k, tk in enumerate(ts):
                    np.testing.assert_allclose(
                        stack[k], sg.matrix(tk), rtol=1e-13, atol=1e-15
                    )
                stacks.append(stack)
        np.testing.assert_allclose(stacks[0], stacks[1], rtol=1e-10, atol=1e-12)
        with pytest.raises(ValueError, match="-0.5"):
            sg.matrix(np.array([1.0, -0.5, -2.0]))
        with pytest.raises(ValueError, match="nan"):
            sg.matrix(np.array([1.0, np.nan]))


def test_duality_in_the_weighted_inner_product(rng):
    # the semigroup of the m-adjoint generator diag(1/m) L^T diag(m) is the
    # adjoint of exp(t L) in the m-weighted inner product
    import scipy.linalg as sla

    for _ in range(10):
        model = acceptance.random_model(rng)
        m = model.m
        t = float(rng.uniform(0.1, 4.0))
        f = rng.normal(size=model.n_states)
        g = rng.normal(size=model.n_states)
        dual = sla.expm(t * (derived_coefficients(model).L.T * m) / m[:, None])
        lhs = m_inner(MeanSemigroup(model).matrix(t) @ f, g, m)
        rhs = m_inner(f, dual @ g, m)
        assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)


# ---------------------------------------------------------------------------
# kernel with respect to m, matrix(t) / m

def test_density_m1(m1):
    np.testing.assert_allclose(MeanSemigroup(m1).matrix(1.0) / m1.m, [[1.0]])


def test_density_two_state_heat_kernel(m2):
    # closed form for the symmetric flip: (1 +/- e^{-2t})/2
    q = MeanSemigroup(m2).matrix(1.0) / m2.m
    assert q[0, 0] == pytest.approx((1 + math.exp(-2)) / 2, rel=1e-12)
    assert q[0, 1] == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-12)


def test_density_comparability(m2, rng):
    import scipy.linalg as sla

    models = [m2] + [acceptance.random_model(rng) for _ in range(10)]
    for model in models:
        kb = derived_coefficients(model).kbound
        ts = np.array([0.1, 1.0, 5.0])
        for t, p in zip(ts, sla.expm(ts[:, None, None] * model.Q) / model.m):
            q = MeanSemigroup(model).matrix(t) / model.m
            assert np.all(q >= math.exp(-kb * t) * p - 1e-12)
            assert np.all(q <= math.exp(kb * t) * p + 1e-12)


# ---------------------------------------------------------------------------
# principal eigendata

def test_spectral_data_m1(m1):
    sd = spectral_data(m1)
    assert sd.lambda0 == pytest.approx(0.0, abs=1e-14)
    assert math.isinf(sd.gamma)
    np.testing.assert_allclose(sd.phi0, [1.0])
    np.testing.assert_allclose(sd.psi0, [1.0])
    assert fit_expansion_constant(m1, sd) == 0.0


def test_spectral_data_m2(m2):
    sd = spectral_data(m2)
    assert sd.lambda0 == pytest.approx(0.0, abs=1e-14)
    assert sd.gamma == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(sd.phi0, [INV_SQRT2, INV_SQRT2], rtol=1e-12)
    np.testing.assert_allclose(sd.psi0, [INV_SQRT2, INV_SQRT2], rtol=1e-12)
    # the deviation is (1/2) e^{-2t} in every entry, so the constant is 1
    assert fit_expansion_constant(m2, sd) == pytest.approx(1.0, abs=1e-12)


def test_spectral_shift_moves_only_lambda(m2):
    shifted = with_linear_coefficient(m2, [0.3, 0.3])
    sd = spectral_data(shifted)
    assert sd.lambda0 == pytest.approx(0.3, rel=1e-12)
    assert sd.gamma == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(sd.phi0, [INV_SQRT2, INV_SQRT2], rtol=1e-12)


def test_normalizations_on_random_models(rng):
    for _ in range(20):
        model = acceptance.random_model(rng)
        sd = spectral_data(model)
        assert m_inner(sd.phi0, sd.phi0, model.m) == pytest.approx(1.0, abs=1e-12)
        assert m_inner(sd.phi0, sd.psi0, model.m) == pytest.approx(1.0, abs=1e-12)
        assert np.all(sd.phi0 > 0) and np.all(sd.psi0 > 0)
        mat = MeanSemigroup(model).matrix(1.0)
        np.testing.assert_allclose(
            mat @ sd.phi0, math.exp(sd.lambda0) * sd.phi0, rtol=1e-10
        )
        np.testing.assert_allclose(
            mat.T @ (sd.psi0 * model.m) / model.m, math.exp(sd.lambda0) * sd.psi0,
            rtol=1e-10,
        )


def test_left_vector_matches_lapack_left_eigenvector(m1, m2, m3):
    # psi0 from the stationary law of the Doob transform against LAPACK's
    # left eigenvector of L at the principal eigenvalue
    import scipy.linalg

    rng = np.random.default_rng(20260419)
    models = [m1, m2, m3] + [
        acceptance.random_model(rng, n_states=int(rng.integers(1, 9)))
        for _ in range(200)
    ]
    for model in models:
        sd = spectral_data(model)
        w, vl = scipy.linalg.eig(derived_coefficients(model).L, left=True, right=False)
        left = vl[:, np.argmax(w.real)].real / model.m
        psi_ref = left / m_inner(sd.phi0, left, model.m)
        np.testing.assert_allclose(sd.psi0, psi_ref, rtol=1e-12, atol=0)


def killed_birth_death_chain(n, backward):
    """Unit-weight chain stepping up at rate 1 and down at ``backward``;
    every state loses 1 + backward, so both ends are killed.  Its
    eigenvectors grow ill-conditioned fast in n / backward."""
    Q = np.diag(np.ones(n - 1), 1) + backward * np.diag(np.ones(n - 1), -1)
    np.fill_diagonal(Q, -1.0 - backward)
    return SuperprocessModel(
        labels=tuple(f"s{i}" for i in range(n)), m=np.ones(n), Q=Q,
        beta=np.ones(n), a=np.zeros(n), b=np.ones(n), jumps=((),) * n,
    )


@pytest.mark.parametrize("n", [6, 8, 12])
@pytest.mark.parametrize("backward", [1e-2, 1e-3, 1e-4])
def test_spectral_data_on_killed_birth_death_chains(n, backward):
    # non-normal generators, cond(VR) 1e5 to 1e22, all of it scale: with its
    # rows scaled to unit norm VR has cond 2.1 to 4.3, so every chain keeps
    # its eigensystem; spectral_data checks both eigen relations to 1e-10
    model = killed_birth_death_chain(n, backward)
    sd = spectral_data(model)
    assert np.all(sd.phi0 > 0) and np.all(sd.psi0 > 0)
    assert derived_coefficients(model).eigensystem is not None


def three_cycle(delta):
    """The 3-cycle with rates 1, 4 + delta, 1: at delta = 0 its generator
    has characteristic polynomial lambda (lambda + 3)^2 with one Jordan
    block, and its row-equilibrated cond grows like 1 / sqrt(|delta|)."""
    return SuperprocessModel(
        labels=("a", "b", "c"), m=[1.0, 2.0, 0.5],
        Q=[[-1.0, 1.0, 0.0], [0.0, -4.0 - delta, 4.0 + delta], [1.0, 0.0, -1.0]],
        beta=[1.0] * 3, a=[0.0] * 3, b=[1.0, 0.5, 2.0], jumps=([],) * 3,
    )


@pytest.mark.parametrize("delta", [
    0.0, 3e-15, 1e-14, 1e-13, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5,
    1e-4, 1e-2, -1e-12, -1e-9, -1e-6,
])
def test_near_exceptional_point_takes_an_accurate_route(delta, force_expm):
    # with a cond limit of 1e8 spectral_data failed its 1e-10 eigen relation
    # check for delta = 0 ... 1e-12 (cond 9.3e7 ... 3.0e6); at 1e5 it passed,
    # but sigma_f^2 was 4e-7 off and the variance profile 1e-3 at delta = 1e-9
    # (cond 9.5e4), where the fallback agrees with mpmath to 1e-14
    model = three_cycle(delta)
    f = np.array([1.0, -0.3, 0.7])
    sd = spectral_data(model)
    f_tilde = remove_principal_component(f, sd)
    got = [fluctuation_variance(model, sd, f_tilde), *_variance_profile(model, f, 1.0)]
    expm_calls = force_expm()
    by_expm = [fluctuation_variance(model, sd, f_tilde)]
    assert len(expm_calls) > 0
    expm_calls.clear()
    by_expm.extend(_variance_profile(model, f, 1.0))
    assert len(expm_calls) > 0
    np.testing.assert_allclose(got, by_expm, rtol=1e-8, atol=0)


@pytest.mark.parametrize("name", ["phi0", "psi0"])
@pytest.mark.parametrize("eps", [1e-8, 1e-9])
def test_eigen_check_rejects_a_mode_perturbation(name, eps, m2, monkeypatch):
    # the eigen relations are checked by residuals against L; a true vector
    # pushed eps along a non-principal eigenvector must fail that check
    import scipy.linalg

    from spcrit import spectral

    real_pair, real_left = spectral._principal_pair, spectral._left_vector
    rng = np.random.default_rng(20261020)
    models = [m2] + [acceptance.random_model(rng, n_states=3) for _ in range(5)]
    for model in models:
        w, vl, vr = scipy.linalg.eig(derived_coefficients(model).L, left=True)
        k = next(k for k in np.argsort(-w.real)[1:] if w[k].imag == 0)
        mode = (vr if name == "phi0" else vl)[:, k].real
        mode = eps * mode / np.abs(mode).max()

        def pair(dc):
            lam, right, gap = real_pair(dc)
            return lam, right + mode * right.max(), gap

        def left(L, phi):
            vec = real_left(L, phi)
            return vec + mode * vec.max()

        with monkeypatch.context() as mp:
            mp.setattr(spectral, "_principal_pair" if name == "phi0" else "_left_vector",
                       pair if name == "phi0" else left)
            with pytest.raises(SpectralError, match=f"eigen relation for {name} off"):
                spectral_data(model)
        spectral_data(model)


def test_spectral_data_takes_no_exponential(monkeypatch, force_expm):
    # the check needs neither the mean semigroup nor a matrix exponential,
    # even where the eigensystem is refused (the delta = 0 three-cycle)
    model = three_cycle(0.0)
    assert derived_coefficients(model).eigensystem is None
    expm_calls = force_expm()

    def refuse(*args, **kwargs):
        raise AssertionError("mean semigroup built")

    monkeypatch.setattr("spcrit.spectral.MeanSemigroup", refuse)
    monkeypatch.setattr(math, "exp", refuse)
    sd = spectral_data(model)
    assert expm_calls == []
    assert sd.is_critical and np.all(sd.phi0 > 0) and np.all(sd.psi0 > 0)


def test_eigensolver_failure_is_a_spectral_error(monkeypatch):
    # a fresh model builds its derived record under the failing eigensolver
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(SpectralError, match="^the eigensolver did not converge on L$"):
        spectral_data(acceptance.model_m2())


def fast_row(model, x, scale):
    """``model`` with row x of Q times ``scale``: one state far faster."""
    Q = model.Q.copy()
    Q[x] *= scale
    return dataclasses.replace(model, Q=Q)


@pytest.mark.parametrize("change", [
    lambda m: dataclasses.replace(m, a=np.r_[1e12, m.a[1:]]),
    lambda m: dataclasses.replace(m, a=np.r_[m.a[:2], 1e12]),
    lambda m: dataclasses.replace(m, a=np.r_[m.a[:2], -1e4]),
    lambda m: fast_row(m, 1, 1e6),
], ids=["growth-1e12", "growth-1e12-last", "killing-1e4", "fast-row-1e6"])
def test_eigen_check_holds_large_rates(change):
    # the t = 1 semigroup comparison overflows at lambda0 near 1.4e12 and
    # accepts the killing and fast-row pairs; a residual held to TOL_EIG v
    # at unit rate, with only componentwise rounding, rejects the last three
    base = acceptance.random_model(np.random.default_rng(3), 3, critical=True)
    model = change(base)
    sd = spectral_data(model)
    assert np.all(sd.phi0 > 0) and np.all(sd.psi0 > 0)
    assert math.isfinite(sd.lambda0) and math.isfinite(sd.gamma)


def two_state_pair(L, m):
    """lambda0, phi0 and psi0 of a 2-state L in closed form, free of
    cancellation: phi0 ~ (L01, lambda0 - L00), psi0 m ~ (L10, lambda0 - L00)."""
    delta = L[1, 1] - L[0, 0]
    root = math.sqrt(delta * delta + 4.0 * L[0, 1] * L[1, 0])
    gap = (delta + root) / 2 if delta >= 0 else 2 * L[0, 1] * L[1, 0] / (root - delta)
    phi = np.array([L[0, 1], gap])
    left = np.array([L[1, 0], gap]) / m
    phi /= math.sqrt(np.dot(phi * phi, m))
    return L[0, 0] + gap, phi, left / np.dot(phi * left, m)


def test_a_small_entry_of_phi0_leaves_psi0_exact():
    # Q[0][1] = 1e-12 leaves phi0[0] near 1e-12, which LAPACK returns 1e-6
    # off, and its rounding bound far above TOL_EIG: the entry is taken from
    # its row of L - lambda0 before psi0 is built from phi0's ratios; without
    # that, the eigen relation for psi0 failed at 3.8e-6 (exit 1)
    model = SuperprocessModel(
        labels=("a", "b"), m=[1.0, 1.0], Q=[[-1.2, 1e-12], [0.5, -0.5]],
        beta=[1.0, 1.0], a=[0.0, 0.44], b=[1.0, 1.0], jumps=([], []),
    )
    sd = spectral_data(model)
    lam, phi, psi = two_state_pair(derived_coefficients(model).L, model.m)
    assert sd.lambda0 == pytest.approx(lam, rel=1e-14)
    np.testing.assert_allclose(sd.phi0, phi, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sd.psi0, psi, rtol=1e-12, atol=0)


# phi0 and psi0 of random_model(default_rng(3), 3, critical=True) with one
# rate set to 1e12, from an 80-digit mpmath eigensolve of the float L (whose
# entries mpmath holds exactly): the other two entries of each are near
# 1e-12 of the largest, where LAPACK resolves them only normwise
SEED3_ORACLE = {
    ("beta", 1): (
        (4.662537285119202e-13, 1.0813397110328749, 4.214131769049646e-13),
        (1.3407023700219074e-12, 1.0813397110328749, 7.094491238097874e-13),
    ),
    ("a", 1): (
        (4.957844789489963e-13, 1.0813397110328749, 4.481038961358363e-13),
        (1.4256173952075307e-12, 1.0813397110328749, 7.543829521994902e-13),
    ),
    ("a", 2): (
        (5.54055936712478e-13, 6.326834302949575e-13, 0.7665341153605811),
        (2.2883814888195747e-13, 3.758143119608288e-13, 0.7665341153605811),
    ),
}


@pytest.mark.parametrize("name, x", list(SEED3_ORACLE))
def test_small_eigenvector_entries_beside_a_rate_of_1e12(name, x):
    # taken from their rows of L - lambda0 only where psi0's check failed,
    # these entries passed that check with LAPACK's normwise error, 2e-5 to
    # 6e-4 relative; taken always, they hold the oracle to rounding
    base = acceptance.random_model(np.random.default_rng(3), 3, critical=True)
    values = getattr(base, name).copy()
    values[x] = 1e12
    sd = spectral_data(dataclasses.replace(base, **{name: values}))
    phi, psi = SEED3_ORACLE[name, x]
    np.testing.assert_allclose(sd.phi0, phi, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sd.psi0, psi, rtol=1e-12, atol=0)


# lambda0, phi0, psi0, gamma, nu and sigma_f^2 of f = cos(k), k = 0..n-1,
# minus its psi0 part, for m1-m3 and the first 20 draws of
# random_model(default_rng(20261020), critical=True); a change meant to
# keep the spectral data must keep these to rounding
PINNED_CONSTANTS = {
    "m1": (0.0, (1.0,),
           (1.0,),
           math.inf, 0.5, 0.0),
    "m2": (0.0, (0.7071067811865475, 0.7071067811865475),
           (0.7071067811865476, 0.7071067811865476),
           2.0, 0.7071067811865475, 0.037356799498433665),
    "m3": (0.0, (1.0,),
           (1.0,),
           math.inf, 0.5, 0.0),
    "r0": (0.0, (0.345654491509242, 0.5432656210333467, 0.6051101981052993),
           (0.5847659604002381, 0.5356187610112967, 0.5263092709362598),
           1.395174942636945, 0.2759756940486027, 0.3018990046443447),
    "r1": (2.220446049250313e-16, (0.5345197615791691, 0.45370640864245226, 0.46264520338397935),
           (0.5199015304748, 0.4401100187171132, 0.4883288849230828),
           0.9550924772381348, 0.6202425269121472, 0.6923361006640498),
    "r2": (-1.9591369673394266e-16, (0.32596833238247014, 0.6347508919709045, 0.5223976783723634),
           (0.43249071934551814, 0.5791835756347251, 0.5502470066412798),
           1.1326415611636387, 0.3676911746239236, 0.3814229956122874),
    "r3": (-2.7755575615628914e-17, (0.5894970136647433, 0.563614455465917),
           (0.2354746909724357, 0.8176181411168987),
           0.6805061570054411, 0.19737639102126456, 0.010770866437073891),
    "r4": (0.0, (0.6603311386299373, 0.7219939251144936),
           (0.5149320122646869, 0.830121651198148),
           1.4448077315935988, 0.939233331386568, 0.11786434363521923),
    "r5": (-6.093003997829645e-16, (0.5674115723594612, 0.5537010984475274, 0.5176262840387353),
           (0.41492830879130904, 0.6422826230970048, 0.4709021746164485),
           1.0525332937474317, 0.11063477295985628, 0.029592069522173203),
    "r6": (-2.7755575615628914e-17, (0.8390704938126532,),
           (0.8390704938126533,),
           math.inf, 0.9535386478305454, 0.0),
    "r7": (-5.551115123125783e-17, (0.37493725969150116, 0.8795723109437518),
           (0.8674588918344819, 0.635681346579189),
           0.5703858041479795, 0.14322622123740716, 0.20315417108613454),
    "r8": (-2.7755575615628914e-17, (0.835235254737573,),
           (0.8352352547375729,),
           math.inf, 0.3532949943260467, 0.0),
    "r9": (0.0, (0.8567186632410959, 0.42372840332825773),
           (0.699881303145476, 0.8911469436083655),
           1.0751706684635787, 0.4399143337898058, 0.00101991567945093),
    "r10": (-3.5753225153656743e-17, (0.5837562424655209, 0.2758510088579621, 0.5557193156179265),
            (0.5965391841760064, 0.5894664491468625, 0.3773882743810847),
            1.1233951933187738, 0.23476340706527343, 0.1504683173126112),
    "r11": (-5.971914518866418e-17, (0.4527709227122358, 0.44877301649295, 0.7043416991685105),
            (0.6361556608555947, 0.484661424663177, 0.6120242134301781),
            0.6150339702365275, 0.32553977330879924, 0.8145645812140974),
    "r12": (-6.938893903907228e-17, (0.7688482419405999,),
            (0.7688482419406001,),
            math.inf, 0.29059179843100097, 0.0),
    "r13": (6.661338147750939e-16, (0.24995681165273925, 0.605818539129051, 0.5094769746690402),
            (0.45696822419673844, 0.6558103609534753, 0.376052155229322),
            1.1427868991271941, 0.3493890058175004, 0.23999904749284232),
    "r14": (2.220446049250313e-16, (0.7654857708476026, 0.4560889575833568, 0.39356355919562097),
            (0.7015484507853473, 0.4884641136894392, 0.47636396224337785),
            1.013989815687418, 0.665681318000878, 0.23294822289252534),
    "r15": (-4.440892098500626e-16, (0.611837290202144, 0.47811760951255117, 0.11754177702596977),
            (0.6625637145326191, 0.32606638007992594, 0.4587668025958852),
            1.081356131430843, 0.1891047348676778, 0.05534240223286208),
    "r16": (0.0, (0.9497255296500922,),
            (0.9497255296500922,),
            math.inf, 0.7184626834717712, 0.0),
    "r17": (1.1102230246251565e-16, (0.789989550882926, 0.2175250935310977),
            (0.7065355570198666, 0.6057299502344209),
            0.9628599119117415, 0.6321190433592537, 0.05637305993002755),
    "r18": (-4.163336342344337e-17, (0.7693580774223204,),
            (0.7693580774223205,),
            math.inf, 1.0194403953158895, 0.0),
    "r19": (0.0, (0.7457951967158741,),
            (0.745795196715874,),
            math.inf, 0.2734007349124135, 0.0),
}


def test_spectral_constants_keep_their_pinned_values(m1, m2, m3):
    rng = np.random.default_rng(20261020)
    models = {"m1": m1, "m2": m2, "m3": m3}
    models.update((f"r{k}", acceptance.random_model(rng, critical=True)) for k in range(20))
    assert list(models) == list(PINNED_CONSTANTS)
    for key, model in models.items():
        lam, phi, psi, gamma, nu_val, sigma = PINNED_CONSTANTS[key]
        sd = spectral_data(model)
        f = remove_principal_component(np.cos(np.arange(float(model.n_states))), sd)
        # a critical lambda0 is rounding residue, so it is held absolutely
        assert sd.lambda0 == pytest.approx(lam, rel=0, abs=1e-14), key
        np.testing.assert_allclose(sd.phi0, phi, rtol=1e-14, atol=0, err_msg=key)
        np.testing.assert_allclose(sd.psi0, psi, rtol=1e-14, atol=0, err_msg=key)
        got = (sd.gamma, nu(model, sd), fluctuation_variance(model, sd, f))
        np.testing.assert_allclose(got, (gamma, nu_val, sigma), rtol=1e-14, atol=0, err_msg=key)


@pytest.mark.parametrize("m", [1e-300, 1e308])
def test_nu_at_weights_far_from_one(m1, m):
    # one state: phi0 = psi0 = m^{-1/2} and nu = avar / (2 sqrt(m)), 5e149 and
    # 5e-155 here; the old product avar phi0^2 psi0 left the double range
    model = dataclasses.replace(m1, m=[m])
    assert nu(model, spectral_data(model)) == pytest.approx(0.5 / math.sqrt(m), rel=1e-15)


@pytest.mark.parametrize("m, b, got", [(1e-300, 1e300, "inf"), (1e308, 1e-300, "0")])
def test_nu_past_the_double_range_is_named(m1, m, b, got):
    model = dataclasses.replace(m1, m=[m], b=[b])
    with pytest.raises(ModelError, match=rf"^nu = {got} is not finite and > 0"):
        nu(model, spectral_data(model))


def test_expansion_constant_past_the_double_range_is_named():
    # Q[0][1] = 5e-324 leaves a subnormal entry of psi0, and the fit divides
    # by phi0 psi0 m: it overflowed with a RuntimeWarning
    base = acceptance.random_model(np.random.default_rng(0), 2, critical=True)
    Q = base.Q.copy()
    Q[0, 1] = 5e-324
    model = dataclasses.replace(base, Q=Q)
    sd = spectral_data(model)
    assert sd.psi0.min() < np.finfo(float).tiny
    with pytest.raises(ModelError, match="^the kernel expansion constant is inf"):
        fit_expansion_constant(model, sd)


# (n, backward): sigma_f^2 and the stable deviations at t = 3, 6 and 9 / gamma
# of criticalize(killed_birth_death_chain(n, backward)) with f = cos(k),
# k = 0..n-1, minus its psi0 part, t the float k / gamma.  Computed with
# mpmath at 60 digits, and checked to 50 digits at 90: mp.eig of the float
# L, whose entries mpmath holds exactly, psi0 from the principal row of the
# inverse, sigma_f^2 = sum_{i,j != p} K_ij g_i g_j / -(w_i + w_j) with
# K = V^T diag(avar psi0 m) V and g = V^{-1} f, and the variance profile
# from its mode integrals (e^{(w_i + w_j) t} - e^{w_k t}) / (w_i + w_j - w_k)
# minus sigma_f^2 phi0, the cancellation absorbed by the precision.
CHAIN_ORACLE = {
    (6, 1e-2): (3419081.6844752743, (1941674.271509537, 85446.35594476445, 4193.040905899312)),
    (6, 1e-3): (1776167070875.3809, (1053888260917.3997, 45072088727.03556, 2209698190.1404567)),
    (6, 1e-4): (6.109141391229216e+17, (3.748402882370849e+17, 1.5859790362552156e+16, 777030187002820.4)),
    (8, 1e-2): (227140038164.66476, (138305530429.99167, 5755140913.166849, 282120726.44218475)),
    (8, 1e-3): (3.7581976462366484e+18, (2.7085273418968765e+18, 1.0693324029655138e+17, 5219204922317491.0)),
    (8, 1e-4): (9.563427872804307e+25, (7.316601343075589e+25, 2.8307235094318094e+24, 1.3792269726763325e+23)),
    (12, 1e-2): (7.775943444137592e+16, (5.895049996802977e+16, 2222840330899913.5, 108321441978050.0)),
    (12, 1e-3): (1.1504229393153584e+27, (1.0081449221742925e+27, 3.5391173439426277e+25, 1.7148276726315902e+24)),
    (12, 1e-4): (1.8515866043188642e+37, (1.6747146097237345e+37, 5.7496164375476486e+35, 2.7813593815713364e+34)),
}


def critical_chain(n, backward):
    """The criticalized chain, its spectral data and the field of
    ``CHAIN_ORACLE``."""
    model = criticalize(killed_birth_death_chain(n, backward))
    sd = spectral_data(model)
    return model, sd, remove_principal_component(np.cos(np.arange(float(n))), sd)


@pytest.mark.parametrize("n, backward", list(CHAIN_ORACLE))
def test_fluctuation_variance_on_killed_birth_death_chains(n, backward):
    # the closed form on the row-equilibrated eigenbasis; a deflated
    # Lyapunov solve returned 37x too little at (12, 1e-3) and a negative
    # value at (12, 1e-4)
    model, sd, f = critical_chain(n, backward)
    got = fluctuation_variance(model, sd, f)
    assert got == pytest.approx(CHAIN_ORACLE[n, backward][0], rel=1e-10)


def test_expansion_bound_holds_on_the_grid(m2, rng):
    for model in (m2, acceptance.random_model(rng, n_states=3, critical=True)):
        sd = spectral_data(model)
        c = fit_expansion_constant(model, sd)
        assert math.isfinite(c)
        grid = np.geomspace(1.0, 40.0, 33)
        sg = MeanSemigroup(model)
        rank_one = np.outer(sd.phi0, sd.psi0)
        # dev below is formed by subtraction, so it carries an absolute
        # roundoff of about eps * max(q); with the exact constant, m2's
        # bound near t = 10.4 falls inside it
        floor = 1e-13 * rank_one.max()
        for t in grid:
            dev = np.abs(sg.matrix(t) / model.m * math.exp(-sd.lambda0 * t) - rank_one)
            bound = c * math.exp(-sd.gamma * t) * rank_one
            assert np.all(dev <= bound * (1 + 1e-9) + floor)


def test_expansion_fit_fallback_agrees(m2, rng, force_expm):
    # the deflated-expm route against the eigenmode route
    models = [m2] + [
        acceptance.random_model(rng, n_states=int(rng.integers(2, 5)), critical=True)
        for _ in range(20)
    ]
    cases = [(model, spectral_data(model)) for model in models]

    def fits():
        return np.array([fit_expansion_constant(model, sd) for model, sd in cases])

    by_modes = fits()
    expm_calls = force_expm()
    by_expm = fits()
    assert len(expm_calls) == len(cases)
    assert by_modes[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(by_expm, by_modes, rtol=1e-10)


def test_mean_convergence_bound(rng):
    # the kernel expansion bound integrates to the field-level bound
    for _ in range(5):
        model = acceptance.random_model(rng, critical=True)
        sd = spectral_data(model)
        if not math.isfinite(sd.gamma):
            continue
        c = fit_expansion_constant(model, sd)
        sg = MeanSemigroup(model)
        f = rng.normal(size=model.n_states)
        weight = m_inner(f, sd.psi0, model.m)
        abs_weight = m_inner(np.abs(f), sd.psi0, model.m)
        for t in (1.0, 3.0, 10.0):
            dev = np.abs(sg.matrix(t) @ f - weight * sd.phi0)
            bound = c * math.exp(-sd.gamma * t) * abs_weight * sd.phi0
            assert np.all(dev <= bound * (1 + 1e-6) + 1e-12)


# ---------------------------------------------------------------------------
# criticalize

def test_criticalize_shift(m2):
    model = with_linear_coefficient(m2, [0.3, 0.3])
    flat = criticalize(model)
    np.testing.assert_allclose(flat.a, [0.0, 0.0], atol=1e-14)
    assert abs(spectral_data(flat).lambda0) <= 1e-12


def test_criticalize_is_a_fixed_point(m1):
    assert criticalize(m1) is m1


def test_criticalize_asymmetric(m2):
    model = with_linear_coefficient(m2, [0.2, -0.2])
    assert abs(spectral_data(criticalize(model)).lambda0) <= 1e-12


@pytest.mark.parametrize("scale", [1e4, 1e5, 1e6])
def test_criticalize_holds_large_rates_to_the_critical_tolerance(scale):
    # the residual eigenvalue after the shift is roundoff of order
    # scale * 1e-16, far above 1e-12 at these rates; criticalize must
    # succeed exactly when its result passes require_critical
    for seed in range(10):
        raw = acceptance.random_model(np.random.default_rng(seed), 3)
        model = dataclasses.replace(raw, Q=raw.Q * scale, a=raw.a * scale)
        require_critical(spectral_data(criticalize(model)))


def test_eigendata_and_criticalize_do_not_fit_the_expansion(m2, rng, monkeypatch):
    # only the callers that print or check the expansion constant fit it
    def refuse(*args, **kwargs):
        raise AssertionError("expansion constant fitted")

    monkeypatch.setattr("spcrit.spectral.fit_expansion_constant", refuse)
    for raw in (with_linear_coefficient(m2, [0.3, 0.3]), acceptance.random_model(rng)):
        sd = spectral_data(criticalize(raw))
        assert sd.is_critical
        assert not hasattr(sd, "c_expansion")


def test_criticalize_needs_positive_beta(m2):
    model = dataclasses.replace(m2, beta=[1.0, 0.0], a=[0.5, 0.5])
    with pytest.raises(ValueError, match="beta"):
        criticalize(model)


# ---------------------------------------------------------------------------
# constants

def test_nu_values(m1, m2, m3):
    assert nu(m1, spectral_data(m1)) == pytest.approx(0.5, rel=1e-14)
    assert nu(m2, spectral_data(m2)) == pytest.approx(INV_SQRT2, abs=1e-10)
    assert nu(m3, spectral_data(m3)) == pytest.approx(0.5, rel=1e-14)


def test_nu_requires_critical(m2):
    model = with_linear_coefficient(m2, [0.3, 0.3])
    with pytest.raises(NotCriticalError):
        nu(model, spectral_data(model))


def test_projection_examples(m2):
    sd = spectral_data(m2)
    np.testing.assert_allclose(
        remove_principal_component(np.array([1.0, -1.0]), sd), [1.0, -1.0],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        remove_principal_component(np.array([1.0, 1.0]), sd), [0.0, 0.0],
        atol=1e-14,
    )
    # weight of (2, 0) against psi0 is sqrt(2), so sqrt(2)*phi0 = (1, 1) drops
    np.testing.assert_allclose(
        remove_principal_component(np.array([2.0, 0.0]), sd), [1.0, -1.0],
        atol=1e-12,
    )


def test_projection_annihilates_weight_and_is_idempotent(rng):
    for _ in range(20):
        model = acceptance.random_model(rng, critical=True)
        sd = spectral_data(model)
        f = rng.normal(size=model.n_states) * 3.0
        ft = remove_principal_component(f, sd)
        assert abs(m_inner(ft, sd.psi0, model.m)) <= 1e-12 * max(1, np.abs(f).max())
        np.testing.assert_allclose(
            remove_principal_component(ft, sd), ft, atol=1e-12
        )


def test_fluctuation_variance_m2(m2):
    sd = spectral_data(m2)
    got = fluctuation_variance(m2, sd, np.array([1.0, -1.0]))
    assert got == pytest.approx(INV_SQRT2, abs=1e-8)


def test_fluctuation_variance_of_a_field_past_the_square_root_of_the_double_range(m2):
    # V^{-1} f squared overflows at f = 1e154 and gave inf, though
    # sigma_f^2 = 1e308 / sqrt(2) is a double
    sd = spectral_data(m2)
    got = fluctuation_variance(m2, sd, np.array([1e154, -1e154]))
    assert got == pytest.approx(INV_SQRT2 * 1e154 * 1e154, rel=1e-12)


def test_fluctuation_variance_past_the_double_range_is_named(m2):
    sd = spectral_data(m2)
    with pytest.raises(ModelError, match=r"^sigma_f\^2 = inf is not finite: it leaves"):
        fluctuation_variance(m2, sd, np.array([1e155, -1e155]))


def test_fluctuation_variance_zero_field(m2):
    sd = spectral_data(m2)
    assert fluctuation_variance(m2, sd, np.zeros(2)) == 0.0


def test_fluctuation_variance_precondition(m2):
    sd = spectral_data(m2)
    with pytest.raises(ValueError, match="psi0-weight"):
        fluctuation_variance(m2, sd, np.array([1.0, 1.0]))


def test_fluctuation_variance_is_profile_limit(m2, rng):
    # the closed form against the psi0-weight of the finite-t variance
    # profile, whose gap to the limit is e^{-80} at t = 40/gamma
    cases = [(m2, np.array([1.0, -1.0]))]
    for _ in range(20):
        model = acceptance.random_model(
            rng, n_states=int(rng.integers(2, 5)), critical=True
        )
        sd = spectral_data(model)
        cases.append(
            (model, remove_principal_component(rng.normal(size=model.n_states), sd))
        )
    for model, f in cases:
        sd = spectral_data(model)
        profile = _variance_profile(model, f, 40.0 / sd.gamma)
        assert fluctuation_variance(model, sd, f) == pytest.approx(
            sd.psi_weight(profile), rel=1e-10
        )


def test_one_eigendecomposition_per_model(monkeypatch):
    # the derived record is built once per model and every layer reads it
    from spcrit import loglaplace, moments

    base = acceptance.random_model(np.random.default_rng(3), n_states=3, critical=True)
    model = dataclasses.replace(base)
    calls = {"eig": 0, "adaptive": 0}
    real_eig, real_adaptive = np.linalg.eig, loglaplace._adaptive

    def eig(*args, **kwargs):
        calls["eig"] += 1
        return real_eig(*args, **kwargs)

    def adaptive(*args, **kwargs):
        calls["adaptive"] += 1
        return real_adaptive(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", eig)
    monkeypatch.setattr(loglaplace, "_adaptive", adaptive)
    mu = np.array([1.0, 0.5, 0.2])
    g = np.array([0.5, 1.0, 0.2])
    sd = spectral_data(model)
    nu(model, sd)
    f = remove_principal_component(np.array([1.0, -0.5, 0.2]), sd)
    fluctuation_variance(model, sd, f)
    moments.variance_limit_check(model, sd, f, [5.0, 10.0, 15.0])
    loglaplace.solve_log_laplace(model, g, 2.0)
    moments.variance(model, f, 2.0, mu)
    moments.variance_from_transform(model, g, 2.0, mu)
    calls["adaptive"] = 0
    loglaplace.kolmogorov_table(model, sd, mu, [10.0, 100.0])
    assert calls == {"eig": 1, "adaptive": 1}


def test_fit_expansion_constant_refinement_stays_bounded(m2):
    sd = spectral_data(m2)
    dense = fit_expansion_constant(m2, sd, t_grid=np.geomspace(1.0, 40.0, 2049))
    assert dense <= fit_expansion_constant(m2, sd) * 1.10
