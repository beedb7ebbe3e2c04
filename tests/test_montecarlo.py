import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from spcrit import acceptance
from spcrit.loglaplace import survival_probability
from spcrit.model import ModelError, SuperprocessModel, derived_coefficients, is_irreducible
from spcrit.moments import first_moment, variance
from spcrit.montecarlo import (
    _COMPACT_EVERY,
    _GROUP_CHUNKS,
    CHUNK_PATHS,
    ConditionalSamples,
    LimitLaw,
    PathEnsemble,
    SimConfig,
    SimulationError,
    clt_checks,
    conditional_statistics,
    ks_exponential_test,
    _chunk_rng,
    _drift,
    _drift_terms,
    _ks_pvalue,
    _normal_cdf,
    _simulate_group,
    ks_statistic,
    simulate_paths,
)
from spcrit import spectral
from spcrit.spectral import NotCriticalError, spectral_data


def test_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(t_end=1.0, dt=0.0, n_paths=10, seed=1)
    with pytest.raises(SimulationError):
        SimConfig(t_end=0.05, dt=0.1, n_paths=10, seed=1)
    with pytest.raises(SimulationError):
        SimConfig(t_end=1.0, dt=0.1, n_paths=0, seed=1)
    with pytest.raises(SimulationError):
        SimConfig(t_end=1.05, dt=0.1, n_paths=10, seed=1)
    base = dict(t_end=1.0, dt=0.1, n_paths=10, seed=1)
    for field, bad in (
        ("t_end", math.nan), ("t_end", math.inf), ("dt", math.nan),
        ("dt", math.inf), ("n_threads", 0), ("n_threads", -2),
        ("n_paths", 2.5), ("seed", -1), ("seed", 2**64), ("seed", 1.0),
        ("n_paths", True), ("seed", True), ("seed", False), ("n_threads", True),
    ):
        with pytest.raises(SimulationError, match=field):
            SimConfig(**{**base, field: bad})
    with pytest.raises(SimulationError, match="t_end / dt"):
        SimConfig(t_end=1e300, dt=1e-300, n_paths=10, seed=1)
    # bool is an Integral, but no count or seed
    with pytest.raises(SimulationError,
                       match=r"^n_paths must be an integer >= 1, got True$"):
        SimConfig(t_end=1.0, dt=0.1, n_paths=True, seed=False, n_threads=True)
    SimConfig(**base, n_threads=np.int64(2))


def test_zero_mass_start_rejected(m1):
    cfg = SimConfig(t_end=1.0, dt=0.01, n_paths=10, seed=1)
    with pytest.raises(ModelError):
        simulate_paths(m1, [0.0], cfg)


def test_degenerate_branching_model_rejected_upstream(m1):
    # b = 0 with no jumps is already an invalid model construction
    with pytest.raises(ModelError):
        dataclasses.replace(m1, b=[0.0])


def test_noncritical_model_rejected(m2):
    model = dataclasses.replace(m2, a=[0.3, 0.3])
    cfg = SimConfig(t_end=1.0, dt=0.01, n_paths=10, seed=1)
    with pytest.raises(NotCriticalError):
        simulate_paths(model, [1.0, 0.0], cfg)


def test_given_spectral_data_does_not_waive_the_gate(m2):
    # the gate reads the model itself, not the sd a caller passes
    cfg = SimConfig(t_end=1.0, dt=0.01, n_paths=10, seed=1)
    sd = spectral_data(m2)
    with pytest.raises(NotCriticalError, match="not critical"):
        simulate_paths(dataclasses.replace(m2, a=[0.3, 0.3]), [1.0, 0.0], cfg, sd=sd)
    reducible = dataclasses.replace(m2, Q=np.zeros((2, 2)), a=[0.0, 0.0])
    with pytest.raises(ModelError, match="reducible"):
        simulate_paths(reducible, [1.0, 0.0], cfg, sd=sd)


def test_the_gate_checks_the_eigenpair(m2, monkeypatch):
    # simulate_paths gates through spectral_data, eigen checks included
    from spcrit import spectral

    real = spectral._principal_pair

    def pair(dc):
        lam, right, gap = real(dc)
        return lam, right * [1.0, 1.0 + 1e-8], gap

    monkeypatch.setattr(spectral, "_principal_pair", pair)
    cfg = SimConfig(t_end=1.0, dt=0.01, n_paths=10, seed=1)
    with pytest.raises(spectral.SpectralError, match="eigen relation for phi0"):
        simulate_paths(m2, [1.0, 0.0], cfg)


def test_step_stability_guard(m2):
    cfg = SimConfig(t_end=10.0, dt=0.1, n_paths=10, seed=1)
    with pytest.raises(SimulationError, match="dt"):
        simulate_paths(m2, [1.0, 0.0], cfg)


def test_determinism_across_runs_and_threads(m2):
    sd = spectral_data(m2)
    base = dict(t_end=2.0, dt=0.01, n_paths=9000, seed=11)
    a = simulate_paths(m2, [1.0, 0.0], SimConfig(**base), sd=sd)
    b = simulate_paths(m2, [1.0, 0.0], SimConfig(**base), sd=sd)
    c = simulate_paths(m2, [1.0, 0.0], SimConfig(**base, n_threads=4), sd=sd)
    np.testing.assert_array_equal(a.states_at_t, b.states_at_t)
    np.testing.assert_array_equal(a.states_at_t, c.states_at_t)
    np.testing.assert_array_equal(a.survived, c.survived)


def test_worker_pool_is_capped_at_available_cpus(m2, monkeypatch):
    # the stand-in pool records the size asked for and never runs more than
    # 2 real threads, so a missing cap shows as a number, not as threads
    import os
    from concurrent.futures import ThreadPoolExecutor

    from spcrit import montecarlo

    asked = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    base = dict(t_end=0.1, dt=0.01, n_paths=8 * CHUNK_PATHS, seed=5)
    one = simulate_paths(m2, [1.0, 0.0], SimConfig(**base))
    # the affinity mask where the platform has one, else the CPU count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    capped = simulate_paths(m2, [1.0, 0.0], SimConfig(**base, n_threads=100_000))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    simulate_paths(m2, [1.0, 0.0], SimConfig(**base, n_threads=100_000))
    # one thread asks for a pool of one too, which the caller's group leaves
    # without a thread
    assert asked == [1, 3, 4]
    np.testing.assert_array_equal(capped.states_at_t, one.states_at_t)


def test_caller_thread_runs_the_first_group(m2, monkeypatch):
    # with one group no worker thread runs a chunk, so Ctrl-C stops the run
    # at once; with two, the caller runs chunk 0's group and a worker the other
    import threading

    from spcrit import montecarlo

    ran = []
    real = montecarlo._simulate_group
    caller = threading.current_thread()

    def recording(model, mu, cfg, chunks, out):
        ran.append((chunks[0], threading.current_thread() is caller))
        real(model, mu, cfg, chunks, out)

    monkeypatch.setattr(montecarlo, "_simulate_group", recording)
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    base = dict(t_end=0.1, dt=0.01, n_paths=2 * CHUNK_PATHS, seed=5)
    simulate_paths(m2, [1.0, 0.0], SimConfig(**base))
    assert ran == [(0, True)]
    ran.clear()
    simulate_paths(m2, [1.0, 0.0], SimConfig(**base, n_threads=2))
    assert sorted(ran) == [(0, True), (1, False)]


def _reference_chunk(model, mu, cfg, chunk, n_chunk):
    # reference loop: one chunk at a time, one draw per step, path-major,
    # with the drift summed over the columns of X in ascending order as the
    # kernel sums it over its state rows; the jump compensator joins the
    # growth rate and each jump intensity is read at the step's start
    rng = _chunk_rng(cfg.seed, chunk)
    beta, Q = model.beta, model.Q
    growth = beta * model.a - np.array(
        [(beta[i] * atoms[:, 1] * atoms[:, 0]).sum() for i, atoms in enumerate(model.jumps)]
    )
    diff_coeff = 2.0 * beta * model.b * cfg.dt
    atoms = [
        (i, float(y), float(beta[i] * w * cfg.dt))
        for i in range(model.n_states)
        for y, w in model.jumps[i]
    ]
    dt = cfg.dt

    X = np.tile(mu, (n_chunk, 1))
    alive = np.arange(n_chunk)
    for step in range(cfg.n_steps):
        if step % _COMPACT_EVERY == 0:
            mask = X[alive].any(axis=1)
            alive = alive[mask]
            if alive.size == 0:
                break
        Xa = X[alive]
        xi = rng.standard_normal(Xa.shape)
        kicks = [(i, y * rng.poisson(Xa[:, i] * rate)) for i, y, rate in atoms]
        drift = Xa[:, :1] * Q[0]
        for j in range(1, Xa.shape[1]):
            drift += Xa[:, j : j + 1] * Q[j]
        drift += growth * Xa
        Xa = Xa + dt * drift
        Xa = Xa + np.sqrt(diff_coeff * np.maximum(Xa, 0.0)) * xi
        for i, kick in kicks:
            Xa[:, i] += kick
        np.maximum(Xa, 0.0, out=Xa)
        X[alive] = Xa
    return X


def _reference_paths(model, mu, cfg):
    return np.concatenate([
        _reference_chunk(model, np.asarray(mu, dtype=float), cfg, c,
                         min(CHUNK_PATHS, cfg.n_paths - c * CHUNK_PATHS))
        for c in range(-(-cfg.n_paths // CHUNK_PATHS))
    ])


@pytest.mark.parametrize("n_threads", [1, 2, 3, 5])
def test_lockstep_kernel_is_byte_identical_on_reference_models(m1, m2, m3, n_threads):
    for model, mu in ((m1, [1.0]), (m2, [1.0, 0.0]), (m3, [1.0])):
        cfg = SimConfig(t_end=2.0, dt=0.01, n_paths=9000, seed=13,
                        n_threads=n_threads)
        ref = _reference_paths(model, mu, cfg)
        ens = simulate_paths(model, mu, cfg)
        assert ens.states_at_t.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(ens.survived, ref.any(axis=1))


def test_lockstep_kernel_splits_long_chunk_lists_into_groups(m1):
    # one thread with more chunks than one lockstep array holds
    n_paths = (_GROUP_CHUNKS + 1) * CHUNK_PATHS - 7
    cfg = SimConfig(t_end=1.0, dt=0.01, n_paths=n_paths, seed=21)
    ens = simulate_paths(m1, [1.0], cfg)
    assert ens.states_at_t.tobytes() == _reference_paths(m1, [1.0], cfg).tobytes()


def test_drift_of_a_row_does_not_depend_on_its_place(rng):
    # state-major: one row per state, one column per path; the drift is the
    # same with an all-zero row of Q, whose term is left out
    for zero_row in (None, 0, 3):
        Q = rng.normal(size=(5, 5))
        if zero_row is not None:
            Q[zero_row] = 0.0
        alpha = rng.normal(size=5)
        X = rng.uniform(0.0, 3.0, (5, 1000))
        terms = _drift_terms(Q, alpha)
        assert len(terms) == 6 - (zero_row is not None)

        def drift(X):
            return _drift(X, terms, np.empty_like(X), np.empty_like(X))

        whole = drift(X)
        for size in (1, 7):
            parts = [drift(X[:, k : k + size]) for k in range(0, 1000, size)]
            assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()
        paths = X.T
        np.testing.assert_allclose(whole.T, paths @ Q + alpha * paths,
                                   rtol=1e-12, atol=1e-12)


def test_drift_terms_leave_out_all_zero_coefficients(m1, m2, m3):
    def growth(model):
        dc = derived_coefficients(model)
        return dc.alpha - dc.jump_yw

    assert _drift_terms(m1.Q, growth(m1)) == []
    assert [j for _, j in _drift_terms(m2.Q, growth(m2))] == [0, 1]
    assert [j for _, j in _drift_terms(m3.Q, growth(m3))] == [...]
    Q = np.array([[-1.0, 1.0, 0.0], [-0.0, 0.0, -0.0], [0.5, 0.5, -1.0]])
    assert [j for _, j in _drift_terms(Q, np.array([0.0, -0.0, 0.0]))] == [0, 2]


def _zero_row_model():
    # state 2 never moves: its row of Q is all zero, so the kernel skips that
    # row and keeps the growth term.  Q is reducible, which simulate_paths
    # refuses; the kernel needs no irreducibility.  The principal eigenvalue
    # is alpha[2], which the shift sets to 0 (so the growth rate is
    # nonzero only in states 0 and 1).
    model = SuperprocessModel(
        labels=("a", "b", "c"), m=[1.0, 1.0, 1.0],
        Q=[[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]],
        beta=[1.0, 0.8, 1.2], a=[0.2, -0.1, 0.3], b=[0.5, 0.8, 0.6],
        jumps=([], [], []),
    )
    lambda0 = spectral._principal_pair(derived_coefficients(model))[0]
    return dataclasses.replace(model, a=model.a - lambda0 / model.beta)


def _model_without_diffusion_in_state_1():
    # 2 beta b is zero in state 1, which only jumps; criticalized as usual
    model = SuperprocessModel(
        labels=("a", "b", "c"), m=[1.0, 0.7, 1.3],
        Q=[[-1.0, 0.6, 0.4], [0.3, -0.5, 0.2], [0.5, 0.5, -1.0]],
        beta=[1.0, 0.9, 1.1], a=[0.1, 0.2, -0.2], b=[0.6, 0.0, 0.9],
        jumps=([], [(0.8, 0.5)], []),
    )
    model = spectral.criticalize(model)
    assert derived_coefficients(model).quad[1] == 0.0
    return model


def _kernel_paths(model, mu, cfg):
    # the lockstep groups simulate_paths would run on cfg.n_threads threads,
    # run one after another and without its gate
    n_chunks = -(-cfg.n_paths // CHUNK_PATHS)
    n_groups = min(cfg.n_threads, n_chunks)
    out = np.empty((cfg.n_paths, model.n_states))
    for g in range(n_groups):
        chunks = list(range(g, n_chunks, n_groups))
        _simulate_group(model, np.asarray(mu, dtype=float), cfg, chunks, out)
    return out


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("case", [
    "zero_row", "zero_row_signed_zero", "no_diffusion_in_one_state",
    "m2_signed_zero", "no_drift_signed_zero",
])
def test_lockstep_kernel_is_byte_identical_where_terms_are_skipped(m2, case, n_threads):
    # the kernel leaves out drift terms with all-zero coefficients and, with
    # none left, the clamp before the noise; the reference sums every term
    # and clamps every step, so equal bytes show that nothing but a signed
    # zero was left out.  A -0.0 start entry next to a positive one puts a
    # signed zero into the first steps' sums.
    if case.startswith("zero_row"):
        model = _zero_row_model()
        mu = [1.0, 0.5, -0.0] if case.endswith("signed_zero") else [1.0, 0.5, 0.3]
    elif case == "no_diffusion_in_one_state":
        model, mu = _model_without_diffusion_in_state_1(), [0.5, 1.0, 0.8]
    elif case == "m2_signed_zero":
        model, mu = m2, [-0.0, 1.0]
    else:
        # two states that never move and do not grow: no drift term at all
        model = SuperprocessModel(
            labels=("a", "b"), m=[1.0, 1.0], Q=np.zeros((2, 2)),
            beta=[1.0, 1.0], a=[0.0, 0.0], b=[0.5, 1.0], jumps=([], []),
        )
        mu = [-0.0, 1.0]
    cfg = SimConfig(t_end=2.0, dt=0.01, n_paths=CHUNK_PATHS + 900, seed=17,
                    n_threads=n_threads)
    ref = _reference_paths(model, mu, cfg)
    if is_irreducible(model):
        ens = simulate_paths(model, mu, cfg)
        np.testing.assert_array_equal(ens.survived, ref.any(axis=1))
        got = ens.states_at_t
    else:
        # simulate_paths refuses a reducible model; its kernel does not
        got = _kernel_paths(model, mu, cfg)
    assert got.tobytes() == ref.tobytes()


def test_lockstep_kernel_matches_reference_on_random_models():
    # the reference sums the drift in the kernel's order, so a general Q
    # gives the same bytes wherever a path sits in its group
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 6:
        n_states = (2, 3, 5)[checked % 3]
        model = acceptance.random_model(rng, n_states, critical=True)
        if not any(j.size for j in model.jumps):
            continue
        qnorm = float(np.abs(model.Q).sum(axis=1).max())
        dt = 0.1 / (qnorm + derived_coefficients(model).kbound)
        cfg = SimConfig(t_end=500 * dt, dt=dt, n_paths=CHUNK_PATHS + 1,
                        seed=checked)
        mu = rng.uniform(0.5, 1.5, model.n_states)
        ref = _reference_paths(model, mu, cfg)
        ens = simulate_paths(model, mu, cfg)
        np.testing.assert_array_equal(ens.survived, ref.any(axis=1))
        assert ens.states_at_t.tobytes() == ref.tobytes()
        # one group of two chunks against two groups of one, the second a
        # single path, where X @ Q would take another BLAS kernel: same bytes
        split = simulate_paths(model, mu, SimConfig(**{**vars(cfg), "n_threads": 2}))
        assert split.states_at_t.tobytes() == ens.states_at_t.tobytes()
        checked += 1


def test_seed_changes_the_ensemble(m1):
    cfg1 = SimConfig(t_end=1.0, dt=0.01, n_paths=1000, seed=1)
    cfg2 = SimConfig(t_end=1.0, dt=0.01, n_paths=1000, seed=2)
    a = simulate_paths(m1, [1.0], cfg1)
    b = simulate_paths(m1, [1.0], cfg2)
    assert not np.array_equal(a.states_at_t, b.states_at_t)


def test_seed_range_ends_simulate_and_differ(m2):
    # the public seed range is [0, 2**64); both ends key their own streams
    ens = {}
    for seed in (0, 2**64 - 1):
        for n_threads in (1, 2):
            cfg = SimConfig(t_end=1.0, dt=0.01, n_paths=CHUNK_PATHS + 100,
                            seed=seed, n_threads=n_threads)
            ens[seed, n_threads] = simulate_paths(m2, [1.0, 0.0], cfg).states_at_t
    for seed in (0, 2**64 - 1):
        assert ens[seed, 1].tobytes() == ens[seed, 2].tobytes()
    assert not np.array_equal(ens[0, 1], ens[2**64 - 1, 1])


@pytest.mark.parametrize("seed", [2, 3])
def test_chunk_survival_counts_are_binomial(m1, seed):
    # every chunk's survival count is Binomial(CHUNK_PATHS, p) for one p, so
    # the chi-square of the 13 counts against their pooled binomial has 12
    # degrees of freedom; 32.9 is its 0.1% point.  Seeds 2 and 3 scattered
    # more than binomially under an earlier raw (seed, chunk) keying
    n_chunks = 13
    cfg = SimConfig(t_end=10.0, dt=0.01, n_paths=n_chunks * CHUNK_PATHS, seed=seed,
                    n_threads=2)
    survived = simulate_paths(m1, [1.0], cfg).survived
    counts = survived.reshape(n_chunks, CHUNK_PATHS).sum(axis=1)
    p = counts.sum() / survived.size
    chi2 = float(((counts - CHUNK_PATHS * p) ** 2).sum() / (CHUNK_PATHS * p * (1.0 - p)))
    assert chi2 < 32.9


def test_unconditional_mean_and_variance(m1):
    sd = spectral_data(m1)
    cfg = SimConfig(t_end=5.0, dt=0.01, n_paths=40_000, seed=3)
    ens = simulate_paths(m1, [1.0], cfg, sd=sd)
    masses = ens.states_at_t[:, 0]

    mean_oracle = first_moment(m1, [1.0], 5.0, [1.0])
    se_mean = masses.std(ddof=1) / math.sqrt(masses.size)
    assert abs(masses.mean() - mean_oracle) <= 4 * se_mean

    var_oracle = variance(m1, [1.0], 5.0, [1.0])
    s2 = masses.var(ddof=1)
    m4 = ((masses - masses.mean()) ** 4).mean()
    se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / masses.size)
    assert abs(s2 - var_oracle) <= 5 * se_var


@pytest.mark.parametrize("t", [1.0, 3.0])
def test_jump_model_mean_matches_first_moment(m3, t):
    # m3 has one state and b = 0, so nothing is truncated, and with the
    # compensated drift and step-start intensities each Euler step keeps
    # the mean exactly at any dt; the SE comes from the exact variance.
    # Intensities read after the drift would shrink the mean by 1 - dt^2
    # per step, so a coarse dt makes that defect show (z below -8)
    cfg = SimConfig(t_end=t, dt=0.05, n_paths=40_000, seed=1)
    mass = simulate_paths(m3, [1.0], cfg).states_at_t[:, 0]
    se = math.sqrt(variance(m3, [1.0], t, [1.0]) / cfg.n_paths)
    assert abs(mass.mean() - first_moment(m3, [1.0], t, [1.0])) <= 3 * se


def test_random_jump_model_runs_long_at_its_mean_scale():
    # without the jump compensator in the drift this model runs
    # supercritical (mean mass about 1e13 at t = 40); the multistate
    # full-truncation bias remains, so the mean is held only to the order
    # of first_moment
    rng = np.random.default_rng(11)
    model = acceptance.random_model(rng, 2, critical=True)
    while not any(j.size for j in model.jumps):
        model = acceptance.random_model(rng, 2, critical=True)
    mu = [1.0, 0.0]
    cfg = SimConfig(t_end=40.0, dt=0.02, n_paths=20_000, seed=2, n_threads=2)
    mean = simulate_paths(model, mu, cfg).states_at_t.sum(axis=1).mean()
    exact = first_moment(model, [1.0, 1.0], 40.0, mu)
    assert math.isfinite(mean)
    assert 0.5 * exact <= mean <= 2.0 * exact


def test_survival_fraction_matches_ode_oracle(m1):
    sd = spectral_data(m1)
    cfg = SimConfig(t_end=10.0, dt=0.01, n_paths=40_000, seed=4)
    ens = simulate_paths(m1, [1.0], cfg, sd=sd)
    p = survival_probability(m1, [1.0], 10.0)
    se = math.sqrt(p * (1 - p) / cfg.n_paths)
    assert abs(ens.survival_fraction - p) <= 3 * se


def test_halving_dt_does_not_grow_the_bias(m1):
    # weak-error check: the coarse-step survival error should not be beaten
    # by the fine-step one by more than the Monte Carlo noise
    sd = spectral_data(m1)
    p = survival_probability(m1, [1.0], 10.0)
    n = 40_000
    errs = {}
    for dt in (0.1, 0.05):
        cfg = SimConfig(t_end=10.0, dt=dt, n_paths=n, seed=5)
        ens = simulate_paths(m1, [1.0], cfg, sd=sd)
        errs[dt] = abs(ens.survival_fraction - p)
    se = math.sqrt(p * (1 - p) / n)
    assert errs[0.05] <= errs[0.1] + 3 * se


def test_conditional_statistics_require_survivors(m2):
    sd = spectral_data(m2)
    dead = PathEnsemble(
        states_at_t=np.zeros((50, 2)),
        survived=np.zeros(50, dtype=bool),
        t_end=10.0,
    )
    with pytest.raises(SimulationError, match="surviving"):
        conditional_statistics(dead, sd, [1.0, -1.0])


@pytest.mark.parametrize(
    "f, match",
    [(1.0, r"shape \(2,\), got \(\)"), ([1.0, -1.0, 0.0], r"got \(3,\)"),
     ([1.0, math.nan], r"\[1\] must be finite, got nan"),
     ([math.inf, 1.0], r"\[0\] must be finite, got inf")],
    ids=["scalar", "long", "nan", "inf"],
)
def test_conditional_statistics_reject_malformed_field(m2, f, match):
    ens = PathEnsemble(
        states_at_t=np.array([[1.0, 1.0]]), survived=np.array([True]),
        t_end=4.0,
    )
    with pytest.raises(ModelError, match=match):
        conditional_statistics(ens, spectral_data(m2), f)


def test_conditional_samples_reductions(m2):
    sd = spectral_data(m2)
    ens = PathEnsemble(
        states_at_t=np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0]]),
        survived=np.array([True, False, True]),
        t_end=4.0,
    )
    samples = conditional_statistics(ens, sd, np.array([1.0, -1.0]))
    # one sample per survivor
    assert samples.v.size == samples.z.size == 2
    # V = <phi0, X>/t over survivors
    np.testing.assert_allclose(
        samples.v, [math.sqrt(2) / 4.0, 2 ** -0.5 * 2 / 4.0]
    )
    np.testing.assert_allclose(samples.z, [0.0, 2.0 / 2.0], atol=1e-12)


# ---------------------------------------------------------------------------
# goodness of fit

def test_ks_statistic_matches_scipy(rng):
    # statistic must agree exactly; the p-value uses the asymptotic
    # Kolmogorov law, whose distance from the exact law shrinks like 1/sqrt(n)
    for n, p_tol in ((500, 0.02), (20_000, 2e-3)):
        for _ in range(3):
            x = rng.exponential(0.7, n)
            ours = ks_statistic(
                x, lambda v: 1.0 - np.exp(-np.maximum(v, 0) / 0.7)
            )
            ref = scipy.stats.kstest(x, "expon", args=(0, 0.7))
            assert ours == pytest.approx(ref.statistic, abs=1e-12)
            p = ks_exponential_test(x, 0.7).p_value
            assert p == pytest.approx(ref.pvalue, abs=p_tol)


def test_ks_pvalue_matches_scipy_kolmogorov():
    # both series against scipy's Kolmogorov tail, across their switch at
    # x = 1 and out to where the tail underflows to 0
    from scipy.special import kolmogorov

    x = np.concatenate([np.geomspace(1e-3, 27.0, 4001), np.linspace(0.99, 1.01, 201)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([_ks_pvalue(float(v), 1) for v in x])
        assert _ks_pvalue(0.0, 1000) == 1.0
        assert _ks_pvalue(0.5, 10_000) == 0.0
    ref = kolmogorov(x)
    pos = ref > 0
    np.testing.assert_allclose(got[pos], ref[pos], rtol=1e-12, atol=0)
    assert not pos.all() and np.all(got[~pos] == 0.0)


def test_normal_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    x = np.linspace(-38.0, 9.0, 47_001)
    np.testing.assert_allclose(_normal_cdf(x), ndtr(x), rtol=0, atol=1e-15)


def test_ks_self_consistency_over_seeds():
    # exponential draws against their own law: comfortably nonrejecting
    bad = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.exponential(0.5, 100_000)
        if ks_exponential_test(x, 0.5).p_value <= 0.01:
            bad += 1
    assert bad == 0


def test_ks_perfect_fit_is_not_rejected():
    # exact quantiles sit at KS distance 1/(2n): sqrt(n) * D = 5e-4, where the
    # Kolmogorov tail is 1 and a series cut after finitely many terms is not
    n = 1_000_000
    x = -0.5 * np.log1p(-(np.arange(n) + 0.5) / n)
    assert ks_exponential_test(x, 0.5).p_value > 0.99


def test_product_cdf_far_tails_do_not_overflow():
    law = LimitLaw(nu_mean=0.5, sigma_sq=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.product_cdf(400.0) == 1.0
        assert law.product_cdf(-400.0) == 0.0
        assert law.product_cdf(0.0) == 0.5


def test_ks_degenerate_point_mass():
    samples = np.ones(10_000)
    res = ks_exponential_test(samples, 1.0)
    # exact distance between a point mass at 1 and the unit exponential
    assert res.statistic == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert res.statistic >= 0.63
    assert res.p_value < 1e-6


def test_ks_needs_enough_samples():
    with pytest.raises(SimulationError):
        ks_exponential_test(np.ones(50), 1.0)


@pytest.mark.parametrize("bad", [math.inf, -0.5, math.nan], ids=["inf", "negative", "nan"])
def test_ks_exponential_rejects_bad_samples(rng, bad):
    # unchecked, an inf mass passes (p = 0.64), a negative one is clipped
    # to 0 and a NaN gives a NaN p-value, which passes "p <= 0.001" gates
    x = rng.exponential(1.0, 500)
    x[7] = bad
    with pytest.raises(ModelError, match=rf"^samples\[7\] must be finite and >= 0, got {bad}$"):
        ks_exponential_test(x, 1.0)


def _sample_limit_law(law, rng, size):
    """Pairs (W, G sqrt(W)) drawn from the limit law itself."""
    w = rng.exponential(law.nu_mean, size)
    g = rng.normal(0.0, math.sqrt(law.sigma_sq), size)
    return w, g * np.sqrt(w)


def _product_density(law, x):
    s = law.product_scale
    return np.exp(-2.0 * np.abs(np.asarray(x, dtype=float)) / s) / s


def test_limit_law_density_and_moments(rng):
    law = LimitLaw(nu_mean=0.5, sigma_sq=0.7)
    xs = np.linspace(-40, 40, 200_001)
    total = np.trapezoid(_product_density(law, xs), xs)
    assert total == pytest.approx(1.0, abs=1e-6)
    w, gw = _sample_limit_law(law, rng, 200_000)
    assert w.mean() == pytest.approx(0.5, abs=4 * w.std() / math.sqrt(w.size))
    # E[(G sqrt(W))^2] = sigma_sq * nu
    assert (gw ** 2).mean() == pytest.approx(0.35, rel=0.05)


def test_clt_checks_self_consistency():
    law = LimitLaw(nu_mean=0.7071067811865476, sigma_sq=0.7071067811865476)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        w, gw = _sample_limit_law(law, rng, 50_000)
        samples = ConditionalSamples(v=w, z=gw)
        report = clt_checks(samples, law.nu_mean, law.sigma_sq)
        assert report.ks_product.p_value > 0.01
        assert report.ks_ratio.p_value > 0.01
        assert report.independence_ok


def test_clt_checks_detect_dependence(rng):
    v = rng.exponential(0.5, 20_000)
    samples = ConditionalSamples(v=v, z=v)
    report = clt_checks(samples, 0.5, 0.5)
    assert not report.independence_ok
    assert abs(report.correlation) > 0.5


def test_clt_checks_need_enough_samples(rng):
    v = rng.exponential(0.5, 100)
    samples = ConditionalSamples(v=v, z=v)
    with pytest.raises(SimulationError):
        clt_checks(samples, 0.5, 0.5)


@pytest.mark.parametrize(
    "name, bad, requirement",
    [("v", math.nan, "finite and > 0"), ("v", math.inf, "finite and > 0"),
     ("v", 0.0, "finite and > 0"), ("v", -1.0, "finite and > 0"),
     ("z", math.nan, "finite"), ("z", math.inf, "finite"), ("z", -math.inf, "finite")],
)
def test_clt_checks_reject_bad_samples(rng, name, bad, requirement):
    # unchecked, one NaN in v gives a NaN ratio p-value, which passes
    # "p <= 0.001" gates
    v = rng.exponential(0.5, 2_000)
    z = rng.normal(0.0, 1.0, 2_000) * np.sqrt(v)
    {"v": v, "z": z}[name][3] = bad
    samples = ConditionalSamples(v=v, z=z)
    with pytest.raises(ModelError, match=rf"^{name}\[3\] must be {requirement}, got {bad}$"):
        clt_checks(samples, 0.5, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("name", ["scale", "nu_mean", "sigma_sq"])
def test_limit_constants_must_be_finite_and_positive(rng, name, bad):
    # a NaN constant would give NaN p-values, which pass "p <= 0.001" gates
    v = rng.exponential(0.5, 2_000)
    samples = ConditionalSamples(v=v, z=v)
    calls = {
        "scale": lambda: ks_exponential_test(v, bad),
        "nu_mean": lambda: clt_checks(samples, bad, 0.5),
        "sigma_sq": lambda: clt_checks(samples, 0.5, bad),
    }
    with pytest.raises(ModelError, match=rf"^{name} must be finite and > 0, got {bad}$"):
        calls[name]()
