"""Acceptance suite: reference models and the nine gate criteria.

Shared between ``spcrit verify`` and the pytest acceptance module, which
both run ``CRITERIA``.  Each criterion returns a result with the measured
values, the wall-clock time of its whole call, setup included, and the
stated budget; the value tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import wraps

import numpy as np

from . import loglaplace, moments, montecarlo, spectral
from .model import SuperprocessModel, dump_model
from .spectral import fit_expansion_constant, spectral_data


def model_m1() -> SuperprocessModel:
    """One conservative state, purely quadratic mechanism b = 1/2."""
    return SuperprocessModel(
        labels=("o",), m=[1.0], Q=[[0.0]],
        beta=[1.0], a=[0.0], b=[0.5], jumps=([],),
    )


def model_m2() -> SuperprocessModel:
    """Symmetric two-state flip with unit quadratic mechanism."""
    return SuperprocessModel(
        labels=("A", "B"), m=[1.0, 1.0], Q=[[-1.0, 1.0], [1.0, -1.0]],
        beta=[1.0, 1.0], a=[0.0, 0.0], b=[1.0, 1.0], jumps=([], []),
    )


def model_m3() -> SuperprocessModel:
    """One state, jump-only mechanism with a single unit atom."""
    return SuperprocessModel(
        labels=("o",), m=[1.0], Q=[[0.0]],
        beta=[1.0], a=[0.0], b=[0.0], jumps=([(1.0, 1.0)],),
    )


def random_model(
    rng: np.random.Generator,
    n_states: int | None = None,
    critical: bool = False,
) -> SuperprocessModel:
    """Random irreducible model whose dual semigroup is sub-Markov.

    The weighted rate matrix diag(m) Q is drawn with nonpositive row and
    column sums, so the dual semigroup is sub-Markov by construction (the
    static dual check in ``tests/test_model.py`` reads this).
    """
    n = int(rng.integers(1, 4)) if n_states is None else n_states
    m = rng.uniform(0.5, 2.0, n)
    if n == 1:
        Q = np.array([[-float(rng.uniform(0.0, 0.3))]])
    else:
        S = rng.uniform(0.1, 1.0, (n, n))
        np.fill_diagonal(S, 0.0)
        rowsum = S.sum(axis=1)
        colsum = S.sum(axis=0)
        np.fill_diagonal(S, -np.maximum(rowsum, colsum) - rng.uniform(0.0, 0.3, n))
        Q = S / m[:, None]
    beta = rng.uniform(0.3, 1.5, n)
    a = rng.uniform(-0.5, 0.5, n)
    b = rng.uniform(0.2, 1.2, n)
    jumps = []
    for _ in range(n):
        if rng.random() < 0.5:
            k = int(rng.integers(1, 3))
            jumps.append(
                np.column_stack([rng.uniform(0.2, 2.0, k), rng.uniform(0.1, 1.0, k)])
            )
        else:
            jumps.append(np.empty((0, 2)))
    model = SuperprocessModel(
        labels=tuple(f"s{i}" for i in range(n)), m=m, Q=Q,
        beta=beta, a=a, b=b, jumps=tuple(jumps),
    )
    return spectral.criticalize(model) if critical else model


def random_field(rng: np.random.Generator, n: int, nonneg: bool = False) -> np.ndarray:
    return rng.uniform(0.1 if nonneg else -1.5, 1.5, n)


def warm_up() -> None:
    """Run one short adaptive solve outside any timed section, so
    first-call costs (imports, allocator and BLAS start-up) land in no
    criterion's time."""
    loglaplace.solve_log_laplace(model_m1(), np.array([1.0]), 0.1)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    runtime: float
    budget: float
    detail: str

    @property
    def in_budget(self) -> bool:
        return self.runtime < self.budget

    def line(self) -> str:
        tag = "PASS" if (self.passed and self.in_budget) else "FAIL"
        return (
            f"{tag} {self.index} {self.name} "
            f"({self.runtime:.2f}s / budget {self.budget:g}s): {self.detail}"
        )


def _criterion(index: int, name: str, budget: float):
    """Make a criterion of a body that returns (passed, detail): the
    result's runtime is the whole call, setup included."""
    def make(body):
        @wraps(body)
        def run(*args, **kwargs) -> CriterionResult:
            start = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            elapsed = time.perf_counter() - start
            return CriterionResult(index, name, passed, elapsed, budget, detail)

        run.index, run.name = index, name
        return run

    return make


@_criterion(1, "riccati-oracle", 1.0)
def criterion_1_riccati():
    m1 = model_m1()
    worst = 0.0
    for theta in (1.0, 10.0, 100.0):
        for t in (0.1, 1.0, 10.0, 100.0):
            got = float(loglaplace.solve_log_laplace(m1, [theta], t).final[0])
            exact = theta / (1.0 + 0.5 * theta * t)
            worst = max(worst, abs(got - exact) / exact)
    return worst <= 1e-6, f"max rel err {worst:.3e} (tol 1e-6)"


@_criterion(2, "kolmogorov-limit", 5.0)
def criterion_2_kolmogorov():
    checks = []
    for model, mu, target in (
        (model_m1(), [1.0], 2.0),
        (model_m2(), [1.0, 0.0], 1.0),
    ):
        sd = spectral_data(model)
        report = loglaplace.kolmogorov_table(model, sd, mu, [1000.0])
        row = report.rows[0]
        rel = abs(row.t_times_p - target) / target
        checks.append((row.t_times_p, target, rel, abs(report.limit - target)))
    ok = all(rel <= 0.0025 and lim_err <= 1e-9 for _, _, rel, lim_err in checks)
    return ok, "; ".join(
        f"t*P={tp:.6f} vs {tg:g} (rel {rel:.2e})" for tp, tg, rel, _ in checks
    )


@_criterion(3, "yaglom-transform", 5.0)
def criterion_3_yaglom():
    m1 = model_m1()
    sd = spectral_data(m1)
    worst = 0.0
    vals = []
    for lam in (0.5, 1.0, 2.0):
        res = loglaplace.yaglom_transform(m1, sd, [1.0], sd.phi0, lam, 1000.0)
        rel = abs(res.value - res.target) / res.target
        worst = max(worst, rel)
        vals.append(f"lam={lam:g}: {res.value:.6f} vs {res.target:.6f}")
    return worst <= 0.005, "; ".join(vals) + f"; max rel {worst:.2e}"


@_criterion(4, "constants", 1.0)
def criterion_4_constants():
    m2 = model_m2()
    sd = spectral_data(m2)
    nu_val = spectral.nu(m2, sd)
    sig = spectral.fluctuation_variance(m2, sd, np.array([1.0, -1.0]))
    target = 2.0 ** -0.5
    ok = abs(nu_val - target) <= 1e-10 and abs(sig - target) <= 1e-8
    return ok, (
        f"nu={nu_val:.12f} (err {abs(nu_val - target):.2e}), "
        f"sigma_f^2={sig:.12f} (err {abs(sig - target):.2e})"
    )


@_criterion(5, "variance-limit", 5.0)
def criterion_5_variance_limit():
    m2 = model_m2()
    sd = spectral_data(m2)
    report = moments.variance_limit_check(
        m2, sd, np.array([1.0, -1.0]), [5.0, 10.0, 15.0]
    )
    last = report.rows[-1]
    dev15 = float(np.abs(last.var_profile - last.limit_profile).max())
    ok = report.fitted_rate >= 1.6 and dev15 < 1e-8
    return ok, (
        f"fitted rate {report.fitted_rate:.3f} (>= 1.6), "
        f"|dev| at t=15 {dev15:.2e} (< 1e-8)"
    )


@_criterion(6, "spectral-expansion", 10.0)
def criterion_6_expansion():
    rng = np.random.default_rng(20240901)
    models = [model_m2()] + [
        random_model(rng, n_states=3, critical=True) for _ in range(20)
    ]
    worst_ratio = 0.0
    finite = True
    for model in models:
        sd = spectral_data(model)
        fitted = fit_expansion_constant(model, sd)
        if not math.isfinite(fitted):
            finite = False
            continue
        # re-check the fitted constant on a grid refining the fit grid
        check = fit_expansion_constant(model, sd, t_grid=np.geomspace(1.0, 40.0, 2049))
        if fitted > 0:
            worst_ratio = max(worst_ratio, check / (fitted * 1.10))
    return finite and worst_ratio <= 1.0, (
        f"21 models, worst refined/fit ratio {worst_ratio:.4f} "
        f"(margin 10%), all constants finite: {finite}"
    )


@_criterion(7, "lemma-suite", 30.0)
def criterion_7_lemma_suite():
    import scipy.linalg as sla

    n_cases = 1000
    rng = np.random.default_rng(7)
    violations = []

    # mechanism remainder bounds
    for _ in range(n_cases):
        model = random_model(rng)
        x = int(rng.integers(model.n_states))
        z = float(rng.uniform(0, 5))
        dc = spectral.derived_coefficients(model)
        r, r2, ec = loglaplace.mechanism_remainders(model, x, z)
        if not (-1e-12 <= r <= 0.5 * dc.kbound * z * z + 1e-12):
            violations.append(f"remainder bound at z={z:.3f}")
        if abs(r2) > ec * z * z + 1e-12:
            violations.append(f"defect bound at z={z:.3f}")

    # mass-deficit bounds along solves
    for _ in range(n_cases):
        model = random_model(rng)
        f0 = random_field(rng, model.n_states, nonneg=True)
        t = float(rng.uniform(0.2, 3.0))
        try:
            traj = loglaplace.solve_log_laplace(model, f0, t)
        except loglaplace.SolverError as exc:
            violations.append(f"solver: {exc}")
        # the 0 <= u <= T_t f0 <= gap bound checks run inside the solver

    # kernel comparability against the driftless kernel
    comparability_ts = np.array([0.1, 1.0, 5.0])
    for _ in range(n_cases):
        model = random_model(rng)
        sgk = spectral.MeanSemigroup(model)
        kb = spectral.derived_coefficients(model).kbound
        ps = sla.expm(comparability_ts[:, None, None] * model.Q) / model.m
        for t, p in zip(comparability_ts, ps):
            q = sgk.matrix(t) / model.m
            lo = math.exp(-kb * t) * p
            hi = math.exp(kb * t) * p
            tolc = 1e-9 * max(1.0, float(hi.max()))
            if np.any(q < lo - tolc) or np.any(q > hi + tolc):
                violations.append(f"comparability at t={t}")

    # quadrature bound by the exponential-weighted mean of f^2
    for _ in range(n_cases):
        model = random_model(rng)
        f = random_field(rng, model.n_states)
        t = float(rng.uniform(0.2, 5.0))
        profile = moments._variance_profile(model, f, t)
        kb = spectral.derived_coefficients(model).kbound
        cap = math.exp(kb * t) * (spectral.MeanSemigroup(model).matrix(t) @ (f * f))
        if np.any(profile > cap * (1 + 1e-6) + 1e-9):
            violations.append(f"variance bound at t={t:.3f}")

    # mean/variance consistency against the transform oracle
    for _ in range(n_cases):
        model = random_model(rng)
        f = random_field(rng, model.n_states, nonneg=True)
        t = float(rng.uniform(0.3, 2.0))
        mu = rng.uniform(0.1, 1.5, model.n_states)
        var_q = moments.variance(model, f, t, mu)
        var_fd = moments.variance_from_transform(model, f, t, mu)
        if abs(var_q - var_fd) > 1e-4 * max(abs(var_q), 1.0):
            violations.append(
                f"transform oracle gap {abs(var_q - var_fd):.2e} at t={t:.3f}"
            )

    if violations:
        return False, f"{len(violations)} violations, first: {violations[0]}"
    return True, f"5 suites x {n_cases} cases, no violations"


@_criterion(8, "montecarlo-pipeline", 300.0)
def criterion_8_montecarlo(fast: bool = False):
    n_paths = 50_000 if fast else 200_000
    problems = []

    # single-state pipeline: survival + exponential limit of the mass scale
    m1 = model_m1()
    sd1 = spectral_data(m1)
    cfg = montecarlo.SimConfig(t_end=50.0, dt=0.01, n_paths=n_paths, seed=42)
    ens = montecarlo.simulate_paths(m1, [1.0], cfg)
    p_oracle = loglaplace.survival_probability(m1, [1.0], 50.0)
    se = math.sqrt(p_oracle * (1 - p_oracle) / n_paths)
    gap = abs(ens.survival_fraction - p_oracle)
    if gap > 3 * se:
        problems.append(
            f"survival {ens.survival_fraction:.5f} vs {p_oracle:.5f} "
            f"({gap / se:.2f} SE)"
        )
    samples1 = montecarlo.conditional_statistics(ens, sd1, sd1.phi0)
    nu1 = spectral.nu(m1, sd1)
    ks = montecarlo.ks_exponential_test(samples1.v, nu1)
    if ks.p_value <= 0.01:
        problems.append(f"KS exp p={ks.p_value:.4f} (D={ks.statistic:.4f})")

    # two-state pipeline: second-order limit against the product law
    m2 = model_m2()
    sd2 = spectral_data(m2)
    f = np.array([1.0, -1.0])
    ens2 = montecarlo.simulate_paths(m2, [1.0, 0.0], cfg)
    samples2 = montecarlo.conditional_statistics(ens2, sd2, f)
    nu2 = spectral.nu(m2, sd2)
    sig2 = spectral.fluctuation_variance(m2, sd2, f)
    target_z2 = nu2 * sig2
    if abs(samples2.z2_mean - target_z2) > 0.15 * target_z2:
        problems.append(
            f"E[Z^2] {samples2.z2_mean:.4f} vs {target_z2:.4f} (>15%)"
        )
    clt = montecarlo.clt_checks(samples2, nu2, sig2)
    if clt.ks_product.p_value <= 0.001:
        problems.append(f"product KS p={clt.ks_product.p_value:.5f}")
    if clt.ks_ratio.p_value <= 0.001:
        problems.append(f"ratio KS p={clt.ks_ratio.p_value:.5f}")
    if not clt.independence_ok:
        problems.append(f"independence corr={clt.correlation:.4f}")

    if problems:
        return False, "; ".join(problems)
    return True, (
        f"n={n_paths}: survival {ens.survival_fraction:.5f} vs {p_oracle:.5f}, "
        f"KS p={ks.p_value:.3f}; E[Z^2]={samples2.z2_mean:.4f} vs "
        f"{target_z2:.4f}, product p={clt.ks_product.p_value:.3f}, "
        f"ratio p={clt.ks_ratio.p_value:.3f}, corr={clt.correlation:.4f}"
    )


@_criterion(9, "determinism", 60.0)
def criterion_9_determinism():
    # the CLI runs this very package, installed or not: its parent directory
    # goes first on the child's import path
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m2.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_model(model_m2()))
        outs = []
        for run, threads in ((0, 1), (1, 1), (2, 4)):
            out = os.path.join(tmp, f"run{run}.csv")
            cmd = [
                sys.executable, "-m", "spcrit", "simulate", path,
                "--mu", "1,0", "--t", "5", "--dt", "0.01",
                "--paths", "6000", "--seed", "7", "--f", "1,-1",
                "--threads", str(threads), "--out", out,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            if proc.returncode != 0:
                return False, f"CLI failed: {proc.stderr.strip()[:200]}"
            with open(out, "rb") as fh:
                outs.append(fh.read())
    same_run = outs[0] == outs[1]
    same_threads = outs[0] == outs[2]
    return same_run and same_threads, (
        f"repeat identical: {same_run}, thread-count invariant: {same_threads}"
    )


CRITERIA = (
    criterion_1_riccati, criterion_2_kolmogorov, criterion_3_yaglom,
    criterion_4_constants, criterion_5_variance_limit, criterion_6_expansion,
    criterion_7_lemma_suite, criterion_8_montecarlo, criterion_9_determinism,
)


def run_all(fast: bool = False) -> list[CriterionResult]:
    warm_up()
    return [
        criterion(fast=fast) if criterion is criterion_8_montecarlo else criterion()
        for criterion in CRITERIA
    ]
