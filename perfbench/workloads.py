"""The three workloads, each a fixed query set made from the seed.

A workload is built once per run from ``--seed`` (input preparation is not
timed) and returns a ``run(pass_)`` closure that issues its queries one
after another through ``Pass.query``: one caller, each query sent only
after the previous one returned.  Every query checks its answer against a
closed form or the stored seed-commit reference in ``reference.json``; a
miss or an exception is counted as a failed operation and the pass goes
on.  Library functions are looked up on their modules at call time, so the
traced run's rebinding catches them.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

# distinct stream tags so the three workloads draw unrelated inputs
_TAG = {"horizon": 101, "sweep": 202, "mc": 303}

# Monte Carlo configuration of the mc workload (criterion 8 at t = 50)
MC_T, MC_DT = 50.0, 0.01
MC_PATHS_M1, MC_PATHS_M2 = 50_000, 60_000
NU_M1 = 0.5                 # m1: avar = 1, phi0 = psi0 = 1
NU_M2 = SIGMA_M2 = 2 ** -0.5


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.abs(want).max()), 1e-300)
    return float(np.abs(got - want).max()) / scale


class Workload(NamedTuple):
    run: Callable            # run(pass_) issues one pass of queries
    summarize: Callable      # summarize(passes) -> {metric: (value, unit)}
    speedup: Callable | None = None   # speedup(passes) -> thread speed-up


class Pass:
    """Closed-loop caller for one pass; times queries, not their checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = defaultdict(float)   # per group
        self.query_s: dict[str, float] = {}                    # per label
        self.cpu_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.closed_form_err = 0.0
        self.facts: dict[str, float] = {}

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    def query(self, group: str, label: str, fn, check):
        """Run fn, time it, check its result; None only if fn raised."""
        qid = self.attempted
        self.attempted += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            out = self.tracer.query(label, qid, fn) if self.tracer else fn()
        except Exception as exc:  # noqa: BLE001 - a failed query is counted
            out = None
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            problems = None
        elapsed = time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu
        self.seconds[group] += elapsed
        self.query_s[label] = elapsed
        if problems is None:
            try:
                problems = check(out)
            except Exception as exc:  # noqa: BLE001
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return out

    def skip(self, label: str, reason: str) -> None:
        """A query that cannot run because the one it depends on failed."""
        self.attempted += 1
        self.failures.append(f"{label}: not run, {reason}")

    def closed_form(self, err: float) -> float:
        self.closed_form_err = max(self.closed_form_err, err)
        return err


# ---------------------------------------------------------------------------
# horizon: a few long log-Laplace solves with closed forms

def horizon(env, seed: int, smoke: bool = False, wrong: bool = False):
    from spcrit import loglaplace

    rng = np.random.default_rng([_TAG["horizon"], seed])

    def jitter(x: float, width: float = 0.01) -> float:
        return x * (1.0 + width * float(rng.random()))

    thetas, times = ((1.0, 10.0), (0.1, 1.0)) if smoke else (
        (1.0, 10.0, 100.0), (0.1, 1.0, 10.0))
    riccati = [(jitter(th), jitter(t)) for th in thetas for t in times]
    kol_t = [jitter(t, 0.005) for t in ((1.0, 10.0) if smoke else (10.0, 100.0, 1000.0))]
    lams = [jitter(lam) for lam in ((0.5, 1.0) if smoke else (0.5, 1.0, 2.0))]
    yag_t = 10.0 if smoke else 100.0
    m1, m2, sd1, sd2 = env.m1, env.m2, env.sd1, env.sd2
    bias = 1.0 + 1e-3 if wrong else 1.0

    def run(p: Pass) -> None:
        for k, (theta, t) in enumerate(riccati):
            exact = theta / (1.0 + 0.5 * theta * t) * (bias if k == 0 else 1.0)

            def check(traj, exact=exact):
                err = p.closed_form(rel_err(traj.final[0], exact))
                return [f"rel err {err:.2e} > 1e-6"] if err > 1e-6 else []

            p.query(
                "riccati", f"riccati[theta={theta:.4g},t={t:.4g}]",
                lambda theta=theta, t=t: loglaplace.solve_log_laplace(m1, [theta], t),
                check,
            )

        def check_kol(report):
            bad = []
            for row in report.rows:
                exact = -math.expm1(-1.0 / row.t)
                err = p.closed_form(rel_err(row.p_survival, exact))
                if err > 1e-6:
                    bad.append(f"P({row.t:.4g}) rel err {err:.2e} > 1e-6")
                if row.t >= 500.0 and abs(row.t_times_p - 1.0) > 0.0025:
                    bad.append(f"t*P({row.t:.4g}) = {row.t_times_p:.6f} not within 0.25% of 1")
            if abs(report.limit - 1.0) > 1e-9:
                bad.append(f"limit {report.limit!r} != 1")
            return bad

        p.query(
            "kolmogorov", "kolmogorov_table[m2]",
            lambda: loglaplace.kolmogorov_table(m2, sd2, [1.0, 0.0], kol_t),
            check_kol,
        )

        for lam in lams:
            theta = lam * float(sd1.phi0[0]) / yag_t
            u = theta / (1.0 + 0.5 * theta * yag_t)
            exact = 1.0 + math.expm1(-u) / -math.expm1(-2.0 / yag_t)

            def check_yag(res, exact=exact):
                err = p.closed_form(rel_err(res.value, exact))
                return [f"rel err {err:.2e} > 1e-6"] if err > 1e-6 else []

            p.query(
                "yaglom", f"yaglom[lambda={lam:.4g}]",
                lambda lam=lam: loglaplace.yaglom_transform(
                    m1, sd1, [1.0], sd1.phi0, lam, yag_t),
                check_yag,
            )

    def summarize(passes) -> dict:
        return {
            "riccati_s": (statistics.median([p.seconds["riccati"] for p in passes]), "s"),
            "kolmogorov_s": (statistics.median([p.seconds["kolmogorov"] for p in passes]), "s"),
            "yaglom_s": (statistics.median([p.seconds["yaglom"] for p in passes]), "s"),
        }

    return Workload(run, summarize)


# ---------------------------------------------------------------------------
# sweep: many small queries on random critical models

def sweep_inputs(entry: dict):
    """Arrays of one stored pool entry (the raw, not yet critical, model)."""
    from spcrit.model import load_model

    arr = {k: np.asarray(entry[k], dtype=float) for k in ("f", "f0", "g", "mu")}
    return load_model(entry["model"]), arr


def sweep_queries(p: Pass, raw, arr, t_solve, t_var, ref=None, label="model"):
    """The four per-model queries; ``ref`` None only records the outputs."""
    from spcrit import loglaplace, moments, spectral

    out = {}

    def constants():
        model = spectral.criticalize(raw)
        sd = spectral.spectral_data(model)
        return model, sd, spectral.nu(model, sd), spectral.fluctuation_variance(model, sd, arr["f"])

    def check_constants(res):
        _model, sd, nu_val, sig = res
        out.update(nu=nu_val, sigma_sq=sig)
        bad = [] if sd.is_critical else [f"lambda0 {sd.lambda0:.3e} not critical"]
        if ref is not None:
            if rel_err(nu_val, ref["nu"]) > 1e-10:
                bad.append(f"nu {nu_val!r} vs reference {ref['nu']!r}")
            if rel_err(sig, ref["sigma_sq"]) > 1e-8:
                bad.append(f"sigma_f^2 {sig!r} vs reference {ref['sigma_sq']!r}")
        return bad

    res = p.query("model", f"{label}.constants", constants, check_constants)
    if res is None:
        for q in ("variance_limit", "solve", "variance"):
            p.skip(f"{label}.{q}", "constants failed")
        return out
    model, sd = res[0], res[1]

    def check_vlc(report):
        profiles = [row.var_profile.tolist() for row in report.rows]
        out["profiles"] = profiles
        if ref is None:
            return []
        return [
            f"variance profile at t={row.t:g} off by rel {rel_err(got, want):.2e}"
            for row, got, want in zip(report.rows, profiles, ref["profiles"])
            if rel_err(got, want) > 1e-8
        ]

    p.query(
        "model", f"{label}.variance_limit",
        lambda: moments.variance_limit_check(model, sd, arr["f"], [5.0, 10.0, 15.0]),
        check_vlc,
    )

    def check_solve(traj):
        out["solve_final"] = traj.final.tolist()
        if ref is None:
            return []
        err = rel_err(traj.final, ref["solve_final"])
        return [f"solution off the reference by rel {err:.2e}"] if err > 1e-6 else []

    p.query(
        "model", f"{label}.solve",
        lambda: loglaplace.solve_log_laplace(model, arr["f0"], t_solve),
        check_solve,
    )

    def check_var(pair):
        var_q, var_fd = pair
        gap = abs(var_q - var_fd)
        return [] if gap <= 1e-4 * max(abs(var_q), 1.0) else [
            f"variance {var_q!r} vs transform oracle {var_fd!r}"]

    p.query(
        "model", f"{label}.variance",
        lambda: (
            moments.variance(model, arr["g"], t_var, arr["mu"], rtol=1e-6),
            moments.variance_from_transform(model, arr["g"], t_var, arr["mu"]),
        ),
        check_var,
    )
    return out


def sweep(env, seed: int, smoke: bool = False, wrong: bool = False):
    from spcrit import moments, spectral

    entries = env.reference["sweep"]["models"]
    rng = np.random.default_rng([_TAG["sweep"], seed])
    per_size = 1 if smoke else 8
    pick = []
    for n in (2, 3):
        # one model per cost stratum (by the reference commit's query time),
        # so a run's total cost depends little on which models the seed drew
        pool = sorted((e["cost_s"], i) for i, e in enumerate(entries) if e["n"] == n)
        for stratum in np.array_split(np.array([i for _c, i in pool]), per_size):
            pick.append(int(rng.choice(stratum)))
    rng.shuffle(pick)
    prepared = []
    for k, i in enumerate(pick):
        raw, arr = sweep_inputs(entries[i])
        ref = dict(entries[i]["expected"])
        if wrong and k == 0:
            ref["sigma_sq"] *= 1.0 + 1e-6
        prepared.append((i, raw, arr, entries[i]["t_solve"], entries[i]["t_var"], ref))
    m2, sd2 = env.m2, env.sd2
    f2 = np.array([1.0, -1.0])

    def run(p: Pass) -> None:
        def m2_constants():
            return spectral.nu(m2, sd2), spectral.fluctuation_variance(m2, sd2, f2)

        def check_m2(pair):
            nu_val, sig = pair
            bad = []
            if p.closed_form(abs(nu_val - NU_M2)) > 1e-10:
                bad.append(f"nu {nu_val!r} vs 1/sqrt(2)")
            if p.closed_form(abs(sig - SIGMA_M2)) > 1e-8:
                bad.append(f"sigma_f^2 {sig!r} vs 1/sqrt(2)")
            return bad

        p.query("m2", "m2.constants", m2_constants, check_m2)

        def check_m2_vlc(report):
            last = report.rows[-1]
            dev = float(np.abs(last.var_profile - last.limit_profile).max())
            bad = [] if report.fitted_rate >= 1.6 else [
                f"fitted rate {report.fitted_rate:.3f} < 1.6"]
            return bad + ([] if dev < 1e-8 else [f"|dev| at t=15 {dev:.2e} >= 1e-8"])

        p.query(
            "m2", "m2.variance_limit",
            lambda: moments.variance_limit_check(m2, sd2, f2, [5.0, 10.0, 15.0]),
            check_m2_vlc,
        )
        for i, raw, arr, t_solve, t_var, ref in prepared:
            sweep_queries(p, raw, arr, t_solve, t_var, ref, label=f"pool[{i}]")

    def summarize(passes) -> dict:
        per_model = statistics.median([p.seconds["model"] for p in passes])
        return {"models_per_s": (len(prepared) / per_model, "1/s")}

    return Workload(run, summarize)


# ---------------------------------------------------------------------------
# mc: the Monte Carlo pipeline, library and CLI

def mc_threads() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def mc_legs(p: Pass, env, sim_seed: int, n1: int, n2: int, threads: int,
            p_oracle: float):
    """Library legs of criterion 8 with its gates; returns the m2 ensemble."""
    from spcrit import montecarlo

    m1, m2, sd1, sd2 = env.m1, env.m2, env.sd1, env.sd2
    cfg1 = montecarlo.SimConfig(t_end=MC_T, dt=MC_DT, n_paths=n1, seed=sim_seed,
                                n_threads=threads)
    cfg2 = montecarlo.SimConfig(t_end=MC_T, dt=MC_DT, n_paths=n2, seed=sim_seed,
                                n_threads=threads)
    se = math.sqrt(p_oracle * (1.0 - p_oracle) / n1)

    def check_m1(ens):
        gap = abs(ens.survival_fraction - p_oracle)
        return [] if gap <= 3.0 * se else [
            f"survival {ens.survival_fraction:.5f} vs {p_oracle:.5f} ({gap / se:.2f} SE)"]

    ens1 = p.query("simulate", "m1.simulate_paths",
                   lambda: montecarlo.simulate_paths(m1, [1.0], cfg1, sd=sd1), check_m1)
    if ens1 is None:
        p.skip("m1.stats", "simulation failed")
    else:
        def check_ks(ks):
            return [] if ks.p_value > 0.01 else [f"KS exp p={ks.p_value:.4f}"]

        p.query(
            "stats", "m1.stats",
            lambda: montecarlo.ks_exponential_test(
                montecarlo.conditional_statistics(ens1, sd1, sd1.phi0).v, NU_M1),
            check_ks,
        )

    def check_m2(ens):
        n = int(ens.survived.sum())
        return [] if n >= 1000 else [f"only {n} survivors (need 1000)"]

    ens2 = p.query("simulate", "m2.simulate_paths",
                   lambda: montecarlo.simulate_paths(m2, [1.0, 0.0], cfg2, sd=sd2), check_m2)
    if ens2 is None:
        p.skip("m2.stats", "simulation failed")
        return None

    def stats2():
        samples = montecarlo.conditional_statistics(ens2, sd2, np.array([1.0, -1.0]))
        return samples, montecarlo.clt_checks(samples, NU_M2, SIGMA_M2)

    def check_clt(pair):
        samples, clt = pair
        target = NU_M2 * SIGMA_M2
        bad = []
        if abs(samples.z2_mean - target) > 0.15 * target:
            bad.append(f"E[Z^2] {samples.z2_mean:.4f} vs {target:.4f} (>15%)")
        if clt.ks_product.p_value <= 0.001:
            bad.append(f"product KS p={clt.ks_product.p_value:.5f}")
        if clt.ks_ratio.p_value <= 0.001:
            bad.append(f"ratio KS p={clt.ks_ratio.p_value:.5f}")
        if not clt.independence_ok:
            bad.append(f"independence corr={clt.correlation:.4f}")
        return bad

    p.query("stats", "m2.stats", stats2, check_clt)
    return ens2


def mc(env, seed: int, smoke: bool = False, wrong: bool = False):
    from spcrit import cli, montecarlo

    seeds = env.reference["mc"]["seeds"]
    rng = np.random.default_rng([_TAG["mc"], seed])
    sim_seed = int(seeds[0] if smoke else rng.choice(seeds))
    n1 = 10_000 if smoke else MC_PATHS_M1
    n2 = MC_PATHS_M2
    threads = mc_threads()
    p_oracle = -math.expm1(-2.0 / MC_T) * (1.5 if wrong else 1.0)
    model_path = os.path.join(env.workdir, "m2.json")
    csv_path = os.path.join(env.workdir, "simulate.csv")
    with open(model_path, "w", encoding="utf-8") as fh:
        fh.write(env.dump_model(env.m2))
    argv = [
        "simulate", model_path, "--mu", "1,0", "--t", repr(MC_T), "--dt", repr(MC_DT),
        "--paths", str(n2), "--seed", str(sim_seed), "--f", "1,-1",
        "--threads", str(threads), "--out", csv_path,
    ]

    def run(p: Pass) -> None:
        ens2 = mc_legs(p, env, sim_seed, n1, n2, threads, p_oracle)

        def check_cli(code):
            if code != 0:
                return [f"exit code {code}"]
            p.facts["csv_bytes"] = os.path.getsize(csv_path)
            if ens2 is None:
                return ["no library ensemble to compare with"]
            rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
            os.remove(csv_path)
            same = (
                rows.shape == (n2, 4 + env.m2.n_states)
                and np.array_equal(rows[:, 0], np.arange(n2))
                and np.array_equal(rows[:, 1], ens2.survived.astype(float))
                and np.array_equal(rows[:, 2:2 + env.m2.n_states], ens2.states_at_t)
            )
            return [] if same else ["CSV rows differ from the library ensemble"]

        p.query("cli", "cli.simulate", lambda: cli.main(argv), check_cli)

    def summarize(passes) -> dict:
        return {
            "paths_per_s": ((n1 + n2) / statistics.median([p.seconds["simulate"] for p in passes]), "1/s"),
            "cli_simulate_s": (statistics.median([p.seconds["cli"] for p in passes]), "s"),
        }

    def thread_speedup(passes) -> float:
        """1-thread over ``threads``-thread time of the m2 simulation."""
        cfg = montecarlo.SimConfig(t_end=MC_T, dt=MC_DT, n_paths=n2, seed=sim_seed,
                                   n_threads=1)
        start = time.perf_counter()
        montecarlo.simulate_paths(env.m2, [1.0, 0.0], cfg, sd=env.sd2)
        one = time.perf_counter() - start
        return one / statistics.median([p.query_s["m2.simulate_paths"] for p in passes])

    return Workload(run, summarize, thread_speedup)


WORKLOADS = {"horizon": horizon, "sweep": sweep, "mc": mc}
