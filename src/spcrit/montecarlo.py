"""Path simulation of the finite-state mass process and statistical checks.

The process is discretized by a positivity-preserving (full-truncation)
Euler scheme: linear drift through the transposed rate matrix plus the
local growth rate, a square-root diffusion per state driven by the
quadratic mechanism coefficient, and per-atom Poisson jump counts.  Paths
are simulated in fixed-size chunks, each drawing from its own
counter-based stream keyed by (seed, chunk index), so results do not
depend on thread count or scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import (
    SuperprocessModel,
    as_measure,
    derived_coefficients,
)
from .spectral import (
    SpectralData,
    remove_principal_component,
    require_critical,
    spectral_data,
)

CHUNK_PATHS = 4096
_COMPACT_EVERY = 32


class SimulationError(RuntimeError):
    """Configuration or runtime failure of the path simulation."""


@dataclass(frozen=True)
class SimConfig:
    """Horizon, step, path count, seed and worker thread count."""

    t_end: float
    dt: float
    n_paths: int
    seed: int
    n_threads: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise SimulationError(f"dt must be > 0, got {self.dt}")
        if self.t_end < self.dt:
            raise SimulationError("t_end must be at least one step")
        if self.n_paths < 1:
            raise SimulationError("need at least one path")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise SimulationError("t_end must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Terminal masses per path with survival flags and stream provenance."""

    states_at_t: np.ndarray   # (n_paths, n_states), nonnegative
    survived: np.ndarray      # (n_paths,) bool, true iff total mass > 0
    seed_map: np.ndarray      # (n_paths,) stream id (chunk index) per path
    t_end: float
    dt: float
    seed: int

    @property
    def n_paths(self) -> int:
        return self.states_at_t.shape[0]

    @property
    def survival_fraction(self) -> float:
        return float(self.survived.mean())


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_chunk(
    model: SuperprocessModel,
    mu: np.ndarray,
    cfg: SimConfig,
    chunk: int,
    n_chunk: int,
) -> np.ndarray:
    rng = _chunk_rng(cfg.seed, chunk)
    br = model.branching
    Q = model.Q
    alpha = derived_coefficients(model).alpha
    diff_coeff = 2.0 * br.beta * br.b * cfg.dt
    atoms = [
        (i, float(y), float(br.beta[i] * w * cfg.dt))
        for i in range(model.n_states)
        for y, w in br.jumps[i]
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
        Xa = Xa + dt * (Xa @ Q + alpha * Xa)
        Xa = Xa + np.sqrt(diff_coeff * np.maximum(Xa, 0.0)) * xi
        for i, y, rate in atoms:
            lam = np.maximum(Xa[:, i], 0.0) * rate
            Xa[:, i] += y * rng.poisson(lam)
        np.maximum(Xa, 0.0, out=Xa)
        X[alive] = Xa
    return X


def simulate_paths(
    model: SuperprocessModel,
    mu,
    cfg: SimConfig,
    sd: SpectralData | None = None,
) -> PathEnsemble:
    """Simulate n_paths independent copies started from mu up to t_end."""
    mu = as_measure(model, mu)
    if sd is None:
        sd = spectral_data(model)
    require_critical(sd)
    dc = derived_coefficients(model)
    qnorm = float(np.abs(model.Q).sum(axis=1).max())
    if cfg.dt * (qnorm + dc.kbound) > 0.2:
        raise SimulationError(
            f"dt = {cfg.dt} too large: dt*(|Q|_inf + kbound) = "
            f"{cfg.dt * (qnorm + dc.kbound):.3f} exceeds 0.2"
        )

    n_chunks = (cfg.n_paths + CHUNK_PATHS - 1) // CHUNK_PATHS
    sizes = [
        min(CHUNK_PATHS, cfg.n_paths - c * CHUNK_PATHS) for c in range(n_chunks)
    ]
    out = np.empty((cfg.n_paths, model.n_states))
    seed_map = np.empty(cfg.n_paths, dtype=np.uint64)

    def run(c: int) -> None:
        lo = c * CHUNK_PATHS
        out[lo : lo + sizes[c]] = _simulate_chunk(model, mu, cfg, c, sizes[c])
        seed_map[lo : lo + sizes[c]] = c

    if cfg.n_threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_threads) as pool:
            list(pool.map(run, range(n_chunks)))
    else:
        for c in range(n_chunks):
            run(c)

    return PathEnsemble(
        states_at_t=out,
        survived=out.any(axis=1),
        seed_map=seed_map,
        t_end=cfg.t_end,
        dt=cfg.dt,
        seed=cfg.seed,
    )


@dataclass(frozen=True, eq=False)
class ConditionalSamples:
    """Rescaled functionals over surviving paths.

    v: mass against phi0 over t.  z: mass against the principal-free part
    of f over sqrt(t).  One entry per surviving path.
    """

    v: np.ndarray
    z: np.ndarray
    n_survivors: int
    n_paths: int

    @property
    def z2_mean(self) -> float:
        return float((self.z ** 2).mean())


def conditional_statistics(
    ensemble: PathEnsemble,
    sd: SpectralData,
    f,
) -> ConditionalSamples:
    """Per-surviving-path samples of the two rescaled limit functionals."""
    if ensemble.n_paths == 0:
        raise SimulationError("empty ensemble")
    n_surv = int(ensemble.survived.sum())
    if n_surv == 0:
        raise SimulationError("no surviving paths; increase n_paths or lower t")
    f = np.asarray(f, dtype=float)
    f_tilde = remove_principal_component(f, sd)
    X = ensemble.states_at_t[ensemble.survived]
    t = ensemble.t_end
    return ConditionalSamples(
        v=X @ sd.phi0 / t,
        z=X @ f_tilde / math.sqrt(t),
        n_survivors=n_surv,
        n_paths=ensemble.n_paths,
    )


# ---------------------------------------------------------------------------
# limit laws and goodness-of-fit

@dataclass(frozen=True)
class LimitLaw:
    """Conditional limit pair: exponential mass scale and normal fluctuation.

    The mass functional limit is exponential with mean nu_mean; the
    fluctuation limit is centered normal with variance sigma_sq, and their
    product with the square root of the exponential has the two-sided
    exponential density returned by product_density.
    """

    nu_mean: float
    sigma_sq: float

    @property
    def product_scale(self) -> float:
        return math.sqrt(2.0 * self.nu_mean * self.sigma_sq)

    def sample(self, rng: np.random.Generator, size: int):
        """Pairs (W, G sqrt(W)) drawn from the limit law itself."""
        w = rng.exponential(self.nu_mean, size)
        g = rng.normal(0.0, math.sqrt(self.sigma_sq), size)
        return w, g * np.sqrt(w)

    def product_density(self, x) -> np.ndarray:
        s = self.product_scale
        return np.exp(-2.0 * np.abs(np.asarray(x, dtype=float)) / s) / s

    def product_cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        b = 0.5 * self.product_scale
        return np.where(x < 0, 0.5 * np.exp(x / b), 1.0 - 0.5 * np.exp(-x / b))


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n_samples: int


def _ks_series_pvalue(lam: float) -> float:
    """Asymptotic Kolmogorov tail probability, series truncated at 100 terms."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
    return float(min(1.0, max(0.0, 2.0 * total)))


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided KS distance between the empirical law and a CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = np.clip(np.asarray(cdf(x), dtype=float), 0.0, 1.0)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - F))
    d_minus = float(np.max(F - (grid - 1.0 / n)))
    return max(d_plus, d_minus)


def ks_exponential_test(samples, scale: float) -> KsResult:
    """KS test of the samples against the exponential law with mean scale."""
    x = np.asarray(samples, dtype=float)
    if x.size < 100:
        raise SimulationError(f"need >= 100 samples for the KS test, got {x.size}")
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    d = ks_statistic(x, lambda v: 1.0 - np.exp(-np.maximum(v, 0.0) / scale))
    return KsResult(d, _ks_series_pvalue(math.sqrt(x.size) * d), int(x.size))


@dataclass(frozen=True)
class CltReport:
    """Outcome of the three conditional central-limit checks."""

    ks_product: KsResult       # fluctuation samples vs two-sided exponential
    ks_ratio: KsResult         # fluctuation over sqrt(mass) vs normal
    correlation: float         # squared ratio against the mass sample
    correlation_limit: float   # four standard errors under independence
    independence_ok: bool


def clt_checks(samples: ConditionalSamples, nu_mean: float, sigma_sq: float) -> CltReport:
    """Distributional and independence checks of the second-order limit.

    Needs at least 1e3 surviving-path samples; at the reference scale
    (2e5 paths to t = 50 on a critical model) roughly 2% of paths survive.
    """
    if samples.v.size < 1_000:
        raise SimulationError(
            f"need >= 1e3 conditional samples, got {samples.v.size}"
        )
    law = LimitLaw(nu_mean, sigma_sq)
    n = samples.z.size
    d1 = ks_statistic(samples.z, law.product_cdf)
    ks_product = KsResult(d1, _ks_series_pvalue(math.sqrt(n) * d1), n)

    ratio = samples.z / np.sqrt(samples.v)
    sig = math.sqrt(sigma_sq)
    d2 = ks_statistic(ratio, lambda v: ndtr(v / sig))
    ks_ratio = KsResult(d2, _ks_series_pvalue(math.sqrt(n) * d2), n)

    u = ratio ** 2
    corr = float(np.corrcoef(u, samples.v)[0, 1])
    limit = 4.0 / math.sqrt(n)
    return CltReport(
        ks_product=ks_product,
        ks_ratio=ks_ratio,
        correlation=corr,
        correlation_limit=limit,
        independence_ok=abs(corr) <= limit,
    )
