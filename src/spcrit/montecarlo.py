"""Path simulation of the finite-state mass process and statistical checks.

The process is discretized by a positivity-preserving (full-truncation)
Euler scheme: linear drift through the transposed rate matrix plus the
local growth rate, a square-root diffusion per state driven by the
quadratic mechanism coefficient, and per-atom Poisson jump counts.  Paths
are simulated in chunks of ``CHUNK_PATHS``, each drawing from its own
counter-based stream keyed by (seed, chunk index); path p belongs to chunk
p // CHUNK_PATHS.

With T worker threads, thread t advances chunks t, t + T, t + 2T, ... in
lockstep, up to ``_GROUP_CHUNKS`` of them at a time: the alive paths of
those chunks form one array, and each step is one array expression over
it.  Paths that died are dropped every ``_COMPACT_EVERY`` steps.  Between
two such compactions each chunk draws the normals of several steps as one
slab, which consumes its stream exactly as one draw per step would; with
jumps the slab is one step, because the Poisson draws come between the
normals.  The drift is summed column by column rather than by a matrix
product, so a path's arithmetic does not depend on where it sits in the
array.  Results therefore do not depend on thread count or scheduling.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov, ndtr

from .model import (
    ModelError,
    SuperprocessModel,
    _require_finite,
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
_GROUP_CHUNKS = 16       # chunks in one lockstep array; bounds its memory
_SLAB_VALUES = 1 << 16   # normals drawn at once per group, at most


class SimulationError(RuntimeError):
    """Configuration or runtime failure of the path simulation."""


class SimulationConfigError(SimulationError, ModelError):
    """A rejected setting; as a ModelError the CLI exits 2 on it."""


@dataclass(frozen=True)
class SimConfig:
    """Horizon, step, path count, seed and worker thread count."""

    t_end: float
    dt: float
    n_paths: int
    seed: int
    n_threads: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise SimulationConfigError(f"dt must be finite and > 0, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise SimulationConfigError(f"t_end must be finite, got {self.t_end}")
        if self.t_end < self.dt:
            raise SimulationConfigError(f"t_end {self.t_end} is under one step dt {self.dt}")
        for name, low in (("n_paths", 1), ("n_threads", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise SimulationConfigError(
                    f"{name} must be an integer >= {low}, got {value!r}"
                )
        if self.seed >= 2**64:
            raise SimulationConfigError(f"seed must be below 2**64, got {self.seed}")
        if not math.isfinite(self.t_end / self.dt):
            raise SimulationConfigError(
                f"t_end / dt must be finite, got {self.t_end} / {self.dt}"
            )
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise SimulationConfigError(f"t_end {self.t_end} is no multiple of dt {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Terminal masses per path with survival flags.

    Path ``p`` drew from the stream of chunk ``p // CHUNK_PATHS``.
    """

    states_at_t: np.ndarray   # (n_paths, n_states), nonnegative
    survived: np.ndarray      # (n_paths,) bool, true iff total mass > 0
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


def _drift(X: np.ndarray, Q: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """X Q + alpha X, summed as sum_j X[:, j] Q[j] one column at a time.

    The BLAS kernel behind X @ Q depends on the row count and on a row's
    place in its block, and can change the last bit of a row's result;
    here every row is rounded the same way wherever it sits.
    """
    drift = X[:, :1] * Q[0]
    for j in range(1, X.shape[1]):
        drift += X[:, j : j + 1] * Q[j]
    drift += alpha * X
    return drift


def _simulate_group(
    model: SuperprocessModel,
    mu: np.ndarray,
    cfg: SimConfig,
    chunks: list[int],
    out: np.ndarray,
) -> None:
    """Advance the paths of ``chunks`` in lockstep; write them to ``out``.

    The alive rows of all chunks sit in one array with their output rows
    in ``pos``, which ascends, so each chunk's rows are one slice.  Each
    step is one array expression over the whole group; only the draws are
    made per chunk, from the chunk's own stream and in the order the chunk
    would draw them alone.
    """
    rngs = [_chunk_rng(cfg.seed, c) for c in chunks]
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
    n = model.n_states

    firsts = np.array(chunks) * CHUNK_PATHS
    pos = np.concatenate(
        [np.arange(lo, min(lo + CHUNK_PATHS, cfg.n_paths)) for lo in firsts]
    )
    X = np.tile(mu, (pos.size, 1))
    for start in range(0, cfg.n_steps, _COMPACT_EVERY):
        mask = X.any(axis=1)
        if not mask.all():
            out[pos[~mask]] = X[~mask]
            X, pos = X[mask], pos[mask]
            if pos.size == 0:
                return
        bounds = np.append(np.searchsorted(pos, firsts), pos.size)
        counts = np.diff(bounds)
        live = [c for c in range(len(chunks)) if counts[c]]
        window = min(_COMPACT_EVERY, cfg.n_steps - start)
        # Poisson draws interleave with the normals, so jumps force 1 step
        slab = 1 if atoms else max(1, min(window, _SLAB_VALUES // X.size))
        for first in range(0, window, slab):
            steps = min(slab, window - first)
            xi = np.concatenate(
                [rngs[c].standard_normal((steps, counts[c], n)) for c in live],
                axis=1,
            )
            for s in range(steps):
                drift = _drift(X, Q, alpha)
                drift *= dt
                X += drift
                noise = np.maximum(X, 0.0)
                noise *= diff_coeff
                np.sqrt(noise, out=noise)
                noise *= xi[s]
                X += noise
                for i, y, rate in atoms:
                    lam = np.maximum(X[:, i], 0.0) * rate
                    kicks = np.concatenate(
                        [rngs[c].poisson(lam[bounds[c] : bounds[c + 1]]) for c in live]
                    )
                    X[:, i] += y * kicks
                np.maximum(X, 0.0, out=X)
    out[pos] = X


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
    if cfg.dt * (dc.qnorm + dc.kbound) > 0.2:
        raise SimulationConfigError(
            f"dt = {cfg.dt} too large: dt*(|Q|_inf + kbound) = "
            f"{cfg.dt * (dc.qnorm + dc.kbound):.3f} exceeds 0.2"
        )

    n_chunks = (cfg.n_paths + CHUNK_PATHS - 1) // CHUNK_PATHS
    out = np.empty((cfg.n_paths, model.n_states))
    n_groups = min(cfg.n_threads, n_chunks)

    def run(g: int) -> None:
        chunks = list(range(g, n_chunks, n_groups))
        for i in range(0, len(chunks), _GROUP_CHUNKS):
            _simulate_group(model, mu, cfg, chunks[i : i + _GROUP_CHUNKS], out)

    if n_groups > 1:
        with ThreadPoolExecutor(max_workers=n_groups) as pool:
            for future in [pool.submit(run, g) for g in range(n_groups)]:
                future.result()
    else:
        run(0)

    return PathEnsemble(
        states_at_t=out,
        survived=out.any(axis=1),
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
    """Per-surviving-path samples of the two rescaled limit functionals.

    f must be a finite vector with one entry per state; the error names
    a wrong shape or the first non-finite entry, as ``as_field`` does.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != sd.m.shape:
        raise ModelError(f"field vector must have shape {sd.m.shape}, got {f.shape}")
    _require_finite("vector entry ", f)
    if ensemble.n_paths == 0:
        raise SimulationError("empty ensemble")
    n_surv = int(ensemble.survived.sum())
    if n_surv == 0:
        raise SimulationError("no surviving paths; increase n_paths or lower t")
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
        tail = 0.5 * np.exp(-np.abs(x) / b)
        return np.where(x < 0, tail, 1.0 - tail)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n_samples: int


def _ks_pvalue(d: float, n: int) -> float:
    """Tail of the asymptotic Kolmogorov law at sqrt(n) * d."""
    return float(kolmogorov(math.sqrt(n) * d))


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
    return KsResult(d, _ks_pvalue(d, x.size), int(x.size))


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
    ks_product = KsResult(d1, _ks_pvalue(d1, n), n)

    ratio = samples.z / np.sqrt(samples.v)
    sig = math.sqrt(sigma_sq)
    d2 = ks_statistic(ratio, lambda v: ndtr(v / sig))
    ks_ratio = KsResult(d2, _ks_pvalue(d2, n), n)

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
