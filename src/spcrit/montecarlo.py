"""Path simulation of the finite-state mass process and statistical checks.

The process is discretized by a positivity-preserving (full-truncation)
Euler scheme: linear drift through the transposed rate matrix plus the
local growth rate, a square-root diffusion per state driven by the
quadratic mechanism coefficient, and per-atom Poisson jump counts.  The
jump terms e^{-zy} - 1 + zy are compensated, so the drift grows at
alpha - sum(y w) and the kicks, whose intensities are read at the step's
start, restore alpha in the mean.  Paths
are simulated in chunks of ``CHUNK_PATHS``, each drawing from its own SFC64
stream seeded by ``SeedSequence([seed, chunk index])`` (``_chunk_rng``);
path p belongs to chunk p // CHUNK_PATHS.

With T worker threads, thread t advances chunks t, t + T, t + 2T, ... in
lockstep, up to ``_GROUP_CHUNKS`` of them at a time: the alive paths of
those chunks form one array, and each step is one array expression over
it.  The array is state-major, one contiguous row per state and one
column per path, so every expression runs along the long path axis
rather than over a few states once per path.  Paths that died are dropped
every ``_COMPACT_EVERY`` steps.  Between two such compactions each chunk
draws the normals of several steps as one (steps, paths, states) slab,
which consumes its stream exactly as one draw per step would; with jumps
the slab is one step, because the Poisson draws come between the normals.
Each element of a step sees only its own path's values: the drift is
summed state row by state row in a fixed order rather than by a matrix
product, whose BLAS kernel depends on the array's size, so a path's
arithmetic does not depend on where it sits in the array.  Results
therefore do not depend on thread count or scheduling.  T is the
requested thread count, capped at the chunk count and at the CPUs
available to the process.

A step does only the array work its coefficients need.  The drift's terms
are listed once per group: a row of ``Q`` that is all zero and a growth
rate that is all zero add no term, and with no term left the step skips
the drift and the clamp before the noise, since ``X`` is >= 0 at every
step's start (mu is a measure, and each step ends in a clamp).  A skipped
term would add a signed zero, and x + (+-0) is x for every x but a zero,
whose sign the step's final clamp ``np.maximum(X, 0.0)`` resets to +0.
So the ensemble is the same to the bit as with every term summed.

The goodness-of-fit checks need no scipy: KS p-values come from the two
classical series of the asymptotic Kolmogorov law, and the normal CDF is
0.5 erfc(-x / sqrt(2)) from ``math.erfc``.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelError,
    SuperprocessModel,
    _as_vector,
    _require,
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


def _available_cpus() -> int:
    """CPUs this process may run on; the worker pool never exceeds them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class SimulationError(RuntimeError):
    """Configuration or runtime failure of the path simulation."""


class SimulationConfigError(SimulationError, ModelError):
    """A rejected setting; as a ModelError the CLI exits 2 on it."""


@dataclass(frozen=True)
class SimConfig:
    """Horizon, step, path count, seed and worker thread count.

    The seed is an integer in [0, 2**64).
    """

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
            # bool is an Integral, but True is no count and no seed
            if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                    or value < low):
                raise SimulationConfigError(
                    f"{name} must be an integer >= {low}, got {value!r}"
                )
        # SeedSequence takes any nonnegative integer; the public range is
        # one unsigned 64-bit word, the range of the CLI's --seed too
        if self.seed >= 2**64:
            raise SimulationConfigError(f"seed must be below 2**64, got {self.seed}")
        if not math.isfinite(self.t_end / self.dt):
            raise SimulationConfigError(
                f"t_end / dt must be finite, got {self.t_end} / {self.dt}"
            )
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
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
    """The stream of chunk ``chunk``: SFC64 seeded by SeedSequence([seed, chunk]).

    SeedSequence hashes the pair into the generator's state, numpy's way
    to key independent parallel streams; SFC64 has the cheapest normal
    draw of numpy's bit generators.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, chunk])))


def _drift_terms(Q: np.ndarray, growth: np.ndarray) -> list:
    """The drift's terms with a coefficient that is not all zero.

    Each term is ``(coef, j)``, to be multiplied as ``coef * X[j]``: one
    term ``(Q[j, :, None], j)`` per source state j in ascending order,
    then ``(growth[:, None], ...)`` for the growth rate.
    """
    terms = [(Q[j, :, None], j) for j in range(Q.shape[0]) if Q[j].any()]
    if growth.any():
        terms.append((growth[:, None], ...))
    return terms


def _drift(X: np.ndarray, terms: list, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Drift of state-major paths: out[k] = sum_j X[j] Q[j, k] + growth[k] X[k].

    ``X`` holds one row per state and one column per path; ``terms`` is a
    nonempty list from ``_drift_terms``.  The sum runs over the terms in
    their order, one row of ``X`` at a time, so each path is rounded the
    same way wherever it sits; a matrix product would leave the order to
    the BLAS kernel, which depends on the column count.  A term left out
    for its all-zero coefficient would add only a signed zero.  ``out``
    receives the drift and ``tmp`` is scratch, both of ``X``'s shape.
    """
    (coef, j), *rest = terms
    np.multiply(coef, X[j], out=out)
    for coef, j in rest:
        np.multiply(coef, X[j], out=tmp)
        out += tmp
    return out


def _simulate_group(
    model: SuperprocessModel,
    mu: np.ndarray,
    cfg: SimConfig,
    chunks: list[int],
    out: np.ndarray,
) -> None:
    """Advance the paths of ``chunks`` in lockstep; write them to ``out``.

    The alive paths of all chunks are the columns of one state-major array
    ``X`` of shape (n_states, paths), with their output rows in ``pos``,
    which ascends, so each chunk's paths are one slice of columns.  Each
    step is one array expression per state row over the whole group; only
    the draws are made per chunk, from the chunk's own stream and in the
    order the chunk would draw them alone.
    """
    rngs = [_chunk_rng(cfg.seed, c) for c in chunks]
    dc = derived_coefficients(model)
    dt = cfg.dt
    n = model.n_states
    # the jumps' compensator, -u * sum(y w), joins the linear growth rate
    terms = _drift_terms(model.Q, dc.alpha - dc.jump_yw)
    diff_coeff = (2.0 * dc.quad * dt)[:, None]
    atoms = [
        (i, float(dc.jump_y[i, k]), float(w * dt))
        for (i, k), w in np.ndenumerate(dc.jump_w) if w > 0
    ]

    firsts = np.array(chunks) * CHUNK_PATHS
    pos = np.concatenate(
        [np.arange(lo, min(lo + CHUNK_PATHS, cfg.n_paths)) for lo in firsts]
    )
    X = np.tile(mu[:, None], (1, pos.size))
    for start in range(0, cfg.n_steps, _COMPACT_EVERY):
        alive = X.any(axis=0)
        if not alive.all():
            dead = ~alive
            out[pos[dead]] = X[:, dead].T
            X, pos = X.compress(alive, axis=1), pos[alive]
            if pos.size == 0:
                return
        bounds = np.append(np.searchsorted(pos, firsts), pos.size)
        counts = np.diff(bounds)
        live = [c for c in range(len(chunks)) if counts[c]]
        drift = np.empty_like(X)
        tmp = np.empty_like(X)
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
                # jump intensities come from the step's start, where X >= 0
                kicks = []
                for i, y, rate in atoms:
                    lam = X[i] * rate
                    kicks.append((i, y * np.concatenate(
                        [rngs[c].poisson(lam[bounds[c] : bounds[c + 1]]) for c in live]
                    )))
                if terms:
                    _drift(X, terms, drift, tmp)
                    drift *= dt
                    X += drift
                    noise = np.maximum(X, 0.0, out=tmp)
                    noise *= diff_coeff
                else:
                    # no drift moved X since the last clamp, so X >= 0
                    noise = np.multiply(X, diff_coeff, out=tmp)
                np.sqrt(noise, out=noise)
                noise *= xi[s].T
                X += noise
                for i, kick in kicks:
                    X[i] += kick
                np.maximum(X, 0.0, out=X)
    out[pos] = X.T


def simulate_paths(
    model: SuperprocessModel,
    mu,
    cfg: SimConfig,
    sd: SpectralData | None = None,
) -> PathEnsemble:
    """Simulate n_paths independent copies started from mu up to t_end.
    The model must pass ``spectral_data`` and be critical; ``sd`` is unused."""
    mu = as_measure(model, mu)
    require_critical(spectral_data(model))
    dc = derived_coefficients(model)
    rate = dc.qnorm + float(np.max(np.abs(dc.alpha - dc.jump_yw) + dc.avar))
    if cfg.dt * rate > 0.2:
        raise SimulationConfigError(
            f"dt = {cfg.dt} too large: dt*(|Q|_inf + max(|alpha - jump_yw| + avar)) = "
            f"{cfg.dt * rate:.3f} exceeds 0.2"
        )

    n_chunks = (cfg.n_paths + CHUNK_PATHS - 1) // CHUNK_PATHS
    out = np.empty((cfg.n_paths, model.n_states))
    # more threads than CPUs only add start-up and switching; results do not
    # depend on the thread count
    n_groups = min(cfg.n_threads, n_chunks, _available_cpus())

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


def rescaled_functionals(
    states: np.ndarray, sd: SpectralData, f: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """V = <phi0, X> / t and Z = <f~, X> / sqrt(t) for each row X of
    ``states``, where f~ is f with its principal component removed."""
    f_tilde = remove_principal_component(f, sd)
    return states @ sd.phi0 / t, states @ f_tilde / math.sqrt(t)


def conditional_statistics(
    ensemble: PathEnsemble,
    sd: SpectralData,
    f,
) -> ConditionalSamples:
    """Per-surviving-path samples of the two rescaled limit functionals.

    f must be a finite vector with one entry per state; the error names
    a wrong shape or the first non-finite entry, as ``as_field`` does.
    """
    f = _as_vector(sd.m.size, f, "field")
    if ensemble.n_paths == 0:
        raise SimulationError("empty ensemble")
    n_surv = int(ensemble.survived.sum())
    if n_surv == 0:
        raise SimulationError("no surviving paths; increase n_paths or lower t")
    X = ensemble.states_at_t[ensemble.survived]
    v, z = rescaled_functionals(X, sd, f, ensemble.t_end)
    return ConditionalSamples(
        v=v,
        z=z,
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
    product with the square root of the exponential is two-sided
    exponential with scale product_scale / 2, whose law product_cdf gives.
    Both parameters must be finite and > 0.
    """

    nu_mean: float
    sigma_sq: float

    def __post_init__(self):
        for name in ("nu_mean", "sigma_sq"):
            v = np.float64(getattr(self, name))
            _require(name, v, np.isfinite(v) & (v > 0), "finite and > 0")

    @property
    def product_scale(self) -> float:
        return math.sqrt(2.0 * self.nu_mean * self.sigma_sq)

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
    """Tail P(K > x) of the asymptotic Kolmogorov law K at x = sqrt(n) * d.

    From x = 1 up the tail is 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2); below it,
    where that series converges slowly, it is
    1 - sqrt(2 pi) / x sum_k exp(-(2k - 1)^2 pi^2 / (8 x^2)).  Five terms
    of either leave out less than 1e-30 of its sum.  Below x = 0.1 the
    second series is under 1e-52, so the tail is 1.0 in floating point;
    returning it there also keeps pi / x finite.
    """
    x = math.sqrt(n) * d
    if x >= 1.0:
        return 2.0 * sum(
            (-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 6)
        )
    if x <= 0.1:
        return 1.0
    c = (math.pi / x) ** 2 / 8.0
    return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(
        math.exp(-(2 * k - 1) ** 2 * c) for k in range(1, 6)
    )


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-x / sqrt(2)), elementwise."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / -math.sqrt(2.0)).astype(float)


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
    """KS test of the samples against the exponential law with mean scale.

    The samples must be finite and >= 0; the error names the first that
    is not.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 100:
        raise SimulationError(f"need >= 100 samples for the KS test, got {x.size}")
    _require("samples", x, np.isfinite(x) & (x >= 0), "finite and >= 0")
    scale = np.float64(scale)
    _require("scale", scale, np.isfinite(scale) & (scale > 0), "finite and > 0")
    d = ks_statistic(x, lambda v: 1.0 - np.exp(-v / scale))
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

    The fluctuation samples are KS-tested against the two-sided
    exponential law, and their ratios to sqrt(mass) against the centered
    normal law with variance sigma_sq (``_normal_cdf``); both p-values come
    from ``_ks_pvalue``.  Needs at least 1e3 surviving-path samples; at the
    reference scale (2e5 paths to t = 50 on a critical model) roughly 2%
    of paths survive.  Each mass sample must be finite and > 0 and each
    fluctuation sample finite; the error names the first that is not.
    """
    if samples.v.size < 1_000:
        raise SimulationError(
            f"need >= 1e3 conditional samples, got {samples.v.size}"
        )
    v = samples.v
    _require("v", v, np.isfinite(v) & (v > 0), "finite and > 0")
    _require_finite("z", samples.z)
    law = LimitLaw(nu_mean, sigma_sq)
    n = samples.z.size
    d1 = ks_statistic(samples.z, law.product_cdf)
    ks_product = KsResult(d1, _ks_pvalue(d1, n), n)

    ratio = samples.z / np.sqrt(samples.v)
    sig = math.sqrt(sigma_sq)
    d2 = ks_statistic(ratio, lambda v: _normal_cdf(v / sig))
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
