"""Finite-state superprocess models.

A model bundles three ingredients: a finite state space with strictly
positive reference weights, a spatial transition-rate generator (killing
encoded as row-sum deficit), and branching data consisting of a rate
``beta``, a linear coefficient ``a``, a quadratic (diffusion) coefficient
``b`` and a per-state list of jump atoms representing a finite jump kernel.

Model files are JSON objects with keys ``states``, ``m``, ``Q``, ``beta``,
``a``, ``b``, ``jumps``.  ``jumps`` holds one array per state whose entries
are ``{"y": size, "w": weight}`` objects.  Unknown keys are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

# Roundoff slack for the time-dependent dual sub-Markov check.
TOL_DUAL = 1e-10
_COND_LIMIT = 1e8     # eigenvector condition number above which we fall back

MODEL_KEYS = ("states", "m", "Q", "beta", "a", "b", "jumps")


class ModelError(ValueError):
    """A model definition violates a structural constraint."""


class ParseError(ModelError):
    """Model text is not valid JSON or not the expected shape."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _require(name: str, arr: np.ndarray, ok: np.ndarray, requirement: str) -> None:
    """Reject the first entry of ``arr`` where ``ok`` is false, naming it as
    ``name[i][j] must be <requirement>, got <value>``."""
    if ok.all():
        return
    idx = np.unravel_index(np.argmin(ok), ok.shape)
    where = "".join(f"[{i}]" for i in idx)
    raise ModelError(f"{name}{where} must be {requirement}, got {arr[idx]}")


def _require_finite(name: str, arr: np.ndarray) -> None:
    """Reject NaN and infinite entries, naming the first one."""
    _require(name, arr, np.isfinite(arr), "finite")


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Finite set of states and strictly positive reference weights."""

    labels: tuple[str, ...]
    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "m", _freeze(self.m))
        if self.m.ndim != 1 or len(self.labels) != self.m.size or self.m.size < 1:
            raise ModelError(
                f"states and m must be equal-length and nonempty, got "
                f"{len(self.labels)} labels and m of shape {self.m.shape}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("state labels must be pairwise distinct")
        _require_finite("m", self.m)
        _require("m", self.m, self.m > 0, "> 0")

    @property
    def n(self) -> int:
        return self.m.size


@dataclass(frozen=True, eq=False)
class SpatialGenerator:
    """Transition-rate matrix; nonnegative off-diagonal, row sums <= 0."""

    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _freeze(self.Q))
        Q = self.Q
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ModelError(f"Q must be square, got shape {Q.shape}")
        _require_finite("Q", Q)
        _require("Q", Q, (Q >= 0) | np.eye(Q.shape[0], dtype=bool), ">= 0")
        scale = max(1.0, float(np.abs(Q).max(initial=0.0)))
        rows = Q.sum(axis=1)
        _require("row sum of Q", rows, rows <= 1e-12 * scale, "<= 0")


@dataclass(frozen=True, eq=False)
class BranchingData:
    """Per-state branching rate, mechanism coefficients and jump atoms.

    ``jumps[i]`` is an (k_i, 2) array of (size, weight) atoms, both finite
    and > 0.
    """

    beta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    jumps: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", _freeze(self.beta))
        object.__setattr__(self, "a", _freeze(self.a))
        object.__setattr__(self, "b", _freeze(self.b))
        for name in ("beta", "a", "b"):
            _require_finite(name, getattr(self, name))
        norm = []
        for i, atoms in enumerate(self.jumps):
            arr = np.array(atoms, dtype=float).reshape(-1, 2)
            for k in range(arr.shape[0]):
                if not 0 < arr[k, 0] < math.inf:
                    raise ModelError(
                        f"jumps[{i}][{k}].y must be finite and > 0, got {arr[k, 0]}"
                    )
                if not 0 < arr[k, 1] < math.inf:
                    raise ModelError(
                        f"jumps[{i}][{k}].w must be finite and > 0, got {arr[k, 1]}"
                    )
            arr.setflags(write=False)
            norm.append(arr)
        object.__setattr__(self, "jumps", tuple(norm))
        n = self.beta.size
        if not (self.a.size == n and self.b.size == n and len(self.jumps) == n):
            raise ModelError(
                f"branching arrays must share one length, got beta:{n} "
                f"a:{self.a.size} b:{self.b.size} jumps:{len(self.jumps)}"
            )
        _require("beta", self.beta, self.beta >= 0, ">= 0")
        _require("b", self.b, self.b >= 0, ">= 0")

    def jump_total_weight(self) -> np.ndarray:
        return np.array([a[:, 1].sum() for a in self.jumps])


@dataclass(frozen=True, eq=False)
class SuperprocessModel:
    """Immutable model; safe to share read-only across threads."""

    space: StateSpace
    motion: SpatialGenerator
    branching: BranchingData

    def __post_init__(self):
        n = self.space.n
        if self.motion.Q.shape[0] != n:
            raise ModelError(
                f"Q has {self.motion.Q.shape[0]} states but the space has {n}"
            )
        if self.branching.beta.size != n:
            raise ModelError(
                f"branching data has {self.branching.beta.size} states "
                f"but the space has {n}"
            )
        # Degenerate branching (no diffusion and no jumps anywhere beta > 0)
        # makes the process deterministic in law; excluded.
        activity = self.branching.beta * (
            self.branching.b + self.branching.jump_total_weight()
        )
        if not np.any(activity > 0):
            raise ModelError(
                "beta*(b + total jump weight) vanishes at every state; "
                "the branching mechanism must be non-degenerate somewhere"
            )

    @property
    def n_states(self) -> int:
        return self.space.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    @property
    def m(self) -> np.ndarray:
        return self.space.m

    @property
    def Q(self) -> np.ndarray:
        return self.motion.Q

    @cached_property
    def _derived(self) -> DerivedCoefficients:
        # the model is immutable, so this is built once, on first use
        br = self.branching
        alpha = br.beta * br.a
        y2w = np.array([(a[:, 0] ** 2 * a[:, 1]).sum() for a in br.jumps])
        avar = br.beta * (2.0 * br.b + y2w)
        L = self.Q + np.diag(alpha)
        jy = np.zeros((self.n_states, max(a.shape[0] for a in br.jumps)))
        jw = np.zeros_like(jy)
        for i, atoms in enumerate(br.jumps):
            jy[i, : len(atoms)] = atoms[:, 0]
            jw[i, : len(atoms)] = br.beta[i] * atoms[:, 1]
        eig = eigensystem = None
        try:
            eig = sla.eig(L, left=True, right=True)
            cond = np.linalg.cond(eig[2])
            if np.isfinite(cond) and cond < _COND_LIMIT:
                eigensystem = (eig[0], eig[2], sla.inv(eig[2]))
        except np.linalg.LinAlgError:
            pass
        return DerivedCoefficients(
            alpha=_freeze(alpha), avar=_freeze(avar),
            kbound=float(np.max(np.abs(alpha) + avar)), L=_freeze(L),
            qnorm=float(np.abs(self.Q).sum(axis=1).max()),
            quad=_freeze(br.beta * br.b), jump_y=_freeze(jy), jump_w=_freeze(jw),
            jump_y2w=_freeze((jw * jy ** 2).sum(axis=1)),
            jump_yw=_freeze((jw * jy).sum(axis=1)), eig=eig, eigensystem=eigensystem,
        )


@dataclass(frozen=True, eq=False)
class DerivedCoefficients:
    """Everything the numerics derive from a model's data alone."""

    alpha: np.ndarray     # beta*a, the drift weight of the mean semigroup
    avar: np.ndarray      # local branching variance factor beta*(2b + sum y^2 w)
    kbound: float         # max(|alpha| + avar) over states
    L: np.ndarray         # Q + diag(alpha), generator of the mean semigroup
    qnorm: float          # ||Q||_inf
    quad: np.ndarray      # beta*b
    jump_y: np.ndarray    # (n_states, k_max) atom sizes, zero as filler
    jump_w: np.ndarray    # matching atom weights times beta, zero as filler
    jump_y2w: np.ndarray  # per-state sum of y^2 w over jump_y, jump_w
    jump_yw: np.ndarray   # per-state sum of y w
    # (w, VL, VR) from one scipy.linalg.eig(L, left=True, right=True), None
    # if it did not converge; (w, VR, VR^{-1}) when cond(VR) < 1e8, else None
    eig: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    eigensystem: tuple[np.ndarray, np.ndarray, np.ndarray] | None


def derived_coefficients(model: SuperprocessModel) -> DerivedCoefficients:
    """The model's derived record, built on first use and then cached."""
    return model._derived


def is_irreducible(model: SuperprocessModel) -> bool:
    """Strong connectivity of the directed graph of positive rates: the
    ceil(log2 n)-th boolean square of (Q > 0) | I is reachability."""
    n = model.n_states
    reach = (model.Q > 0) | np.eye(n, dtype=bool)
    for _ in range(math.ceil(math.log2(n))):
        reach = reach @ reach
    return bool(reach.all())


def validate_model(model: SuperprocessModel) -> SuperprocessModel:
    """Full validation, including the irreducibility requirement.

    Structural checks already ran at construction; irreducibility is kept
    separate so diagnostic checks can still run on reducible generators.
    """
    if not is_irreducible(model):
        raise ModelError(
            "Q is reducible (the directed graph of positive off-diagonal "
            "rates is not strongly connected)"
        )
    return model


# ---------------------------------------------------------------------------
# field / measure vectors

def as_field(model: SuperprocessModel, values) -> np.ndarray:
    """Coerce to a finite function-on-states vector of the right length."""
    f = np.asarray(values, dtype=float)
    if f.shape != (model.n_states,):
        raise ModelError(
            f"field vector must have shape ({model.n_states},), got {f.shape}"
        )
    _require_finite("vector entry ", f)
    return f


def as_measure(model: SuperprocessModel, values, allow_zero: bool = False) -> np.ndarray:
    """Coerce to a finite-measure vector: nonnegative, nonzero by default."""
    mu = as_field(model, values)
    _require("measure entry mu", mu, mu >= 0, ">= 0")
    if not allow_zero and not np.any(mu > 0):
        raise ModelError("measure must have positive total mass")
    return mu


def as_times(values, name: str = "time", positive: bool = False) -> np.ndarray:
    """Coerce a time or a time grid to a 1-D array of finite times.

    Every entry must be >= 0, or > 0 when ``positive``; the first entry
    that is not, NaN and infinities included, is named in the error.
    """
    ts = np.asarray(values, dtype=float)
    if ts.ndim > 1:
        raise ModelError(f"{name} must be a scalar or a 1-D grid, got shape {ts.shape}")
    ok = np.isfinite(ts) & ((ts > 0) if positive else (ts >= 0))
    _require(name, ts, ok, "finite and > 0" if positive else "finite and >= 0")
    return np.atleast_1d(ts)


def pairing(f: np.ndarray, mu: np.ndarray) -> float:
    """Integral of f against the measure mu."""
    return float(np.dot(f, mu))


def m_inner(f: np.ndarray, g: np.ndarray, m: np.ndarray) -> float:
    """Weighted inner product sum_x f(x) g(x) m(x)."""
    return float(np.dot(f * g, m))


# ---------------------------------------------------------------------------
# serialization

def _json_array(name: str, value) -> list:
    if type(value) is not list:
        raise ParseError(f"{name} must be a JSON array, got {json.dumps(value)}")
    return value


def _json_number(name: str, value) -> float:
    # exact types: a JSON true or false parses to bool, a subclass of int
    if type(value) not in (int, float):
        raise ParseError(f"{name} must be a JSON number, got {json.dumps(value)}")
    return value


def _json_strings(name: str, value) -> list:
    labels = _json_array(name, value)
    for i, v in enumerate(labels):
        if type(v) is not str:
            raise ParseError(f"{name}[{i}] must be a JSON string, got {json.dumps(v)}")
    return labels


def _json_numbers(name: str, value, depth: int = 1) -> list:
    """A JSON array of numbers, or with ``depth`` 2 a square array of such
    arrays; the first entry or row that is not is named."""
    rows = _json_array(name, value)
    if depth > 1:
        for i, row in enumerate(rows):
            _json_numbers(f"{name}[{i}]", row, depth - 1)
            if len(row) != len(rows):
                raise ParseError(
                    f"{name}[{i}] must have {len(rows)} entries, one per row, "
                    f"got {len(row)}"
                )
    elif not {type(v) for v in rows} <= {int, float}:
        for i, v in enumerate(rows):
            _json_number(f"{name}[{i}]", v)
    return rows


def load_model(text: str) -> SuperprocessModel:
    """Parse and fully validate a JSON model description."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model text is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"model must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(MODEL_KEYS))
    if unknown:
        raise ParseError(f"unknown model keys: {', '.join(unknown)}")
    missing = [k for k in MODEL_KEYS if k not in raw]
    if missing:
        raise ParseError(f"missing model keys: {', '.join(missing)}")

    jumps = []
    for i, atoms in enumerate(_json_array("jumps", raw["jumps"])):
        state_atoms = []
        for k, atom in enumerate(_json_array(f"jumps[{i}]", atoms)):
            if not isinstance(atom, dict) or set(atom) != {"y", "w"}:
                raise ParseError(
                    f"jumps[{i}][{k}] must be an object with exactly "
                    f"the keys y and w"
                )
            y = _json_number(f"jumps[{i}][{k}].y", atom["y"])
            w = _json_number(f"jumps[{i}][{k}].w", atom["w"])
            state_atoms.append((y, w))
        jumps.append(np.array(state_atoms, dtype=float).reshape(-1, 2))

    model = SuperprocessModel(
        space=StateSpace(
            labels=tuple(_json_strings("states", raw["states"])),
            m=np.asarray(_json_numbers("m", raw["m"])),
        ),
        motion=SpatialGenerator(Q=np.asarray(_json_numbers("Q", raw["Q"], 2))),
        branching=BranchingData(
            beta=np.asarray(_json_numbers("beta", raw["beta"])),
            a=np.asarray(_json_numbers("a", raw["a"])),
            b=np.asarray(_json_numbers("b", raw["b"])),
            jumps=tuple(jumps),
        ),
    )
    return validate_model(model)


def load_model_file(path) -> SuperprocessModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def dump_model(model: SuperprocessModel) -> str:
    """Serialize back to the JSON schema accepted by ``load_model``."""
    doc = {
        "states": list(model.labels),
        "m": model.m.tolist(),
        "Q": model.Q.tolist(),
        "beta": model.branching.beta.tolist(),
        "a": model.branching.a.tolist(),
        "b": model.branching.b.tolist(),
        "jumps": [
            [{"y": float(y), "w": float(w)} for y, w in atoms]
            for atoms in model.branching.jumps
        ],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# standing-assumption checks

@dataclass(frozen=True)
class DualMarkovReport:
    """Outcome of the dual sub-Markov check with the worst violation seen."""

    ok: bool
    static_ok: bool
    worst_excess: float
    worst_t: float
    worst_state: int

    def __bool__(self) -> bool:
        return self.ok


def dual_submarkov_static(model: SuperprocessModel) -> bool:
    """Column sums of diag(m) Q <= 0; implies the bound at every time."""
    col = model.m @ model.Q
    scale = max(1.0, float(np.abs(model.Q).max()), float(model.m.max()))
    return bool(np.all(col <= 1e-12 * scale))


def check_dual_submarkov(model: SuperprocessModel, t_grid) -> DualMarkovReport:
    """Check sum_x m(x) p(t,x,y) <= 1 at each grid time and state y."""
    ts = as_times(t_grid, "t_grid", positive=True)
    if ts.size == 0:
        raise ModelError("t_grid must be nonempty")
    # p(t,x,y) = exp(tQ)[x,y] / m(y); the mass integral cancels m(y).
    cols = model.m @ sla.expm(ts[:, None, None] * model.Q) / model.m
    k, y = np.unravel_index(np.argmax(cols), cols.shape)
    excess = float(cols[k, y] - 1.0)
    return DualMarkovReport(
        ok=excess <= TOL_DUAL,
        static_ok=dual_submarkov_static(model),
        worst_excess=excess,
        worst_t=float(ts[k]),
        worst_state=int(y),
    )


@dataclass(frozen=True)
class GreyReport:
    """Sufficient finite-time-extinction certificate.

    When ``b_tilde = min beta*b > 0`` the mechanism dominates the spatially
    homogeneous one ``-kbound*z + b_tilde*z^2``, whose tail integral of the
    reciprocal converges, so extinction occurs in finite time with positive
    probability from every state.
    """

    satisfied: bool
    b_tilde: float
    kbound: float

    def dominating_mechanism(self, z: float) -> float:
        return -self.kbound * z + self.b_tilde * z * z

    def __bool__(self) -> bool:
        return self.satisfied


def check_grey_domination(model: SuperprocessModel) -> GreyReport:
    dc = derived_coefficients(model)
    b_tilde = float(np.min(dc.quad))
    return GreyReport(satisfied=b_tilde > 0, b_tilde=b_tilde, kbound=dc.kbound)
