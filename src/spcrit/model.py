"""Finite-state superprocess models.

A model is one immutable record, ``SuperprocessModel``, whose fields are
the seven keys of a model file: the state labels (key ``states``), the
strictly positive reference weights ``m``, the spatial transition-rate
generator ``Q`` (killing encoded as row-sum deficit), and the branching
data: a rate ``beta``, a linear coefficient ``a``, a quadratic (diffusion)
coefficient ``b`` and a per-state list of jump atoms ``jumps``
representing a finite jump kernel.  The record checks every constraint
when it is built, naming the first offending entry.

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

from ._kernels import stage_matrices

# cond of the row-equilibrated eigenvectors from which we fall back: near an
# exceptional point the eigenmode closed forms err by up to about eps * cond^2
_COND_LIMIT = 1e3

MODEL_KEYS = ("states", "m", "Q", "beta", "a", "b", "jumps")


class ModelError(ValueError):
    """A model definition violates a structural constraint."""


class ParseError(ModelError):
    """Input text is not UTF-8, not valid JSON or not the expected shape."""


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
class SuperprocessModel:
    """The seven model-file keys as one immutable record; ``states`` is
    ``labels``.  ``jumps[i]`` is a (k_i, 2) array of (size, weight) atoms,
    both finite and > 0.  Safe to share read-only across threads.
    """

    labels: tuple[str, ...]
    m: np.ndarray
    Q: np.ndarray
    beta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    jumps: tuple[np.ndarray, ...]

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        object.__setattr__(self, "labels", labels)
        for name in ("m", "Q", "beta", "a", "b"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        jumps = tuple(np.array(atoms, dtype=float).reshape(-1, 2) for atoms in self.jumps)
        object.__setattr__(self, "jumps", jumps)
        n = len(labels)
        if n < 1:
            raise ModelError("states must be nonempty")
        if len(set(labels)) != n:
            raise ModelError("state labels must be pairwise distinct")
        for name, shape, want in (
            ("m", self.m.shape, (n,)), ("Q", self.Q.shape, (n, n)),
            ("beta", self.beta.shape, (n,)), ("a", self.a.shape, (n,)),
            ("b", self.b.shape, (n,)), ("jumps", (len(jumps),), (n,)),
        ):
            if shape != want:
                raise ModelError(
                    f"{name} must have shape {want} for the {n} states, got {shape}"
                )
        for name in ("m", "Q", "beta", "a", "b"):
            _require_finite(name, getattr(self, name))
        _require("m", self.m, self.m > 0, "> 0")
        Q = self.Q
        _require("Q", Q, (Q >= 0) | np.eye(n, dtype=bool), ">= 0")
        scale = max(1.0, float(np.abs(Q).max()))
        rows = Q.sum(axis=1)
        _require("row sum of Q", rows, rows <= 1e-12 * scale, "<= 0")
        for i, atoms in enumerate(jumps):
            for k, (y, w) in enumerate(atoms):
                if not 0 < y < math.inf:
                    raise ModelError(f"jumps[{i}][{k}].y must be finite and > 0, got {y}")
                if not 0 < w < math.inf:
                    raise ModelError(f"jumps[{i}][{k}].w must be finite and > 0, got {w}")
            atoms.setflags(write=False)
        _require("beta", self.beta, self.beta >= 0, ">= 0")
        _require("b", self.b, self.b >= 0, ">= 0")
        # Degenerate branching (no diffusion and no jumps anywhere beta > 0)
        # makes the process deterministic in law; excluded.
        with np.errstate(over="ignore"):  # an infinite activity is still > 0
            activity = self.beta * (self.b + [atoms[:, 1].sum() for atoms in jumps])
        if not np.any(activity > 0):
            raise ModelError(
                "beta*(b + total jump weight) vanishes at every state; "
                "the branching mechanism must be non-degenerate somewhere"
            )

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @cached_property
    def _derived(self) -> DerivedCoefficients:
        # the model is immutable, so this is built once, on first use
        beta, jumps = self.beta, self.jumps
        jy = np.zeros((self.n_states, max(a.shape[0] for a in jumps)))
        jw = np.zeros_like(jy)
        # finite data can still have an infinite product (or inf * 0 after
        # an underflow); each product is checked below, naming the state
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = beta * self.a
            quad = beta * self.b
            for i, atoms in enumerate(jumps):
                jy[i, : len(atoms)] = atoms[:, 0]
                jw[i, : len(atoms)] = beta[i] * atoms[:, 1]
            jump_y2w = (jw * jy ** 2).sum(axis=1)
            jump_yw = (jw * jy).sum(axis=1)
            avar = 2.0 * quad + jump_y2w
            rate = np.abs(alpha) + avar
            L = self.Q + np.diag(alpha)
            qrows = np.abs(self.Q).sum(axis=1)
        for name, arr in (
            ("beta*a", alpha), ("beta*b", quad),
            ("beta * sum y^2 w", jump_y2w), ("beta * sum y w", jump_yw),
            ("avar = beta*(2b + sum y^2 w)", avar),
            ("|beta*a| + avar", rate), ("Q[x][x] + beta*a", L.diagonal()),
            ("row sum of |Q|", qrows),
        ):
            _require(name, arr, np.isfinite(arr), "finite")
        eig = eigensystem = None
        try:
            eig = np.linalg.eig(L)
            # rows scaled to unit 2-norm take the pure scale out of the
            # conditioning (van der Sluis, Numer. Math. 14, 1969)
            r = np.linalg.norm(eig[1], axis=1)
            if r.all():  # a zero row makes VR singular
                vb = eig[1] / r[:, None]
                if np.linalg.cond(vb) < _COND_LIMIT:
                    eigensystem = (eig[0], eig[1], np.linalg.inv(vb) / r)
        except np.linalg.LinAlgError:
            pass
        stage_matrix, neg_atom_y = stage_matrices(L, jy, jw)
        return DerivedCoefficients(
            alpha=_freeze(alpha), avar=_freeze(avar),
            kbound=float(rate.max()), L=_freeze(L),
            qnorm=float(qrows.max()),
            quad=_freeze(quad), jump_y=_freeze(jy), jump_w=_freeze(jw),
            jump_y2w=_freeze(jump_y2w), jump_yw=_freeze(jump_yw),
            stage_matrix=_freeze(stage_matrix), neg_atom_y=_freeze(neg_atom_y),
            eig=eig, eigensystem=eigensystem,
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
    # the solver's stage matrix [[L, 0, 0], [0, -W, -I]] and the atoms'
    # -Y, from ``_kernels.stage_matrices``
    stage_matrix: np.ndarray
    neg_atom_y: np.ndarray
    # (w, VR) from one np.linalg.eig(L), None if it did not converge; the
    # left eigenvectors are not computed (spectral derives psi0 from phi0)
    eig: tuple[np.ndarray, np.ndarray] | None
    # (w, VR, VR^{-1}), None if VR with unit rows has cond >= 1e3 (L near defective)
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

def _as_vector(n_states: int, values, kind: str) -> np.ndarray:
    """Coerce to a finite vector of n_states entries, a ``kind`` vector in
    the error."""
    v = np.asarray(values, dtype=float)
    if v.shape != (n_states,):
        raise ModelError(
            f"{kind} vector must have shape ({n_states},), got {v.shape}"
        )
    _require_finite("vector entry ", v)
    return v


def as_field(model: SuperprocessModel, values) -> np.ndarray:
    """Coerce to a finite function-on-states vector of the right length."""
    return _as_vector(model.n_states, values, "field")


def as_measure(model: SuperprocessModel, values, allow_zero: bool = False) -> np.ndarray:
    """Coerce to a finite-measure vector: nonnegative, nonzero by default."""
    mu = _as_vector(model.n_states, values, "measure")
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


def as_time(value, name: str = "t", positive: bool = False) -> float:
    """Coerce one time to a float; a grid is rejected by name."""
    if np.ndim(value) != 0:
        raise ModelError(f"{name} must be a single time, got shape {np.shape(value)}")
    return float(as_times(value, name, positive)[0])


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
        labels=tuple(_json_strings("states", raw["states"])),
        m=np.asarray(_json_numbers("m", raw["m"])),
        Q=np.asarray(_json_numbers("Q", raw["Q"], 2)),
        beta=np.asarray(_json_numbers("beta", raw["beta"])),
        a=np.asarray(_json_numbers("a", raw["a"])),
        b=np.asarray(_json_numbers("b", raw["b"])),
        jumps=tuple(jumps),
    )
    return validate_model(model)


def _read_utf8(path) -> str:
    """The text of a file; bytes that are not UTF-8 are a ParseError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def load_model_file(path) -> SuperprocessModel:
    return load_model(_read_utf8(path))


def dump_model(model: SuperprocessModel) -> str:
    """Serialize back to the JSON schema accepted by ``load_model``."""
    doc = {
        "states": list(model.labels),
        "m": model.m.tolist(),
        "Q": model.Q.tolist(),
        "beta": model.beta.tolist(),
        "a": model.a.tolist(),
        "b": model.b.tolist(),
        "jumps": [
            [{"y": float(y), "w": float(w)} for y, w in atoms] for atoms in model.jumps
        ],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# standing-assumption checks

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

    def __bool__(self) -> bool:
        return self.satisfied


def check_grey_domination(model: SuperprocessModel) -> GreyReport:
    dc = derived_coefficients(model)
    b_tilde = float(np.min(dc.quad))
    return GreyReport(satisfied=b_tilde > 0, b_tilde=b_tilde, kbound=dc.kbound)
