import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from spcrit import acceptance
from spcrit.model import (
    MODEL_KEYS,
    ModelError,
    ParseError,
    SuperprocessModel,
    as_field,
    as_measure,
    as_times,
    check_grey_domination,
    derived_coefficients,
    dump_model,
    is_irreducible,
    load_model,
    m_inner,
    pairing,
    validate_model,
)
from spcrit.loglaplace import _field, solve_log_laplace, yaglom_transform
from spcrit.moments import first_moment, variance_from_transform, variance_limit_check
from spcrit.spectral import criticalize, fluctuation_variance, spectral_data

# Roundoff slack for the time-dependent dual sub-Markov check.
TOL_DUAL = 1e-10


# ---------------------------------------------------------------------------
# standing-assumption views that only the tests read

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


def dominating_mechanism(report, z: float) -> float:
    """Grey's spatially homogeneous minorant -kbound*z + b_tilde*z^2."""
    return -report.kbound * z + report.b_tilde * z * z


M1_TEXT = json.dumps(
    {
        "states": ["o"], "m": [1], "Q": [[0]],
        "beta": [1], "a": [0], "b": [0.5], "jumps": [[]],
    }
)
M2_TEXT = json.dumps(
    {
        "states": ["A", "B"], "m": [1, 1], "Q": [[-1, 1], [1, -1]],
        "beta": [1, 1], "a": [0, 0], "b": [1, 1], "jumps": [[], []],
    }
)


def assert_same_fields(back, model):
    """Compare every field of the record, so that a field the text form
    drops or alters fails here."""
    for field in dataclasses.fields(SuperprocessModel):
        got, want = getattr(back, field.name), getattr(model, field.name)
        assert len(got) == len(want), field.name
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w, err_msg=field.name)


def test_record_fields_are_the_model_file_keys():
    names = [field.name for field in dataclasses.fields(SuperprocessModel)]
    assert names == ["labels" if key == "states" else key for key in MODEL_KEYS]


def test_load_m1():
    model = load_model(M1_TEXT)
    assert model.labels == ("o",)
    assert model.n_states == 1
    assert model.b[0] == 0.5


def test_load_m2():
    model = load_model(M2_TEXT)
    assert model.labels == ("A", "B")
    np.testing.assert_allclose(model.Q, [[-1, 1], [1, -1]])


def test_zero_weight_names_the_entry():
    bad = json.loads(M2_TEXT)
    bad["m"] = [0, 1]
    with pytest.raises(ModelError, match=r"m\[0\]"):
        load_model(json.dumps(bad))


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError):
        load_model("{not json")
    with pytest.raises(ParseError, match="^model must be a JSON object, got list$"):
        load_model(f"[{M2_TEXT}]")


def test_unknown_and_missing_keys_rejected():
    doc = json.loads(M1_TEXT)
    doc["extra"] = 1
    with pytest.raises(ParseError, match="unknown"):
        load_model(json.dumps(doc))
    doc = json.loads(M1_TEXT)
    del doc["beta"]
    with pytest.raises(ParseError, match="missing"):
        load_model(json.dumps(doc))


def test_bad_q_signs_named():
    doc = json.loads(M2_TEXT)
    doc["Q"] = [[-1, -0.5], [1, -1]]
    with pytest.raises(ModelError, match=r"Q\[0\]\[1\]"):
        load_model(json.dumps(doc))
    doc["Q"] = [[1, 1], [1, -1]]
    with pytest.raises(ModelError, match="row sum"):
        load_model(json.dumps(doc))


def test_bad_jump_atoms_named():
    doc = json.loads(M1_TEXT)
    doc["jumps"] = [[{"y": -1, "w": 1}]]
    with pytest.raises(ModelError, match=r"jumps\[0\]\[0\].y"):
        load_model(json.dumps(doc))
    doc["jumps"] = [[{"y": 1, "w": 0}]]
    with pytest.raises(ModelError, match=r"jumps\[0\]\[0\].w"):
        load_model(json.dumps(doc))
    doc["jumps"] = [[{"y": 1, "w": 1, "z": 2}]]
    with pytest.raises(ParseError, match=r"jumps\[0\]\[0\]"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["NaN", "Infinity"])
@pytest.mark.parametrize(
    "key, path, named",
    [
        ("m", (1,), r"m\[1\]"),
        ("Q", (0, 1), r"Q\[0\]\[1\]"),
        ("beta", (0,), r"beta\[0\]"),
        ("a", (1,), r"a\[1\]"),
        ("b", (0,), r"b\[0\]"),
        ("jumps", (0, 0, "y"), r"jumps\[0\]\[0\]\.y"),
        ("jumps", (0, 0, "w"), r"jumps\[0\]\[0\]\.w"),
    ],
    ids=["m", "Q", "beta", "a", "b", "jump_y", "jump_w"],
)
def test_non_finite_entry_named(key, path, named, bad):
    doc = json.loads(M2_TEXT)
    doc["jumps"] = [[{"y": 0.5, "w": 2.0}], []]
    target = doc[key]
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = bad
    with pytest.raises(ModelError, match=rf"^{named} must be finite"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("states", "AB", r'states must be a JSON array, got "AB"'),
        ("states", 5, "states must be a JSON array, got 5"),
        ("m", ["1", "1"], r'm\[0\] must be a JSON number, got "1"'),
        ("m", "ab", r'm must be a JSON array, got "ab"'),
        ("m", [1, None], r"m\[1\] must be a JSON number, got null"),
        ("Q", [[-1, 1], ["1", -1]], r'Q\[1\]\[0\] must be a JSON number, got "1"'),
        ("Q", [-1, 1], r"Q\[0\] must be a JSON array, got -1"),
        ("Q", [[-1, 1], [1]], r"Q\[1\] must have 2 entries, one per row, got 1"),
        ("Q", [[-1, 1, 0], [1, -1, 0]],
         r"Q\[0\] must have 2 entries, one per row, got 3"),
        ("states", [{"x": 1}, [2]], r'states\[0\] must be a JSON string, got \{"x": 1\}'),
        ("states", ["A", [2]], r"states\[1\] must be a JSON string, got \[2\]"),
        ("states", [1, "1"], r"states\[0\] must be a JSON string, got 1"),
        ("beta", [True, True], r"beta\[0\] must be a JSON number, got true"),
        ("a", [0, False], r"a\[1\] must be a JSON number, got false"),
        ("b", [1, [1]], r"b\[1\] must be a JSON number, got \[1\]"),
        ("jumps", "ab", r'jumps must be a JSON array, got "ab"'),
        ("jumps", [3, []], r"jumps\[0\] must be a JSON array, got 3"),
        ("jumps", [[{"y": "1", "w": 1}], []],
         r'jumps\[0\]\[0\]\.y must be a JSON number, got "1"'),
        ("jumps", [[], [{"y": 1, "w": None}]],
         r"jumps\[1\]\[0\]\.w must be a JSON number, got null"),
    ],
    ids=["states-string", "states-number", "m-strings", "m-string", "m-null",
         "Q-string", "Q-flat", "Q-ragged", "Q-wide", "states-object", "states-list",
         "states-number-and-string", "beta-bool", "a-bool", "b-nested", "jumps-string",
         "jumps-number", "jump-y-string", "jump-w-null"],
)
def test_json_types_checked_and_named(key, value, named):
    doc = json.loads(M2_TEXT)
    doc[key] = value
    with pytest.raises(ParseError, match=rf"^{named}$"):
        load_model(json.dumps(doc))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    key=st.sampled_from(["m", "Q", "beta", "a", "b", "y", "w"]),
    pick=st.integers(0, 15),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_any_single_non_finite_entry_is_named(seed, n, key, pick, bad):
    doc = json.loads(dump_model(acceptance.random_model(np.random.default_rng(seed), n)))
    i, j = pick % n, (pick // 4) % n
    if key == "Q":
        doc["Q"][i][j] = bad
        named = rf"Q\[{i}\]\[{j}\]"
    elif key in ("y", "w"):
        atoms = doc["jumps"][i]
        if not atoms:
            atoms.append({"y": 0.5, "w": 2.0})
        k = (pick // 4) % len(atoms)
        atoms[k][key] = bad
        named = rf"jumps\[{i}\]\[{k}\]\.{key}"
    else:
        doc[key][i] = bad
        named = rf"{key}\[{i}\]"
    with pytest.raises(ModelError, match=rf"^{named} must be finite"):
        load_model(json.dumps(doc))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
def test_dump_load_roundtrip_is_exact(seed, n, data):
    doc = json.loads(dump_model(acceptance.random_model(np.random.default_rng(seed), n)))
    # any finite float must survive the text form bit for bit
    doc["a"] = data.draw(st.lists(finite, min_size=n, max_size=n))
    model = load_model(json.dumps(doc))
    back = load_model(dump_model(model))
    assert_same_fields(back, model)
    np.testing.assert_array_equal(back.a, doc["a"])


def test_dimension_mismatch_rejected():
    doc = json.loads(M2_TEXT)
    doc["beta"] = [1]
    with pytest.raises(ModelError):
        load_model(json.dumps(doc))


def test_reducible_generator_rejected_at_load():
    doc = json.loads(M2_TEXT)
    doc["Q"] = [[-1, 1], [0, 0]]
    with pytest.raises(ModelError, match="reducible"):
        load_model(json.dumps(doc))


def test_irreducibility_agrees_with_strong_components(rng):
    # boolean reachability against scipy's strongly connected components,
    # on sparse and dense random digraphs, so both answers occur
    from scipy.sparse.csgraph import connected_components

    answers = []
    for _ in range(500):
        n = int(rng.integers(1, 41))
        adj = rng.random((n, n)) < rng.uniform(0.0, min(1.0, 4.0 * math.log(n + 1) / n))
        np.fill_diagonal(adj, False)
        Q = adj * rng.uniform(0.1, 1.0, (n, n))
        Q -= np.diag(Q.sum(axis=1))
        model = SuperprocessModel(
            labels=tuple(map(str, range(n))), m=np.ones(n), Q=Q,
            beta=np.ones(n), a=np.zeros(n), b=np.ones(n), jumps=((),) * n,
        )
        n_comp, _ = connected_components(adj, directed=True, connection="strong")
        answers.append(is_irreducible(model))
        assert answers[-1] == (n_comp == 1), (n, adj)
    assert 50 <= sum(answers) <= 450


def test_degenerate_branching_rejected():
    doc = json.loads(M1_TEXT)
    doc["b"] = [0]
    with pytest.raises(ModelError, match="non-degenerate"):
        load_model(json.dumps(doc))


def test_roundtrip_is_identical(m3, rng):
    for model in (m3, acceptance.random_model(rng), acceptance.random_model(rng)):
        assert_same_fields(load_model(dump_model(model)), model)


def test_derived_coefficients_m1(m1):
    dc = derived_coefficients(m1)
    np.testing.assert_allclose(dc.alpha, [0.0])
    np.testing.assert_allclose(dc.avar, [1.0])
    assert dc.kbound == 1.0


def test_derived_coefficients_m2(m2):
    dc = derived_coefficients(m2)
    np.testing.assert_allclose(dc.alpha, [0.0, 0.0])
    np.testing.assert_allclose(dc.avar, [2.0, 2.0])
    assert dc.kbound == 2.0


def test_derived_coefficients_jump_atom(m3):
    # the single atom (y=1, w=1) contributes y^2 w = 1 to the variance factor
    dc = derived_coefficients(m3)
    np.testing.assert_allclose(dc.avar, [1.0])
    assert dc.kbound == 1.0


def test_padded_jumps_hold_the_atoms_times_beta(rng):
    # every mechanism evaluator reads the record's padded atoms, so check
    # them against the model's own atoms
    for _ in range(50):
        model = acceptance.random_model(rng, int(rng.integers(1, 5)))
        dc = derived_coefficients(model)
        for i, atoms in enumerate(model.jumps):
            k = len(atoms)
            np.testing.assert_array_equal(dc.jump_y[i, :k], atoms[:, 0])
            np.testing.assert_array_equal(dc.jump_w[i, :k], model.beta[i] * atoms[:, 1])
            assert not dc.jump_y[i, k:].any() and not dc.jump_w[i, k:].any()
            yw = model.beta[i] * atoms[:, 1] * atoms[:, 0]
            assert dc.jump_yw[i] == pytest.approx(yw.sum(), rel=1e-15, abs=0)
            assert dc.jump_y2w[i] == pytest.approx((yw * atoms[:, 0]).sum(), rel=1e-15, abs=0)
        np.testing.assert_array_equal(dc.quad, model.beta * model.b)
        # the variance factor is summed from the same padded atoms
        np.testing.assert_array_equal(dc.avar, 2.0 * dc.quad + dc.jump_y2w)


def test_kbound_is_the_exact_max(rng):
    for _ in range(50):
        model = acceptance.random_model(rng)
        dc = derived_coefficients(model)
        combined = np.abs(dc.alpha) + dc.avar
        assert np.all(combined <= dc.kbound + 1e-15)
        assert np.isclose(combined.max(), dc.kbound)


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"beta": [1e200, 1], "a": [1e200, 0]}, r"beta\*a\[0\]"),
        ({"beta": [1, 1e200], "b": [1, 1e200]}, r"beta\*b\[1\]"),
        ({"b": [1, 1e308]}, r"avar = beta\*\(2b \+ sum y\^2 w\)\[1\]"),
        ({"beta": [1e200, 1], "jumps": [[{"y": 1e-150, "w": 1e200}], []]},
         r"beta \* sum y\^2 w\[0\]"),
        ({"jumps": [[{"y": 0.9, "w": 1e308}, {"y": 0.9, "w": 1e308}], []]},
         r"beta \* sum y w\[0\]"),
        ({"a": [1e308, 0], "b": [5e307, 1]}, r"\|beta\*a\| \+ avar\[0\]"),
        ({"Q": [[-1e308, 1e308], [1, -1]], "a": [-1e308, 0]},
         r"Q\[x\]\[x\] \+ beta\*a\[0\]"),
        ({"Q": [[-1, 1], [1e308, -1e308]]}, r"row sum of \|Q\|\[1\]"),
    ],
    ids=["beta-a", "beta-b", "avar", "jump-y2w", "jump-yw", "kbound", "L-diagonal",
         "Q-norm"],
)
def test_overflowing_products_are_model_errors_naming_the_state(changes, named):
    # every entry is finite but a product in the derived record is not; the
    # overflow is a ModelError, not a RuntimeWarning or an eigensolver error
    doc = json.loads(M2_TEXT)
    doc.update(changes)
    model = load_model(json.dumps(doc))
    with pytest.raises(ModelError, match=rf"^{named} must be finite, got -?inf"):
        derived_coefficients(model)
    with pytest.raises(ModelError, match=rf"^{named} must be finite"):
        spectral_data(model)


def test_dual_submarkov_symmetric_cases(m1, m2):
    assert check_dual_submarkov(m1, [0.5, 1.0, 5.0]).ok
    report = check_dual_submarkov(m2, [0.1, 1.0, 10.0])
    assert report.ok and report.static_ok


def test_dual_submarkov_detects_violation():
    # one-way chain: mass piles up at the second state, the dual gains mass
    model = SuperprocessModel(
        labels=("A", "B"), m=[1.0, 1.0], Q=[[-1.0, 1.0], [0.0, 0.0]],
        beta=[1.0, 1.0], a=[0.0, 0.0], b=[1.0, 1.0], jumps=([], []),
    )
    assert not dual_submarkov_static(model)
    report = check_dual_submarkov(model, [0.1, 1.0])
    assert not report.ok
    assert report.worst_state == 1
    assert report.worst_excess > 0
    # series expansion: column sum at B is 1 + t + O(t^2)
    small = check_dual_submarkov(model, [0.01])
    assert small.worst_excess == pytest.approx(0.01, rel=0.05)


def test_static_check_implies_dynamic(rng):
    # the random generator draws diag(m) Q with nonpositive row and column
    # sums, so the static certificate must hold and imply every grid time
    for _ in range(25):
        model = acceptance.random_model(rng)
        assert dual_submarkov_static(model)
        grid = rng.uniform(0.05, 20.0, 4)
        assert check_dual_submarkov(model, grid).ok


def test_grey_domination(m1, m2, m3):
    r1 = check_grey_domination(m1)
    assert r1.satisfied and r1.b_tilde == 0.5
    r2 = check_grey_domination(m2)
    assert r2.satisfied and r2.b_tilde == 1.0
    r3 = check_grey_domination(m3)
    assert not r3.satisfied and r3.b_tilde == 0.0
    # dominating mechanism is -kbound z + b_tilde z^2
    assert dominating_mechanism(r1, 2.0) == pytest.approx(-2.0 * r1.kbound + 4 * 0.5)


def test_measure_validation(m2):
    with pytest.raises(ModelError, match=r"mu\[1\]"):
        as_measure(m2, [1.0, -0.5])
    with pytest.raises(ModelError, match="total mass"):
        as_measure(m2, [0.0, 0.0])
    as_measure(m2, [0.0, 0.0], allow_zero=True)


def test_non_finite_vectors_rejected(m2):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelError, match=r"\[1\] must be finite"):
            as_field(m2, [1.0, bad])
        with pytest.raises(ModelError, match=r"\[0\] must be finite"):
            as_measure(m2, [bad, 1.0])
        with pytest.raises(ModelError, match="must be finite"):
            first_moment(m2, [1.0, 1.0], 1.0, [1.0, bad])


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda m2: dataclasses.replace(m2, m=[1.0, -2.0]), r"m\[1\] must be > 0, got -2.0"),
        (lambda m2: dataclasses.replace(m2, Q=[[-1.0, 1.0], [-0.5, 0.0]]),
         r"Q\[1\]\[0\] must be >= 0, got -0.5"),
        (lambda m2: dataclasses.replace(m2, Q=[[-1.0, 1.0], [1.0, -0.5]]),
         r"row sum of Q\[1\] must be <= 0, got 0.5"),
        (lambda m2: dataclasses.replace(m2, beta=[1.0, -0.5]),
         r"beta\[1\] must be >= 0, got -0.5"),
        (lambda m2: dataclasses.replace(m2, b=[-1.0, 1.0]),
         r"b\[0\] must be >= 0, got -1.0"),
        (lambda m2: dataclasses.replace(m2, jumps=([],)),
         r"jumps must have shape \(2,\) for the 2 states, got \(1,\)"),
        (lambda m2: as_measure(m2, [1.0, -0.5]),
         r"measure entry mu\[1\] must be >= 0, got -0.5"),
        (lambda m2: _field(m2, [0.5, -1.0]),
         r"mechanism argument u\[1\] must be >= 0, got -1.0"),
        (lambda m2: solve_log_laplace(m2, [-1.0, 1.0], 1.0),
         r"initial field f0\[0\] must be >= 0, got -1.0"),
        (lambda m2: yaglom_transform(m2, spectral_data(m2), [1.0, 0.0], [1.0, -2.0], 1.0, 5.0),
         r"f\[1\] must be >= 0, got -2.0"),
        (lambda m2: variance_from_transform(m2, [-0.5, 1.0], 2.0, [1.0, 0.0]),
         r"f\[0\] must be >= 0, got -0.5"),
        (lambda m2: criticalize(dataclasses.replace(m2, beta=[1.0, 0.0], a=[0.5, 0.5])),
         r"beta\[1\] must be > 0, got 0.0"),
        (lambda m2: fluctuation_variance(m2, spectral_data(m2), [1.0, 0.0]),
         r"psi0-weight of f must vanish \(got 7.071e-01\)"),
        (lambda m2: variance_limit_check(m2, spectral_data(m2), [1.0, 0.0], [3.0, 4.0]),
         r"psi0-weight of f must vanish \(got 7.071e-01\)"),
        (lambda m2: variance_limit_check(m2, spectral_data(m2), [1.0, -1.0], [5.0, 2.0]),
         r"t_grid\[1\] must be > 2, got 2.0"),
        (lambda m2: check_dual_submarkov(m2, [1.0, math.nan]),
         r"t_grid\[1\] must be finite and > 0, got nan"),
        (lambda m2: dataclasses.replace(m2, labels=()), "states must be nonempty$"),
        (lambda m2: dataclasses.replace(m2, labels=("A", "A")),
         "state labels must be pairwise distinct$"),
        (lambda m2: as_times(np.ones((2, 2))),
         r"time must be a scalar or a 1-D grid, got shape \(2, 2\)$"),
    ],
    ids=["m", "Q-off-diagonal", "Q-row-sum", "beta", "b", "size", "measure", "mechanism",
         "initial-field", "yaglom-field", "transform-field", "criticalize-beta",
         "fluctuation-psi-weight", "limit-check-psi-weight", "limit-check-t-grid",
         "time-grid", "no-states", "repeated-labels", "time-grid-2d"],
)
def test_rejection_is_a_model_error_naming_the_entry(m2, call, named):
    with pytest.raises(ModelError, match=rf"^{named}"):
        call(m2)


def test_pairings(m2):
    f = np.array([2.0, 0.0])
    mu = np.array([0.5, 3.0])
    assert pairing(f, mu) == 1.0
    assert m_inner(f, f, m2.m) == 4.0


def test_validate_model_passes_fixtures(m1, m2, m3):
    for model in (m1, m2, m3):
        assert validate_model(model) is model
