import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcrit import acceptance
from spcrit.model import (
    BranchingData,
    ModelError,
    ParseError,
    SpatialGenerator,
    StateSpace,
    SuperprocessModel,
    as_field,
    as_measure,
    check_dual_submarkov,
    check_grey_domination,
    derived_coefficients,
    dual_submarkov_static,
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


def test_load_m1():
    model = load_model(M1_TEXT)
    assert model.labels == ("o",)
    assert model.n_states == 1
    assert model.branching.b[0] == 0.5


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
    assert back.labels == model.labels
    for get in (
        lambda x: x.m,
        lambda x: x.Q,
        lambda x: x.branching.beta,
        lambda x: x.branching.a,
        lambda x: x.branching.b,
    ):
        np.testing.assert_array_equal(get(back), get(model))
    np.testing.assert_array_equal(back.branching.a, doc["a"])
    assert len(back.branching.jumps) == len(model.branching.jumps)
    for j1, j2 in zip(back.branching.jumps, model.branching.jumps):
        np.testing.assert_array_equal(j1, j2)


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
            space=StateSpace(labels=tuple(map(str, range(n))), m=np.ones(n)),
            motion=SpatialGenerator(Q=Q),
            branching=BranchingData(beta=np.ones(n), a=np.zeros(n), b=np.ones(n),
                                    jumps=(np.empty((0, 2)),) * n),
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
        back = load_model(dump_model(model))
        assert back.labels == model.labels
        np.testing.assert_array_equal(back.m, model.m)
        np.testing.assert_array_equal(back.Q, model.Q)
        np.testing.assert_array_equal(back.branching.beta, model.branching.beta)
        np.testing.assert_array_equal(back.branching.a, model.branching.a)
        np.testing.assert_array_equal(back.branching.b, model.branching.b)
        for j1, j2 in zip(back.branching.jumps, model.branching.jumps):
            np.testing.assert_array_equal(j1, j2)


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
        br, dc = model.branching, derived_coefficients(model)
        for i, atoms in enumerate(br.jumps):
            k = len(atoms)
            np.testing.assert_array_equal(dc.jump_y[i, :k], atoms[:, 0])
            np.testing.assert_array_equal(dc.jump_w[i, :k], br.beta[i] * atoms[:, 1])
            assert not dc.jump_y[i, k:].any() and not dc.jump_w[i, k:].any()
            yw = br.beta[i] * atoms[:, 1] * atoms[:, 0]
            assert dc.jump_yw[i] == pytest.approx(yw.sum(), rel=1e-15, abs=0)
            assert dc.jump_y2w[i] == pytest.approx((yw * atoms[:, 0]).sum(), rel=1e-15, abs=0)
        np.testing.assert_array_equal(dc.quad, br.beta * br.b)


def test_kbound_is_the_exact_max(rng):
    for _ in range(50):
        model = acceptance.random_model(rng)
        dc = derived_coefficients(model)
        combined = np.abs(dc.alpha) + dc.avar
        assert np.all(combined <= dc.kbound + 1e-15)
        assert np.isclose(combined.max(), dc.kbound)


def test_dual_submarkov_symmetric_cases(m1, m2):
    assert check_dual_submarkov(m1, [0.5, 1.0, 5.0]).ok
    report = check_dual_submarkov(m2, [0.1, 1.0, 10.0])
    assert report.ok and report.static_ok


def test_dual_submarkov_detects_violation():
    # one-way chain: mass piles up at the second state, the dual gains mass
    model = SuperprocessModel(
        space=StateSpace(labels=("A", "B"), m=np.array([1.0, 1.0])),
        motion=SpatialGenerator(Q=np.array([[-1.0, 1.0], [0.0, 0.0]])),
        branching=BranchingData(
            beta=np.array([1.0, 1.0]),
            a=np.array([0.0, 0.0]),
            b=np.array([1.0, 1.0]),
            jumps=(np.empty((0, 2)), np.empty((0, 2))),
        ),
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
    assert r1.dominating_mechanism(2.0) == pytest.approx(-2.0 * r1.kbound + 4 * 0.5)


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


def _zero_beta(m2):
    br = m2.branching
    return SuperprocessModel(
        space=m2.space, motion=m2.motion,
        branching=BranchingData([1.0, 0.0], [0.5, 0.5], br.b, br.jumps),
    )


_NO_JUMPS = (np.empty((0, 2)), np.empty((0, 2)))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda m2: StateSpace(("A", "B"), [1.0, -2.0]), r"m\[1\] must be > 0, got -2.0"),
        (lambda m2: SpatialGenerator([[-1.0, 1.0], [-0.5, 0.0]]),
         r"Q\[1\]\[0\] must be >= 0, got -0.5"),
        (lambda m2: SpatialGenerator([[-1.0, 1.0], [1.0, -0.5]]),
         r"row sum of Q\[1\] must be <= 0, got 0.5"),
        (lambda m2: BranchingData([1.0, -0.5], [0.0, 0.0], [1.0, 1.0], _NO_JUMPS),
         r"beta\[1\] must be >= 0, got -0.5"),
        (lambda m2: BranchingData([1.0, 1.0], [0.0, 0.0], [-1.0, 1.0], _NO_JUMPS),
         r"b\[0\] must be >= 0, got -1.0"),
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
        (lambda m2: criticalize(_zero_beta(m2)), r"beta\[1\] must be > 0, got 0.0"),
        (lambda m2: fluctuation_variance(m2, spectral_data(m2), [1.0, 0.0]),
         r"psi0-weight of f must vanish \(got 7.071e-01\)"),
        (lambda m2: variance_limit_check(m2, spectral_data(m2), [1.0, 0.0], [3.0, 4.0]),
         r"psi0-weight of f must vanish \(got 7.071e-01\)"),
        (lambda m2: variance_limit_check(m2, spectral_data(m2), [1.0, -1.0], [5.0, 2.0]),
         r"t_grid\[1\] must be > 2, got 2.0"),
        (lambda m2: check_dual_submarkov(m2, [1.0, math.nan]),
         r"t_grid\[1\] must be finite and > 0, got nan"),
    ],
    ids=["m", "Q-off-diagonal", "Q-row-sum", "beta", "b", "measure", "mechanism",
         "initial-field", "yaglom-field", "transform-field", "criticalize-beta",
         "fluctuation-psi-weight", "limit-check-psi-weight", "limit-check-t-grid",
         "time-grid"],
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
