import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spcrit
from spcrit import acceptance, montecarlo
from spcrit.cli import _parse_t_grid, _parse_vector, main
from spcrit.model import ModelError, derived_coefficients, dump_model
from spcrit.montecarlo import PathEnsemble, SimConfig, simulate_paths
from spcrit.spectral import remove_principal_component, spectral_data


@pytest.fixture
def m1_path(tmp_path):
    path = tmp_path / "m1.json"
    path.write_text(dump_model(acceptance.model_m1()))
    return str(path)


@pytest.fixture
def m2_path(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(dump_model(acceptance.model_m2()))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_validate_ok(m1_path, capsys):
    assert main(["validate", m1_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("quantity,value")
    assert "grey_satisfied,1" in out


def test_validate_bad_model_exits_2(tmp_path):
    doc = json.loads(dump_model(acceptance.model_m2()))
    doc["m"] = [0, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2


def test_mistyped_model_entry_exits_2(tmp_path, capsys):
    doc = json.loads(dump_model(acceptance.model_m2()))
    doc["states"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "states must be a JSON array, got 5" in capsys.readouterr().err


def test_ragged_generator_exits_2_naming_the_row(tmp_path, capsys):
    doc = json.loads(dump_model(acceptance.model_m2()))
    doc["Q"] = [[-1, 1], [1]]
    bad = tmp_path / "ragged.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "Q[1] must have 2 entries, one per row, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "spectral"])
def test_overflowing_product_exits_2_naming_the_state(tmp_path, capsys, command):
    # beta[0] and a[0] are finite but beta*a overflows
    doc = json.loads(dump_model(acceptance.model_m2()))
    doc["beta"], doc["a"] = [1e200, 1], [1e200, 0]
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "spcrit: beta*a[0] must be finite, got inf\n"


def boundary_model(tmp_path, key, value, x=0):
    """The first critical 3-state draw of seed 3 with ``key[x]`` set to
    ``value``, written as a model file."""
    model = acceptance.random_model(np.random.default_rng(3), 3, critical=True)
    doc = json.loads(dump_model(model))
    doc[key][x] = value
    path = tmp_path / f"{key}{x}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_quietly(argv):
    """``main(argv)`` with every warning recorded rather than raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, [str(w.message) for w in caught]


@pytest.mark.parametrize("key, value", [("a", -1e9), ("a", -1e12), ("beta", 1e12)])
def test_spectral_answers_one_rate_far_from_the_rest(tmp_path, capsys, key, value):
    # a killing rate of 1e9 or 1e12 was read as a second copy of lambda0 ("not
    # simple", exit 1): every eigenvalue within 1e-9 max|L| counted as one
    code, caught = run_quietly(["spectral", boundary_model(tmp_path, key, value)])
    captured = capsys.readouterr()
    assert code in (0, 2) and caught == []
    assert captured.err.count("\n") == (code == 2)
    lines = captured.out.splitlines()
    table = dict(line.split(",", 1) for line in lines[1:4])
    assert all(math.isfinite(float(v)) for v in table.values())
    for row in lines[lines.index("state,phi0,psi0") + 1:]:
        assert all(0 < float(v) < math.inf for v in row.split(",")[1:])


@pytest.mark.parametrize("x", [1, 2])
def test_a_principal_eigenvalue_the_eigensolver_loses_is_named(tmp_path, capsys, x):
    # a killing rate of 1e12 in state 1 or 2 leaves LAPACK's lambda0 about
    # 1e-6 off (against 80-digit mpmath); the residual bounds allow eps ||L||
    # in a slow row, the two-sided Rayleigh quotient does not
    path = boundary_model(tmp_path, "a", -1e12, x)
    code, caught = run_quietly(["spectral", path])
    captured = capsys.readouterr()
    assert (code, caught, captured.out) == (2, [], "")
    assert captured.err.startswith("spcrit: lambda0 = -0.3")
    assert "off its Rayleigh quotient <psi0, L phi0>_m" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("x", [0, 1, 2])
def test_psi0_past_the_double_range_names_its_weight(tmp_path, capsys, x):
    # m[x] = 5e-324 made psi0 = left / m overflow: "eigen relation for psi0
    # off by relative nan" with RuntimeWarnings, exit 1
    code, caught = run_quietly(["spectral", boundary_model(tmp_path, "m", 5e-324, x)])
    captured = capsys.readouterr()
    assert (code, caught, captured.out) == (2, [], "")
    assert captured.err == (
        f"spcrit: psi0[{x}] = inf at m[{x}] = 4.94e-324 is not finite and > 0: "
        "it leaves the double range\n"
    )


@pytest.mark.parametrize("key, value, x", [
    ("beta", 1e200, 0), ("beta", 1e200, 1), ("beta", 1e200, 2), ("beta", 1e308, 1),
    ("beta", 1e308, 2), ("a", 1e200, 0), ("a", 1e200, 1), ("a", 1e200, 2),
])
def test_unresolvable_eigenvector_entries_name_the_state(tmp_path, capsys, key, value, x):
    # one rate of 1e200 or more leaves phi0 entries near 1e-200 that the
    # eigensolver returns as 0 or -3e-17, or a law phi0 psi0 m past the double
    # range (a = 1e200 in state 2: 8.0e-402, 2.0e-401, 1.0 in 900-digit
    # mpmath); these were SpectralErrors (exit 1), some beside RuntimeWarnings,
    # and then "psi0[1] = nan" for the law
    code, caught = run_quietly(["spectral", boundary_model(tmp_path, key, value, x)])
    captured = capsys.readouterr()
    assert (code, caught, captured.out) == (2, [], "")
    assert captured.err.count("\n") == 1
    assert "nan" not in captured.err and "inf" not in captured.err
    if (key, value, x) in {("beta", 1e200, 2), ("beta", 1e308, 1), ("beta", 1e308, 2),
                           ("a", 1e200, 2)}:
        assert captured.err == (
            "spcrit: phi0 psi0 m, the stationary law of the Doob transform, leaves the "
            f"double range at state {x}\n"
        )
    else:
        assert captured.err.startswith("spcrit: phi0[")


def test_spectral_of_a_huge_growth_rate_exits_2_not_critical(tmp_path, capsys):
    # lambda0 = 1.4e12 overflowed exp(lambda0) in the old eigen check, exit 1
    assert main(["spectral", boundary_model(tmp_path, "a", 1e12)]) == 2
    captured = capsys.readouterr()
    table = dict(line.split(",", 1) for line in captured.out.splitlines()[1:3])
    assert 1e12 < float(table["lambda0"]) < math.inf
    assert captured.err.startswith("model is not critical: lambda0 = 1.4")
    assert captured.err.count("\n") == 1


def test_moments_past_the_double_range_exit_2_naming_the_overflow(tmp_path, capsys):
    # the mean semigroup overflows at t = 2; it printed nan,nan,nan with exit 0
    path = boundary_model(tmp_path, "a", 1e12)
    argv = ["moments", path, "--f", "1,1,1", "--mu", "1,0,0", "--t", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "spcrit: the mean of <f, X_t> at t = 2 overflows the double range\n"
    )


# the values of the boundary sweep: a zero, a subnormal, tiny and huge
# magnitudes of both signs, and killing rates far beyond the other rates
BOUNDARY_VALUES = (0.0, 5e-324, 1e-300, 1e-12, -1e-12, 1e12, 1e200, 1e308, -1e9, -1e12)


def mutant_model(tmp_path, rng, key, value):
    """A random model (1 to 3 states, 70% critical) with one entry of
    ``key`` set to ``value``: for jumps the size or weight of a state's first
    atom, or a new atom of that size; written as a model file."""
    model = acceptance.random_model(rng, critical=bool(rng.random() < 0.7))
    doc = json.loads(dump_model(model))
    n = model.n_states
    x = int(rng.integers(n))
    if key == "Q":
        doc["Q"][x][int(rng.integers(n))] = value
    elif key == "jumps" and doc["jumps"][x]:
        doc["jumps"][x][0]["y" if rng.random() < 0.5 else "w"] = value
    elif key == "jumps":
        doc["jumps"][x].append({"y": value, "w": 0.5})
    else:
        doc[key][x] = value
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    return str(path), n


def printed_numbers(out, n):
    """The numbers of a CLI table below its header, less the gamma = inf of
    a one-state model, which has no second eigenvalue."""
    for line in out.splitlines()[1:]:
        if n == 1 and line == "gamma,inf":
            continue
        for cell in line.split(",")[1:]:
            try:
                yield float(cell)
            except ValueError:  # an inner header such as state,phi0,psi0
                pass


def test_boundary_sweep_answers_or_names_the_error(tmp_path, capsys):
    # every finite model gets an answer (exit 0, finite numbers only) or a
    # named error (exit 2, one stderr line), with no warning; 240 mutants
    rng = np.random.default_rng(20261020)
    failures = []
    for _ in range(4):
        for key in ("m", "Q", "beta", "a", "b", "jumps"):
            for value in BOUNDARY_VALUES:
                path, n = mutant_model(tmp_path, rng, key, value)
                delta = ",".join(["1"] + ["0"] * (n - 1))
                for argv in (["validate", path], ["spectral", path],
                             ["moments", path, "--f", ",".join(["1"] * n),
                              "--mu", delta, "--t", "2"]):
                    code, caught = run_quietly(argv)
                    out, err = capsys.readouterr()
                    ok = caught == [] and (
                        (code == 0 and all(map(math.isfinite, printed_numbers(out, n))))
                        or (code == 2 and err.count("\n") == 1)
                    )
                    if not ok:
                        failures.append(f"{key}={value:g} {argv[0]}: exit {code} {err!r} {caught}")
    assert failures == []


@pytest.mark.parametrize("argv", [
    ["kolmogorov", "--mu", "1,0,0", "--t-grid", "10:10:1"],
    ["yaglom", "--f", "1,1,1", "--lambda", "1", "--t", "10"],
])
def test_survival_that_rounds_to_one_is_an_answer(tmp_path, capsys, argv):
    # beta*b = 1e-6 in the start state: -expm1(-<v_t, mu>) rounds to 1.0
    path = boundary_model(tmp_path, "b", 1e-6)
    assert main([argv[0], path, *argv[1:]]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert float(row.split(",")[header.split(",").index("p_survival")]) == 1.0


def test_spectral_critical(m2_path, tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectral", m2_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,value"
    table = dict(line.split(",", 1) for line in lines[1:4] + lines[4:5])
    assert abs(float(table["lambda0"])) <= 1e-12
    assert float(table["gamma"]) == pytest.approx(2.0, rel=1e-12)
    assert "state,phi0,psi0" in lines
    nu_line = next(line for line in lines if line.startswith("nu,"))
    assert float(nu_line.split(",")[1]) == pytest.approx(2 ** -0.5, abs=1e-12)
    a_row = lines[lines.index("state,phi0,psi0") + 1].split(",")
    assert a_row[0] == "A"
    assert float(a_row[1]) == pytest.approx(2 ** -0.5, abs=1e-12)


def test_spectral_noncritical_exits_2(tmp_path):
    model = acceptance.model_m2()
    doc = json.loads(dump_model(model))
    doc["a"] = [0.3, 0.3]
    path = tmp_path / "super.json"
    path.write_text(json.dumps(doc))
    assert main(["spectral", str(path)]) == 2


@pytest.mark.parametrize(
    "argv, t",
    [(["kolmogorov", "--mu", "1", "--t-grid", "1:100:3"], "1"),
     (["yaglom", "--f", "1", "--lambda", "1", "--t", "10"], "10")],
    ids=["kolmogorov", "yaglom"],
)
def test_no_finite_extinction_exits_2_naming_the_state(tmp_path, argv, t):
    # m3 is jump-only, so beta*b = 0 and Grey's condition fails; run in a
    # fresh interpreter, where a warning would reach stderr as for a user
    path = tmp_path / "m3.json"
    path.write_text(dump_model(acceptance.model_m3()))
    env = {**os.environ, "PYTHONPATH": str(Path(spcrit.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "spcrit", argv[0], str(path), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 2
    assert run.stderr.splitlines() == [
        f"spcrit: no finite extinction limit at t={t}: beta*b = 0 in state 0 "
        "('o'), so the solution from infinite data stays infinite there"
    ]


def test_kolmogorov_table(m1_path, tmp_path):
    out = tmp_path / "kol.csv"
    code = main(
        ["kolmogorov", m1_path, "--mu", "1", "--t-grid", "100:1000:3",
         "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "p_survival", "t_times_p", "limit"]
    assert len(rows) == 3
    ts = [float(r[0]) for r in rows]
    np.testing.assert_allclose(ts, np.geomspace(100, 1000, 3))
    assert float(rows[0][3]) == pytest.approx(2.0)
    assert float(rows[-1][2]) == pytest.approx(1000 * -math.expm1(-0.002),
                                               abs=1e-5)


def test_kolmogorov_repeated_grid_time(m2_path, tmp_path):
    out = tmp_path / "kol.csv"
    code = main(
        ["kolmogorov", m2_path, "--mu", "1,0", "--t-grid", "10:10:3", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 3 and rows[0] == rows[1] == rows[2]
    assert float(rows[0][0]) == 10.0


def test_yaglom_row(m1_path, tmp_path):
    out = tmp_path / "yag.csv"
    code = main(
        ["yaglom", m1_path, "--f", "1", "--lambda", "1", "--t", "100",
         "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["lambda", "t", "value", "target", "p_survival"]
    assert float(rows[0][2]) == pytest.approx(0.66444, abs=1e-4)
    assert float(rows[0][3]) == pytest.approx(2 / 3, rel=1e-12)


def test_moments_row(m2_path, tmp_path):
    out = tmp_path / "mom.csv"
    code = main(
        ["moments", m2_path, "--f", "1,-1", "--t", "1", "--mu", "1,0",
         "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["mean", "variance", "second_moment"]
    mean, var, second = map(float, rows[0])
    assert mean == pytest.approx(math.exp(-2.0), rel=1e-10)
    assert var == pytest.approx((1 - math.exp(-4.0)) / 2, rel=1e-8)
    assert second == pytest.approx(var + mean * mean, rel=1e-12)


def test_simulate_output_shape_and_determinism(m2_path, tmp_path):
    args = [
        "simulate", m2_path, "--mu", "1,0", "--t", "2", "--dt", "0.01",
        "--paths", "500", "--seed", "9", "--f", "1,-1",
    ]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["path_id", "survived", "mass_A", "mass_B", "V", "Z"]
    assert len(rows) == 500
    assert {r[1] for r in rows} <= {"0", "1"}


def _per_value_csv(model, ens, f):
    # the simulate CSV written the plain way: one format() call per value
    sd = spectral_data(model)
    f_tilde = remove_principal_component(np.asarray(f, dtype=float), sd)
    v = ens.states_at_t @ sd.phi0 / ens.t_end
    z = ens.states_at_t @ f_tilde / math.sqrt(ens.t_end)
    lines = ["path_id,survived," + ",".join(
        f"mass_{label}" for label in model.labels) + ",V,Z"]
    for p in range(ens.n_paths):
        values = [*ens.states_at_t[p], v[p], z[p]]
        lines.append(f"{p},{int(ens.survived[p])},"
                     + ",".join(format(float(x), ".17g") for x in values))
    return "".join(line + "\n" for line in lines).encode()


def _jump_model():
    rng = np.random.default_rng(77)
    while True:
        model = acceptance.random_model(rng, 2, critical=True)
        if any(j.size for j in model.jumps):
            return model


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("which", ["m2", "jumps"])
def test_simulate_csv_equals_per_value_formatting(which, threads, tmp_path):
    # 5000 paths span two chunks of CSV rows, with dead and live paths
    model = acceptance.model_m2() if which == "m2" else _jump_model()
    dc = derived_coefficients(model)
    dt = 0.01 if which == "m2" else 0.1 / (dc.qnorm + dc.kbound)
    t = 200 * dt
    path = tmp_path / "model.json"
    path.write_text(dump_model(model))
    out = tmp_path / "sim.csv"
    assert main(["simulate", str(path), "--mu", "1,0", "--t", repr(t),
                 "--dt", repr(dt), "--paths", "5000", "--seed", "3",
                 "--f", "1,-1", "--threads", str(threads),
                 "--out", str(out)]) == 0
    ens = simulate_paths(model, [1.0, 0.0], SimConfig(
        t_end=t, dt=dt, n_paths=5000, seed=3, n_threads=threads))
    assert 0 < ens.survived.sum() < ens.n_paths
    assert out.read_bytes() == _per_value_csv(model, ens, [1.0, -1.0])


def test_simulate_csv_keeps_signed_zero_tails_apart(m2_path, tmp_path, monkeypatch):
    # dead rows whose zeros differ only in sign must not share a tail
    zeros = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]
    states = np.array([zeros[p % 4] if p % 5 else [1.5, 0.25]
                       for p in range(5000)])
    ens = PathEnsemble(states_at_t=states, survived=states.any(axis=1),
                       t_end=2.0, dt=0.01, seed=1)
    monkeypatch.setattr(montecarlo, "simulate_paths", lambda *a, **k: ens)
    out = tmp_path / "sim.csv"
    assert main(["simulate", m2_path, "--mu", "1,0", "--t", "2", "--dt",
                 "0.01", "--paths", "5000", "--seed", "1", "--f", "1,-1",
                 "--out", str(out)]) == 0
    text = out.read_bytes()
    assert b",-0,0," in text and b",0,-0," in text
    assert text == _per_value_csv(acceptance.model_m2(), ens, [1.0, -1.0])


def test_vector_from_file(m2_path, tmp_path):
    fvec = tmp_path / "f.csv"
    fvec.write_text("value\n1\n-1\n")
    out = tmp_path / "mom.csv"
    code = main(
        ["moments", m2_path, "--f", str(fvec), "--t", "1", "--mu", "1,0",
         "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx((1 - math.exp(-4.0)) / 2,
                                              rel=1e-8)


def test_vector_file_bad_row_exits_2(m2_path, tmp_path, capsys):
    fvec = tmp_path / "f.csv"
    fvec.write_text("1\nx2\n3\n")
    code = main(["moments", m2_path, "--f", str(fvec), "--t", "1", "--mu", "1,0"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(fvec) in err and "line 2" in err
    # only the first non-empty line may be a header
    fvec.write_text("\nvalue\n\n1\n-1\n")
    np.testing.assert_array_equal(_parse_vector(str(fvec)), [1.0, -1.0])
    fvec.write_text("value\n1\nlabel\n")
    with pytest.raises(ModelError, match="line 3"):
        _parse_vector(str(fvec))


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


csv_rows = st.lists(
    st.one_of(
        st.floats().map(lambda x: ("num", x)),
        st.from_regex(r"[a-z]{1,6}", fullmatch=True)
        .filter(lambda s: not _is_number(s))
        .map(lambda s: ("text", s)),
        st.sampled_from(["", "  "]).map(lambda s: ("empty", s)),
    ),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(rows=csv_rows, label=st.booleans())
def test_vector_file_property(tmp_path_factory, rows, label):
    lines, numbers, bad_line, seen = [], [], None, False
    for lineno, (kind, value) in enumerate(rows, start=1):
        if kind == "num":
            lines.append(repr(value) + (",label" if label else ""))
            if bad_line is None:
                numbers.append(value)
        else:
            lines.append(value)
            if kind == "text" and seen and bad_line is None:
                bad_line = lineno
        seen = seen or kind != "empty"
    path = tmp_path_factory.getbasetemp() / "vector.csv"
    path.write_text("\n".join(lines) + "\n")
    if bad_line is None:
        np.testing.assert_array_equal(_parse_vector(str(path)), numbers)
    else:
        with pytest.raises(ModelError, match=rf"line {bad_line}: not a number"):
            _parse_vector(str(path))


def test_non_finite_vector_exits_2(m2_path, tmp_path):
    fvec = tmp_path / "mu.csv"
    fvec.write_text("mu\n1\ninf\n")
    assert main(["moments", m2_path, "--f", "nan,1", "--t", "1", "--mu", "1,0"]) == 2
    assert main(["moments", m2_path, "--f", "1,-1", "--t", "1", "--mu", str(fvec)]) == 2
    assert main(
        ["simulate", m2_path, "--mu", "1,0", "--t", "1", "--dt", "0.01",
         "--paths", "10", "--seed", "1", "--f", "1,nan"]
    ) == 2


def test_inline_vector_bad_entry_exits_2(m2_path, capsys):
    assert main(["moments", m2_path, "--f", "1,x", "--t", "1", "--mu", "1,0"]) == 2
    assert "entry [1]" in capsys.readouterr().err
    with pytest.raises(ModelError, match=r"entry \[0\] is not a number: ''"):
        _parse_vector(",1")


@pytest.mark.parametrize(
    "grid", ["5", "1:2", "1:2:3:4", "a:2:3", "1:2:x", "2:1:3", "0:1:3",
             "-1:2:3", "1:2:0", "1:inf:3", "nan:2:3", "-inf:2:3"],
)
def test_bad_t_grid_exits_2(m1_path, grid, capsys):
    assert main(["kolmogorov", m1_path, "--mu", "1", f"--t-grid={grid}"]) == 2
    assert "--t-grid" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--t", ["moments", "--f", "1,-1", "--mu", "1,0"]),
        ("--t", ["yaglom", "--f", "1,-1", "--lambda", "1"]),
        ("--lambda", ["yaglom", "--f", "1,-1", "--t", "1"]),
        ("--t", ["simulate", "--mu", "1,0", "--dt", "0.01", "--paths", "10",
                 "--seed", "1", "--f", "1,-1"]),
        ("--dt", ["simulate", "--mu", "1,0", "--t", "1", "--paths", "10",
                  "--seed", "1", "--f", "1,-1"]),
    ],
    ids=["moments-t", "yaglom-t", "yaglom-lambda", "simulate-t", "simulate-dt"],
)
def test_non_finite_scalar_flag_exits_2(m2_path, flag, argv, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], m2_path, *argv[1:], f"{flag}={bad}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and repr(bad) in err


@pytest.mark.parametrize(
    "flag, bad",
    [("--threads", "0"), ("--threads", "-3"), ("--threads", "1.5"),
     ("--seed", "-1"), ("--seed", str(2**64)), ("--seed", "x"),
     ("--paths", "0"), ("--paths", "2.5")],
)
def test_bad_integer_simulate_flag_exits_2(m2_path, flag, bad, capsys):
    argv = {"--t": "1", "--dt": "0.01", "--paths": "10", "--seed": "1",
            "--threads": "1", flag: bad}
    args = [x for kv in argv.items() for x in kv]
    with pytest.raises(SystemExit) as exc:
        main(["simulate", m2_path, "--mu", "1,0", "--f", "1,-1", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and repr(bad) in err


_SIMULATE = ["simulate", "--mu", "1,0", "--paths", "10", "--seed", "1", "--f", "1,-1"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["yaglom", "--f", "1,1", "--lambda", "-1", "--t", "10"], "-1"),
        (["yaglom", "--f=-1,1", "--lambda", "1", "--t", "10"], "f[0] must be >= 0, got -1"),
        (_SIMULATE + ["--t", "1", "--dt", "0.3"], "0.3"),
        (_SIMULATE + ["--t", "0.001", "--dt", "0.01"], "0.001"),
        (_SIMULATE + ["--t", "1", "--dt", "0.5"], "0.5"),
        (["moments", "--f", "1,2,3", "--mu", "1,0", "--t", "1"],
         "spcrit: field vector must have shape (2,), got (3,)\n"),
        (["kolmogorov", "--mu", "1", "--t-grid", "1:10:2"],
         "spcrit: measure vector must have shape (2,), got (1,)\n"),
    ],
    ids=["yaglom-lambda", "yaglom-field", "simulate-no-multiple",
         "simulate-under-one-step", "simulate-step-guard", "moments-field-length",
         "kolmogorov-measure-length"],
)
def test_rejected_library_argument_exits_2(m2_path, argv, named, capsys):
    assert main([argv[0], m2_path, *argv[1:]]) == 2
    assert named in capsys.readouterr().err


def test_missing_file_is_a_runtime_error(tmp_path):
    assert main(["spectral", str(tmp_path / "absent.json")]) == 1


@pytest.mark.parametrize("which", ["model", "--mu", "--f"])
def test_a_file_that_is_not_utf8_is_named(m2_path, tmp_path, capsys, which):
    # it printed "spcrit: UnicodeDecodeError: ..." and exited 1
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff")
    argv = {"model": m2_path, "--f": "1,1", "--mu": "1,0", which: str(bad)}
    args = ["moments", argv.pop("model"), *(x for kv in argv.items() for x in kv), "--t", "1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spcrit: {bad} is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_t_grid_past_the_step_budget_is_refused():
    # every distinct time costs the solver at least one step, so a grid of
    # more times than one solve's steps cannot finish; it was allocated
    with pytest.raises(ModelError, match=r"^--t-grid asks for n = 1000001 times"):
        _parse_t_grid("1:2:1000001")
    assert _parse_t_grid("1:2:1000000").size == 1_000_000


@pytest.mark.parametrize("fast", [False, True], ids=["full", "fast"])
@pytest.mark.parametrize(
    "second, code, summary",
    [
        ((True, 1.0), 0, "2/2 criteria passed"),
        ((True, 12.0), 3, "1/2 criteria passed"),
        ((False, 1.0), 3, "1/2 criteria passed"),
    ],
    ids=["all-pass", "over-budget", "failed"],
)
def test_verify_prints_each_criterion(m2_path, monkeypatch, capsys, fast, second, code,
                                      summary):
    results = [
        acceptance.CriterionResult(1, "first", True, 0.5, 10.0, "ok"),
        acceptance.CriterionResult(2, "second", *second, 10.0, "detail"),
    ]
    calls = []

    def run_all(fast=False):
        calls.append(fast)
        return results

    monkeypatch.setattr(acceptance, "run_all", run_all)
    assert main(["verify", m2_path] + (["--fast"] if fast else [])) == code
    assert capsys.readouterr().out.splitlines() == [r.line() for r in results] + [summary]
    assert calls == [fast]


def test_verify_bad_model_exits_2(tmp_path):
    doc = json.loads(dump_model(acceptance.model_m1()))
    doc["m"] = [-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
