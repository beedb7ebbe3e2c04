import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcrit import acceptance, montecarlo
from spcrit.cli import _parse_vector, main
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
        if any(j.size for j in model.branching.jumps):
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
    ],
    ids=["yaglom-lambda", "yaglom-field", "simulate-no-multiple",
         "simulate-under-one-step", "simulate-step-guard"],
)
def test_rejected_library_argument_exits_2(m2_path, argv, named, capsys):
    assert main([argv[0], m2_path, *argv[1:]]) == 2
    assert named in capsys.readouterr().err


def test_missing_file_is_a_runtime_error(tmp_path):
    assert main(["spectral", str(tmp_path / "absent.json")]) == 1


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
