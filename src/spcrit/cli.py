"""Command-line front end.

Exit codes: 0 success, 1 runtime error, 2 validation or criticality
failure (a model without a finite extinction limit included), 3
acceptance failure.  All numeric output is CSV with a header row and 17
significant digits, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from . import loglaplace, moments, montecarlo, spectral
from .loglaplace import LadderError
from .model import ModelError, _read_utf8, as_field, load_model_file
from .spectral import NotCriticalError


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _parse_vector(arg: str) -> np.ndarray:
    """Inline comma-separated values, or a path to a one-column CSV.

    Only the first non-empty line of the file may be non-numeric (a
    header); any later such line is an error naming the file and line.
    """
    if os.path.exists(arg):
        rows = []
        header_allowed = True
        for lineno, line in enumerate(_read_utf8(arg).split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(float(line.split(",")[0]))
            except ValueError:
                if not header_allowed:
                    raise ModelError(
                        f"{arg}, line {lineno}: not a number: {line!r}"
                    ) from None
            header_allowed = False
        return np.array(rows)
    values = []
    for i, text in enumerate(arg.split(",")):
        try:
            values.append(float(text))
        except ValueError:
            raise ModelError(
                f"inline vector entry [{i}] is not a number: {text!r}"
            ) from None
    return np.array(values)


def _finite_float(text: str) -> float:
    """argparse type of the scalar flags: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_t_grid(arg: str) -> np.ndarray:
    """a:b:n means n log-spaced points in [a, b], n at most one solve's steps."""
    try:
        a, b, n = arg.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise ModelError(f"--t-grid expects a:b:n, got {arg!r}") from None
    if not (0 < a <= b < math.inf and n >= 1):
        raise ModelError(
            f"--t-grid needs finite 0 < a <= b and n >= 1, got {arg!r}"
        )
    if n > loglaplace._MAX_STEPS:
        raise ModelError(
            f"--t-grid asks for n = {n} times, more than the {loglaplace._MAX_STEPS} "
            f"steps one solve may take"
        )
    return np.geomspace(a, b, n)


def _int_in(low: int, high: int | None = None) -> Callable[[str], int]:
    """argparse type of the integer flags: an integer in [low, high)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low or (high is not None and value >= high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high})"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text!r}")
        return value

    return parse


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write each line followed by a newline, as it is produced."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(line + "\n" for line in lines)
    else:
        sys.stdout.writelines(line + "\n" for line in lines)


def _cmd_validate(args) -> int:
    from .model import check_grey_domination, derived_coefficients

    model = load_model_file(args.model)
    grey = check_grey_domination(model)
    dc = derived_coefficients(model)
    lines = [
        "quantity,value",
        f"n_states,{model.n_states}",
        f"kbound,{_fmt(dc.kbound)}",
        f"grey_satisfied,{int(grey.satisfied)}",
        f"b_tilde,{_fmt(grey.b_tilde)}",
    ]
    _emit(lines, args.out)
    return 0


def _cmd_spectral(args) -> int:
    model = load_model_file(args.model)
    sd = spectral.spectral_data(model)
    lines = [
        "quantity,value",
        f"lambda0,{_fmt(sd.lambda0)}",
        f"gamma,{_fmt(sd.gamma)}",
        f"c_expansion,{_fmt(spectral.fit_expansion_constant(model, sd))}",
    ]
    if sd.is_critical:
        lines.append(f"nu,{_fmt(spectral.nu(model, sd))}")
    lines.append("state,phi0,psi0")
    for i, label in enumerate(model.labels):
        lines.append(f"{label},{_fmt(sd.phi0[i])},{_fmt(sd.psi0[i])}")
    _emit(lines, args.out)
    if not sd.is_critical:
        print(f"model is not critical: lambda0 = {sd.lambda0:g}", file=sys.stderr)
        return 2
    return 0


def _cmd_kolmogorov(args) -> int:
    model = load_model_file(args.model)
    sd = spectral.spectral_data(model)
    mu = _parse_vector(args.mu)
    report = loglaplace.kolmogorov_table(model, sd, mu, _parse_t_grid(args.t_grid))
    lines = ["t,p_survival,t_times_p,limit"]
    for row in report.rows:
        lines.append(
            f"{_fmt(row.t)},{_fmt(row.p_survival)},"
            f"{_fmt(row.t_times_p)},{_fmt(row.limit)}"
        )
    _emit(lines, args.out)
    return 0


def _cmd_yaglom(args) -> int:
    model = load_model_file(args.model)
    sd = spectral.spectral_data(model)
    f = _parse_vector(args.f)
    mu = (
        _parse_vector(args.mu)
        if args.mu
        else np.eye(model.n_states)[0]
    )
    res = loglaplace.yaglom_transform(model, sd, mu, f, args.lam, args.t)
    lines = [
        "lambda,t,value,target,p_survival",
        f"{_fmt(res.lam)},{_fmt(res.t)},{_fmt(res.value)},"
        f"{_fmt(res.target)},{_fmt(res.p_survival)}",
    ]
    _emit(lines, args.out)
    return 0


def _cmd_moments(args) -> int:
    model = load_model_file(args.model)
    f = _parse_vector(args.f)
    mu = _parse_vector(args.mu)
    mean = moments.first_moment(model, f, args.t, mu)
    var = moments.variance(model, f, args.t, mu)
    lines = [
        "mean,variance,second_moment",
        f"{_fmt(mean)},{_fmt(var)},{_fmt(var + mean * mean)}",
    ]
    _emit(lines, args.out)
    return 0


def _cmd_simulate(args) -> int:
    model = load_model_file(args.model)
    sd = spectral.spectral_data(model)
    mu = _parse_vector(args.mu)
    f = as_field(model, _parse_vector(args.f))
    cfg = montecarlo.SimConfig(
        t_end=args.t, dt=args.dt, n_paths=args.paths, seed=args.seed,
        n_threads=args.threads,
    )
    ens = montecarlo.simulate_paths(model, mu, cfg)
    v, z = montecarlo.rescaled_functionals(ens.states_at_t, sd, f, cfg.t_end)

    def rows() -> Iterator[str]:
        yield "path_id,survived," + ",".join(
            f"mass_{label}" for label in model.labels
        ) + ",V,Z"
        # A dead path's tail (masses, V, Z) is signed zeros, shared by most
        # rows, so each distinct dead tail is formatted once, keyed by its
        # bytes, which keep -0.0 apart from 0.0.  Values are gathered one
        # chunk of paths at a time.
        dead_tails: dict[bytes, str] = {}
        for lo in range(0, ens.n_paths, montecarlo.CHUNK_PATHS):
            hi = min(lo + montecarlo.CHUNK_PATHS, ens.n_paths)
            values = np.column_stack((ens.states_at_t[lo:hi], v[lo:hi], z[lo:hi]))
            alive_rows = ens.survived[lo:hi].tolist()
            for p, row, alive in zip(range(lo, hi), values, alive_rows):
                if alive:
                    yield f"{p},1,{','.join(_fmt(x) for x in row)}"
                    continue
                key = row.tobytes()
                tail = dead_tails.get(key)
                if tail is None:
                    tail = dead_tails[key] = ",".join(_fmt(x) for x in row)
                yield f"{p},0,{tail}"

    _emit(rows(), args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    load_model_file(args.model)  # the supplied model must at least validate
    results = acceptance.run_all(fast=args.fast)
    for res in results:
        print(res.line())
    n_bad = sum(1 for r in results if not (r.passed and r.in_budget))
    print(f"{len(results) - n_bad}/{len(results)} criteria passed")
    return 0 if n_bad == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcrit",
        description="critical superprocess constants, limits and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a model JSON file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, "validate a model file")
    add("spectral", _cmd_spectral, "principal eigendata and constants")

    p = add("kolmogorov", _cmd_kolmogorov, "t * P(survival) table")
    p.add_argument("--mu", required=True, help="initial measure (csv or file)")
    p.add_argument("--t-grid", required=True, help="a:b:n log-spaced times")

    p = add("yaglom", _cmd_yaglom, "conditional Laplace transform vs target")
    p.add_argument("--f", required=True, help="test field (csv or file)")
    p.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--mu", default=None, help="initial measure (default: first state)")

    p = add("moments", _cmd_moments, "mean, variance and second moment")
    p.add_argument("--f", required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--mu", required=True)

    p = add("simulate", _cmd_simulate, "simulate paths and emit samples")
    p.add_argument("--mu", required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--dt", type=_finite_float, required=True)
    p.add_argument("--paths", type=_int_in(1), required=True)
    # SimConfig's seed range: one unsigned 64-bit word
    p.add_argument("--seed", type=_int_in(0, 2**64), required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--threads", type=_int_in(1), default=1)

    p = add("verify", _cmd_verify, "run the acceptance suite")
    p.add_argument("--fast", action="store_true", help="smaller Monte Carlo run")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # Grey's condition is read off the model before any solving, so its
    # failure is a property of the model, not of a run
    except (ModelError, NotCriticalError, LadderError) as exc:
        print(f"spcrit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"spcrit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
