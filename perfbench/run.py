"""spcrit benchmark: one closed-loop caller running a named workload.

    python3 perfbench/run.py --workload {horizon,sweep,mc} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  The run measures set-up in fresh processes, then
repeats passes over the workload's fixed query set (made from ``--seed``)
while the next pass would end within half a pass of ``--seconds``, at
least once.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  Every query's answer is
checked; the last line of standard output is the JSON result.  Result and
span files go to ``.bench_out/`` at the checkout root.

``--smoke`` shrinks every workload and ``--wrong-reference`` corrupts one
reference value per workload; both exist for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bootstrap  # noqa: E402
import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = os.path.join(bootstrap.ROOT, ".bench_out")
SETUP_PROBES = 3   # before the passes, and as many again after them


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("horizon", "sweep", "mc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="corrupt one reference value (the gate must fail)")
    return ap.parse_args(argv)


def measure_setup(n: int) -> list[float]:
    """Set-up times of n fresh interpreters."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bootstrap.py")],
            capture_output=True, text=True, timeout=120, cwd=bootstrap.ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(args) -> dict:
    import numpy
    import scipy
    from spcrit import _kernels

    import workloads

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "seed": args.seed,
        "workload": args.workload,
        "blas_threads_pin": {v: os.environ[v] for v in bootstrap.BLAS_PIN},
        "mc_threads": workloads.mc_threads(),
        "load": "closed loop, 1 process, 1 caller",
        "platform": platform.platform(),
    }


def run_passes(run, seconds: float, traced: Tracer | None, package):
    """Rounds of passes while the next would end within half a round of
    ``seconds``; at least one.

    A round is one untraced pass, followed with a tracer by a traced one.
    """
    from workloads import Pass

    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        p = Pass()
        run(p)
        plain.append(p)
        if traced is not None:
            traced.install(package)
            try:
                p = Pass(traced)
                run(p)
            finally:
                traced.uninstall()
            traced_passes.append(p)
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) > seconds:
            return plain, traced_passes


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.pin_blas()  # before numpy is imported, here and in the probes
    bootstrap.use_checkout_source()
    n_probes = 1 if args.smoke else SETUP_PROBES
    setup_samples = measure_setup(n_probes)
    env = bootstrap.load()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    env.workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(env.workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](
            env, args.seed, smoke=args.smoke, wrong=args.wrong_reference)
        tracer = Tracer() if args.trace else None
        plain, traced = run_passes(wl.run, args.seconds, tracer, env.package)
        speedup = wl.speedup(plain) if (tracer and wl.speedup) else 0.0
    finally:
        shutil.rmtree(env.workdir, ignore_errors=True)
    # probes on both sides of the passes sample the machine at two times
    setup_samples += measure_setup(n_probes)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    wall = statistics.median(p.wall for p in plain)
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    e2e = {k: (e2e[k], unit) for k, unit in metrics.declared("end_to_end").items()}
    extra = {"ops_failed_frac": (len(failures) / attempted, "ratio"),
             "cpu_s": (statistics.median(p.cpu_s for p in plain), "s")}
    extra.update(wl.summarize(plain))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "environment": environment(args),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples_s": setup_samples,
        "attempted": attempted,
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "workload_end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    if tracer is not None:
        traced_wall = statistics.median(p.wall for p in traced)
        layer = metrics.per_layer_values(
            tracer, len(traced),
            closed_form_err=max(p.closed_form_err for p in passes),
            csv_bytes=max((p.facts.get("csv_bytes", 0) for p in passes), default=0),
            thread_speedup=speedup,
        )
        layer["trace.overhead_frac"] = traced_wall / wall - 1.0
        _incl, _calls, self_s = tracer.totals()
        layer_units = metrics.declared("per_layer")
        report["per_layer"] = {
            k: {"value": layer[k], "unit": u, "layer": metrics.LAYER[k][0],
                "moves": metrics.LAYER[k][1]}
            for k, u in layer_units.items()
        }
        report["self_seconds_per_pass"] = {
            lay: self_s.get(lay, 0.0) / len(traced)
            for lay in ("bench",) + tuple(sorted(set(self_s) - {"bench"}))
        }
        spans_path = os.path.join(OUT_DIR, f"spans-{tag}.jsonl")
        tracer.write(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, bootstrap.ROOT)
        result_metrics = {k: (layer[k], u) for k, u in layer_units.items()}
    else:
        result_metrics = e2e

    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print_report(report, tracer is not None)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }))
    return 0


def print_report(report: dict, traced: bool) -> None:
    envr = report["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in envr.items()))
    print(f"passes: {report['passes']}; queries attempted {report['attempted']}, "
          f"failed {len(report['failures'])}")
    for f in report["failures"][:20]:
        print(f"  FAILED {f}")
    for section in ("end_to_end", "workload_end_to_end"):
        for k, m in report[section].items():
            base = f" (base: {report['attempted']} queries)" if k == "ops_failed_frac" else ""
            print(f"{k:38s} {m['value']:.6g} {m['unit']}{base}")
    if traced:
        print(f"{'per-layer metric':38s} {'value':>12s} unit   layer       moves")
        for k, m in report["per_layer"].items():
            print(f"{k:38s} {m['value']:12.6g} {m['unit']:6s} {m['layer']:11s} {m['moves']}")
        print("self seconds per traced pass: " + ", ".join(
            f"{k}={v:.4g}" for k, v in report["self_seconds_per_pass"].items()))
        print(f"spans: {report['spans_file']}")


if __name__ == "__main__":
    sys.exit(main())
