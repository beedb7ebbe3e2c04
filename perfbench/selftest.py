"""Self-test of the benchmark at reduced size (about two minutes on 2 cores).

    python3 perfbench/selftest.py

For each workload it runs ``run.py --smoke`` untraced and traced, and
checks that the result line carries exactly the metrics and units that
``BENCHMARK.json`` declares, that every workload-level metric is in the
result file, and that no query fails.  It then reruns each workload with
``--wrong-reference`` and requires failed queries, which proves the gates
are live.  Last, it runs the benchmark in a directory that holds only
``BENCHMARK.json`` and ``perfbench/``, where it must exit non-zero without
a result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def run(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc, what: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(res: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise SystemExit(f"{what}: metrics {sorted(got.items())} != declared {sorted(want.items())}")
    for k, v in res["metrics"].items():
        if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
            raise SystemExit(f"{what}: {k} = {v['value']!r} is not a finite number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for wl in (w["name"] for w in bench["workloads"]):
        base = ["--workload", wl, "--seed", "1", "--seconds", "1", "--smoke"]
        res = result_of(run(base + ["--trace", "0"]), f"{wl} trace 0")
        expect_metrics(res, bench["end_to_end"], f"{wl} trace 0")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            raise SystemExit(f"{wl}: smoke run failed queries: {res}")
        with open(os.path.join(ROOT, ".bench_out", f"result-{wl}-seed1-trace0.json"),
                  encoding="utf-8") as fh:
            extra = json.load(fh)["workload_end_to_end"]
        want = {k for k, v in metrics.WORKLOAD_END_TO_END.items() if v[2] in ("all", wl)}
        if set(extra) != want or any(extra[k]["unit"] != metrics.WORKLOAD_END_TO_END[k][0]
                                     for k in want):
            raise SystemExit(f"{wl}: workload metrics {sorted(extra)} != {sorted(want)}")

        res = result_of(run(base + ["--trace", "1"]), f"{wl} trace 1")
        expect_metrics(res, bench["per_layer"], f"{wl} trace 1")
        if not res["correct"]:
            raise SystemExit(f"{wl}: traced smoke run failed queries: {res}")

        res = result_of(run(base + ["--trace", "0", "--wrong-reference"]), f"{wl} wrong ref")
        if res["correct"] or res["failed"] < 1:
            raise SystemExit(f"{wl}: a wrong reference value did not fail the gate")
        print(f"{wl}: ok ({res['failed']}/{res['attempted']} failed with a wrong reference)")

    bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(["--workload", "horizon", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare, script=os.path.join("perfbench", "run.py"))
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            raise SystemExit("without the library source the benchmark must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: ok (fails without a result)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
