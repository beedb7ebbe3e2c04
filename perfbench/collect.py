"""Run the benchmark over seeds 1 to 10 and summarize it per workload.

    python3 perfbench/collect.py

For every workload of ``BENCHMARK.json`` it runs one untraced run per seed,
one after another, each for the file's ``run_seconds``, and reports each
end-to-end and workload-level metric's median, first and third quartile
and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).  One traced run
per workload, with seed 1, adds the per-layer table.  The summary is
printed and written to ``.bench_out/summary.json``; ``BASELINE.json`` is
that file taken at the reference commit.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
TRACE_SEED = 1
OUT = os.path.join(ROOT, ".bench_out", "summary.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", f"result-{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return line, json.load(fh)


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]

    summary = {}
    for wl in (w["name"] for w in declared["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        environment = None
        for seed in SEEDS:
            line, report = bench(wl, seed, seconds, 0)
            attempted += line["attempted"]
            failed += line["failed"]
            environment = environment or report["environment"]
            for section in ("end_to_end", "workload_end_to_end"):
                for k, m in report[section].items():
                    values.setdefault(k, []).append(m["value"])
                    units[k] = m["unit"]
            print(f"{wl} seed {seed}: correct={line['correct']} "
                  + " ".join(f"{k}={m['value']:.5g}" for k, m in line["metrics"].items()),
                  flush=True)
        entry = {
            "runs": len(SEEDS), "attempted": attempted, "failed": failed,
            "environment": {k: v for k, v in environment.items() if k not in ("seed",)},
            "metrics": {k: {"unit": units[k], **stats(v)} for k, v in values.items()},
        }
        _line, report = bench(wl, TRACE_SEED, seconds, 1)
        entry["per_layer_seed"] = TRACE_SEED
        entry["per_layer"] = {k: {"value": m["value"], "unit": m["unit"]}
                              for k, m in report["per_layer"].items()}
        entry["self_seconds_per_pass"] = report["self_seconds_per_pass"]
        summary[wl] = entry
        for k, m in entry["metrics"].items():
            print(f"  {k:16s} median {m['median']:.5g} {m['unit']}  spread {m['spread']:.4f}")

    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
