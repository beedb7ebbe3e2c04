"""Regenerate ``reference.json``: the stored inputs and expected outputs.

    python3 perfbench/make_reference.py --commit <hash>

Run this only on the commit whose answers the benchmark should hold later
commits to; it records that commit's outputs as the reference.  It uses
one worker process per CPU.

* ``sweep.models``: a pool of random models (half with 2 states, half with
  3), drawn with ``acceptance.random_model`` from fixed streams and stored
  as model JSON with their query inputs, plus the reference commit's
  ``nu``, ``sigma_f^2``, variance profiles at t = 5, 10, 15 and
  log-Laplace solution, and the time its queries took (``cost_s``).  A
  run's seed picks one model from each cost stratum of this pool.
* ``mc.seeds``: simulation seeds for the mc workload.  Criterion 8's gates
  are statistical tests with fixed false-alarm rates (``NOMINAL_RATE``),
  so a fresh seed per run would fail now and then on correct code.
  Candidates 1, 2, 3, ... are run through the same gates at the reference
  commit; passing seeds form the pool, and every rejected seed is listed
  with the gate it missed.  Screening would hide a defect that makes a
  gate fail more often than its nominal rate, so the script refuses to
  write the file when any gate's rejection count is improbable under that
  rate (binomial tail below ``ALPHA`` over the number of gates) and
  stores each gate's count and tail probability otherwise.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bootstrap  # noqa: E402

POOL_TAG = 20260917
N_MODELS = 96
N_SEEDS = 32
ALPHA = 0.01

# false-alarm rate per seed of each criterion-8 gate, keyed by the start of
# its failure message; a failure that matches none (an exception, a query
# not run) has rate 0, so a single one refuses the pool
NOMINAL_RATE = {
    "m1.simulate_paths: survival": 2.7e-3,   # |gap| > 3 SE, normal approximation
    "m1.stats: KS exp": 1e-2,                # p <= 0.01
    "m2.simulate_paths: only": 0.0,          # < 1000 of ~1190 expected survivors
    # |mean Z^2 - 1/2| > 15%: Var Z^2 = 5/4 under the limit law, ~1190 survivors
    "m2.stats: E[Z^2]": 2.1e-2,
    "m2.stats: product KS": 1e-3,            # p <= 0.001
    "m2.stats: ratio KS": 1e-3,              # p <= 0.001
    "m2.stats: independence": 6.3e-5,        # |corr| > 4/sqrt(n)
}


def _model_entry(i: int) -> dict:
    import numpy as np
    from spcrit import acceptance, spectral
    from spcrit.model import dump_model

    import workloads

    rng = np.random.default_rng([POOL_TAG, i])
    n = 2 + i % 2
    raw = acceptance.random_model(rng, n_states=n)
    sd = spectral.spectral_data(spectral.criticalize(raw))
    entry = {
        "n": n,
        "model": dump_model(raw),
        "f": spectral.remove_principal_component(
            acceptance.random_field(rng, n), sd).tolist(),
        "f0": acceptance.random_field(rng, n, nonneg=True).tolist(),
        "t_solve": float(rng.uniform(0.2, 3.0)),
        "g": acceptance.random_field(rng, n, nonneg=True).tolist(),
        "t_var": float(rng.uniform(0.3, 2.0)),
        "mu": rng.uniform(0.1, 1.5, n).tolist(),
    }
    raw2, arr = workloads.sweep_inputs(entry)
    p = workloads.Pass()
    entry["expected"] = workloads.sweep_queries(
        p, raw2, arr, entry["t_solve"], entry["t_var"])
    entry["cost_s"] = p.seconds["model"]
    entry["failures"] = p.failures
    return entry


def _seed_verdict(seed: int) -> list[str]:
    import math

    import workloads

    env = bootstrap.load(with_reference=False)
    p = workloads.Pass()
    workloads.mc_legs(p, env, seed, workloads.MC_PATHS_M1, workloads.MC_PATHS_M2,
                      1, -math.expm1(-2.0 / workloads.MC_T))
    return p.failures


def gate_counts(rejected: list[dict], tried: int) -> dict:
    """Rejections per gate with their binomial tail under the nominal rate."""
    from scipy.stats import binom

    counts: dict[str, int] = {}
    for r in rejected:
        for failure in r["failed"]:
            label, _, problems = failure.partition(": ")
            for problem in problems.split("; "):
                gate = next((g for g in NOMINAL_RATE if f"{label}: {problem}".startswith(g)),
                            f"{label}: {problem}")
                counts[gate] = counts.get(gate, 0) + 1
    return {
        gate: {"rejected": k, "nominal_rate": NOMINAL_RATE.get(gate, 0.0),
               "tail_p": float(binom.sf(k - 1, tried, NOMINAL_RATE.get(gate, 0.0)))}
        for gate, k in counts.items()
    }


def _init() -> None:
    bootstrap.pin_blas()
    bootstrap.use_checkout_source()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--commit", required=True, help="commit the answers come from")
    args = ap.parse_args()
    _init()
    jobs = os.cpu_count() or 1

    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn"),
                             initializer=_init) as pool:
        models = list(pool.map(_model_entry, range(N_MODELS)))
        bad = [(i, m["failures"]) for i, m in enumerate(models) if m["failures"]]
        if bad:
            raise SystemExit(f"pool models fail at the reference commit: {bad}")
        for m in models:
            del m["failures"]
        seeds, rejected = [], []
        candidate = 1
        while len(seeds) < N_SEEDS:
            batch = list(range(candidate, candidate + jobs))
            candidate += jobs
            for seed, failures in zip(batch, pool.map(_seed_verdict, batch)):
                if failures:
                    rejected.append({"seed": seed, "failed": failures})
                elif len(seeds) < N_SEEDS:
                    seeds.append(seed)
            print(f"mc seeds: {len(seeds)} kept, {len(rejected)} rejected", flush=True)

    tried = candidate - 1
    gates = gate_counts(rejected, tried)
    limit = ALPHA / len(NOMINAL_RATE)
    excess = {g: v for g, v in gates.items() if v["tail_p"] < limit}
    if excess:
        raise SystemExit(
            f"mc seed pool refused: of {tried} candidates, gates rejected more seeds than "
            f"their nominal rate allows (binomial tail < {limit:.2g}): {excess}; "
            f"rejected seeds: {rejected}")

    import numpy
    import scipy

    doc = {
        "commit": args.commit,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "sweep": {"pool_tag": POOL_TAG, "models": models},
        "mc": {"seeds": seeds, "rejected": rejected, "candidates_tried": tried,
               "rejected_count": len(rejected), "gates": gates},
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
