"""Every metric the benchmark reports, with its layer and target.

Names and units of the result line's metrics come from ``BENCHMARK.json``
(``declared("end_to_end")`` for ``--trace 0``, ``declared("per_layer")``
for ``--trace 1``); this module adds what that file cannot hold.
``WORKLOAD_END_TO_END`` are user-visible figures kept out of the result
line, which carries the same metric set on every workload and no metric
that can read 0: most exist on one workload only, and ``ops_failed_frac``
(0 when the code is correct) is carried by the line's ``attempted`` and
``failed``.  They are printed and written to the result file.
For a per-layer metric, ``LAYER`` names its layer and the end-to-end
metric and workload it should move; a layer a workload does not call
reads 0 there.
"""

from __future__ import annotations

import json
import os

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def declared(section: str) -> dict[str, str]:
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# name: (unit, better, workloads, meaning)
WORKLOAD_END_TO_END = {
    "ops_failed_frac": ("ratio", "lower", "all", "failed or out-of-tolerance queries over attempted"),
    "cpu_s": ("s", "lower", "all", "process CPU time of one pass; above wall_s when threads overlap"),
    "riccati_s": ("s", "lower", "horizon", "the nine Riccati solves on m1"),
    "kolmogorov_s": ("s", "lower", "horizon", "the Kolmogorov table on m2"),
    "yaglom_s": ("s", "lower", "horizon", "the three Yaglom transforms on m1"),
    "models_per_s": ("1/s", "higher", "sweep", "random critical models fully processed per second"),
    "paths_per_s": ("1/s", "higher", "mc", "simulated paths per second of simulate_paths time"),
    "cli_simulate_s": ("s", "lower", "mc", "in-process spcrit simulate, CSV included"),
}

# name: (layer, moves)
LAYER = {
    "spectral.spectral_data.calls": ("spectral", "models_per_s@sweep, setup_s"),
    "spectral.spectral_data.s": ("spectral", "models_per_s@sweep, setup_s"),
    "spectral.criticalize.s": ("spectral", "models_per_s@sweep"),
    "spectral.fluctuation_variance.calls": ("spectral", "models_per_s@sweep"),
    "spectral.fluctuation_variance.s": ("spectral", "models_per_s@sweep"),
    "spectral.mean_semigroup.builds": ("spectral", "models_per_s@sweep, wall_s@horizon"),
    "spectral.self_s": ("spectral", "models_per_s@sweep"),
    "moments.variance.s": ("moments", "models_per_s@sweep"),
    "moments.variance_from_transform.s": ("moments", "models_per_s@sweep"),
    "moments.variance_limit_check.s": ("moments", "models_per_s@sweep"),
    "moments.self_s": ("moments", "models_per_s@sweep"),
    "loglaplace.solve_log_laplace.calls": ("loglaplace", "riccati_s@horizon, models_per_s@sweep"),
    "loglaplace.solve_log_laplace.s": ("loglaplace", "riccati_s@horizon, models_per_s@sweep"),
    "loglaplace.fine_steps": ("loglaplace", "riccati_s@horizon"),
    "loglaplace.kernel_steps": ("loglaplace", "wall_s@horizon"),
    "loglaplace.us_per_fine_step": ("loglaplace", "wall_s@horizon"),
    "loglaplace.neg_log_extinction.calls": ("loglaplace", "kolmogorov_s@horizon, yaglom_s@horizon"),
    "loglaplace.neg_log_extinction.s": ("loglaplace", "kolmogorov_s@horizon, yaglom_s@horizon"),
    "loglaplace.max_step_discrepancy": ("loglaplace", "ops_failed_frac (diagnostic)"),
    "loglaplace.max_rel_err_closed_form": ("loglaplace", "ops_failed_frac (diagnostic)"),
    "loglaplace.self_s": ("loglaplace", "wall_s@horizon"),
    "montecarlo.simulate_paths.s": ("montecarlo", "paths_per_s@mc"),
    "montecarlo.path_steps": ("montecarlo", "paths_per_s@mc"),
    "montecarlo.ns_per_path_step": ("montecarlo", "paths_per_s@mc"),
    "montecarlo.survivors": ("montecarlo", "ops_failed_frac@mc (base: paths)"),
    "montecarlo.survivor_frac": ("montecarlo", "ops_failed_frac@mc (base: paths)"),
    "montecarlo.stats.s": ("montecarlo", "wall_s@mc"),
    "montecarlo.thread_speedup": ("montecarlo", "paths_per_s@mc"),
    "montecarlo.self_s": ("montecarlo", "paths_per_s@mc"),
    "cli.simulate.s": ("cli", "cli_simulate_s@mc"),
    "cli.overhead_s": ("cli", "cli_simulate_s@mc"),
    "cli.csv_bytes": ("cli", "cli_simulate_s@mc"),
    "cli.self_s": ("cli", "cli_simulate_s@mc"),
    "model.load_model_file.s": ("model", "cli_simulate_s@mc"),
    "model.self_s": ("model", "cli_simulate_s@mc"),
    "trace.overhead_frac": ("trace", "none; traced wall_s over untraced, minus 1"),
}


def per_layer_values(tracer, n_passes: int, closed_form_err: float,
                     csv_bytes: float, thread_speedup: float) -> dict:
    """Per-pass values of the per-layer metrics from the traced passes."""
    incl, calls, self_s = tracer.totals()
    c = tracer.counters

    def per(x):
        return x / n_passes

    kernel_steps = c["kernel_steps"]
    path_steps = c["path_steps"]
    sim_s = incl["montecarlo.simulate_paths"]
    cli_s = incl["cli.main"]
    return {
        "spectral.spectral_data.calls": per(calls["spectral.spectral_data"]),
        "spectral.spectral_data.s": per(incl["spectral.spectral_data"]),
        "spectral.criticalize.s": per(incl["spectral.criticalize"]),
        "spectral.fluctuation_variance.calls": per(calls["spectral.fluctuation_variance"]),
        "spectral.fluctuation_variance.s": per(incl["spectral.fluctuation_variance"]),
        "spectral.mean_semigroup.builds": per(calls["spectral.mean_semigroup"]),
        "spectral.self_s": per(self_s["spectral"]),
        "moments.variance.s": per(incl["moments.variance"]),
        "moments.variance_from_transform.s": per(incl["moments.variance_from_transform"]),
        "moments.variance_limit_check.s": per(incl["moments.variance_limit_check"]),
        "moments.self_s": per(self_s["moments"]),
        "loglaplace.solve_log_laplace.calls": per(calls["loglaplace.solve_log_laplace"]),
        "loglaplace.solve_log_laplace.s": per(incl["loglaplace.solve_log_laplace"]),
        "loglaplace.fine_steps": per(c["fine_steps"]),
        "loglaplace.kernel_steps": per(kernel_steps),
        "loglaplace.us_per_fine_step": (
            1e6 * incl["loglaplace.rk4_evolve"] / kernel_steps if kernel_steps else 0.0),
        "loglaplace.neg_log_extinction.calls": per(calls["loglaplace.neg_log_extinction"]),
        "loglaplace.neg_log_extinction.s": per(incl["loglaplace.neg_log_extinction"]),
        "loglaplace.max_step_discrepancy": c["max_step_discrepancy"],
        "loglaplace.max_rel_err_closed_form": closed_form_err,
        "loglaplace.self_s": per(self_s["loglaplace"]),
        "montecarlo.simulate_paths.s": per(sim_s),
        "montecarlo.path_steps": per(path_steps),
        "montecarlo.ns_per_path_step": 1e9 * sim_s / path_steps if path_steps else 0.0,
        "montecarlo.survivors": per(c["survivors"]),
        "montecarlo.survivor_frac": c["survivors"] / c["paths"] if c["paths"] else 0.0,
        "montecarlo.stats.s": per(
            incl["montecarlo.conditional_statistics"]
            + incl["montecarlo.ks_exponential_test"]
            + incl["montecarlo.clt_checks"]),
        "montecarlo.thread_speedup": thread_speedup,
        "montecarlo.self_s": per(self_s["montecarlo"]),
        "cli.simulate.s": per(cli_s),
        "cli.overhead_s": per(
            cli_s - tracer.child_seconds("cli.main", "montecarlo.simulate_paths")),
        "cli.csv_bytes": csv_bytes,
        "cli.self_s": per(self_s["cli"]),
        "model.load_model_file.s": per(incl["model.load_model_file"]),
        "model.self_s": per(self_s["model"]),
    }
