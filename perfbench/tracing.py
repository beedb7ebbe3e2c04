"""Spans around the library's public entry points, recorded from outside.

Tracing rebinds module attributes of the installed ``spcrit`` modules to
thin wrappers and restores them afterwards; no library source is edited.
A wrapper is bound under every module name that held the original object,
so calls made inside the library (``survival_probability`` calling
``neg_log_extinction``, ``moments`` building a ``MeanSemigroup``) are
caught as well.  Spans are kept in memory as tuples and reduced to self
time per layer at the end; the layer of a span is the first dotted part of
its name, and ``_kernels`` counts as part of ``loglaplace``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# span name -> (module, attribute); the span name's first part is its layer
TARGETS = {
    "model.load_model_file": ("model", "load_model_file"),
    "spectral.spectral_data": ("spectral", "spectral_data"),
    "spectral.criticalize": ("spectral", "criticalize"),
    "spectral.nu": ("spectral", "nu"),
    "spectral.fluctuation_variance": ("spectral", "fluctuation_variance"),
    "spectral.mean_semigroup": ("spectral", "MeanSemigroup"),
    "loglaplace.solve_log_laplace": ("loglaplace", "solve_log_laplace"),
    "loglaplace.neg_log_extinction": ("loglaplace", "neg_log_extinction"),
    "loglaplace.survival_probability": ("loglaplace", "survival_probability"),
    "loglaplace.kolmogorov_table": ("loglaplace", "kolmogorov_table"),
    "loglaplace.yaglom_transform": ("loglaplace", "yaglom_transform"),
    "loglaplace.rk4_evolve": ("_kernels", "rk4_evolve"),
    "moments.first_moment": ("moments", "first_moment"),
    "moments.variance": ("moments", "variance"),
    "moments.variance_from_transform": ("moments", "variance_from_transform"),
    "moments.variance_limit_check": ("moments", "variance_limit_check"),
    "montecarlo.simulate_paths": ("montecarlo", "simulate_paths"),
    "montecarlo.conditional_statistics": ("montecarlo", "conditional_statistics"),
    "montecarlo.ks_exponential_test": ("montecarlo", "ks_exponential_test"),
    "montecarlo.clt_checks": ("montecarlo", "clt_checks"),
    "cli.main": ("cli", "main"),
}


class Tracer:
    """In-memory span recorder with per-call counters.

    A span is ``(span_id, parent_id, query_id, name, start, end)``; the
    query id ties every span to the benchmark query that caused it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._query = -1
        self._next = 0
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------
    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, self._query, name, start, end))

    def query(self, name: str, query_id: int, fn):
        """Run one benchmark query as a root span named ``bench.<name>``."""
        self._query = query_id
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(sid, parent, f"bench.{name}", start, time.perf_counter())

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start, time.perf_counter())
            self._observe(name, args, kwargs, out)
            return out

        return wrapper

    def _observe(self, name, args, kwargs, out) -> None:
        """Counts read off the public arguments and results."""
        c = self.counters
        if name == "loglaplace.solve_log_laplace":
            meta = out.step_meta
            c["fine_steps"] += meta.n_steps_fine
            c["max_step_discrepancy"] = max(
                c["max_step_discrepancy"], meta.rel_discrepancy
            )
        elif name == "loglaplace.rk4_evolve":
            # rk4_evolve(Q, lin, quad, jy, jw, u, h, n_steps, ...)
            c["kernel_steps"] += int(args[7])
        elif name == "montecarlo.simulate_paths":
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            c["paths"] += out.n_paths
            c["path_steps"] += out.n_paths * cfg.n_steps
            c["survivors"] += int(out.survived.sum())

    # -- installing -------------------------------------------------------
    def install(self, package) -> None:
        """Rebind every target under each module name that holds it."""
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in ("model", "spectral", "loglaplace", "moments",
                      "montecarlo", "cli", "acceptance", "_kernels")
        ]
        for name, (mod_name, attr) in TARGETS.items():
            home = importlib.import_module(f"{package.__name__}.{mod_name}")
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    # -- reducing ---------------------------------------------------------
    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds and calls per span name, self seconds per layer."""
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        for sid, parent, _q, name, start, end in self.spans:
            incl[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for sid, _p, _q, name, start, end in self.spans:
            self_s[name.split(".")[0]] += (end - start) - child[sid]
        return incl, calls, self_s

    def child_seconds(self, parent_name: str, child_name: str) -> float:
        """Time of ``child_name`` spans directly under ``parent_name`` spans."""
        names = {sid: name for sid, _p, _q, name, _s, _e in self.spans}
        return sum(
            end - start
            for _sid, parent, _q, name, start, end in self.spans
            if name == child_name and names.get(parent) == parent_name
        )

    def write(self, path) -> None:
        """Span file: one JSON object per line, times relative to the first."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, query, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "query": query, "name": name,
                    "start_s": start - t0, "end_s": end - t0,
                }) + "\n")
