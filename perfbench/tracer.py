"""Per-layer tracing for the nortagrid benchmark.

The tracer wraps public functions of each nortagrid module from outside
the package: a wrapper replaces the function in every nortagrid
namespace that holds it (``twostage.budget_sweep`` and
``cli.budget_sweep`` are the same object, so both are patched), or on
its class for a method. Nothing under ``src/`` changes, and the wrappers
exist only between ``install()`` and ``uninstall()``.

Every call is aggregated per key (calls, total time, self time) instead
of being stored as one span, because the hot leaves run up to ~10^5
times per command. Self time is a span's duration minus the time of the
wrapped spans it directly contains. The recourse-cache lookup runs
~10^6 times on the sweep workload, so it is only counted (attributed to
the innermost open span), never timed.

A target that no longer exists (renamed or deleted by a refactor) is
recorded in ``missing`` and every metric built on it is left out of the
report, instead of failing the run.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (key, module, attribute, mode). Modes: "span" times the call, "lp"
# times it and reads the LpSolution it returns, "count" only counts it.
# Only public names: private helpers are what later refactors replace.
TARGETS = (
    ("norta.fit", "norta", "fit", "span"),
    ("norta.estimate_inputs", "norta", "estimate_inputs", "span"),
    ("norta.solve_rho_z", "norta", "solve_rho_z", "span"),
    ("norta.c_of_rho", "norta", "c_of_rho", "span"),
    ("norta.nearest_correlation", "norta", "nearest_correlation", "span"),
    ("norta.sample", "norta", "sample", "span"),
    ("stats.quantile", "stats", "EmpiricalMarginal.quantile", "span"),
    ("stats.normal_cdf", "stats", "normal_cdf", "span"),
    ("stats.emd", "stats", "emd", "span"),
    ("twostage.budget_sweep", "twostage", "budget_sweep", "span"),
    ("twostage.solve_first_stage", "twostage", "solve_first_stage", "span"),
    ("twostage.greedy_first_stage", "twostage", "greedy_first_stage", "span"),
    ("twostage.evaluate_oos", "twostage", "evaluate_oos", "span"),
    ("twostage.solve_topology", "twostage", "RecourseSolver.solve_topology", "span"),
    ("twostage.shed_lookup", "twostage", "RecourseSolver.shed_for_topology", "count"),
    ("lp.solve_lp", "lp", "solve_lp", "lp"),
    ("grid.operational_topology", "grid", "operational_topology", "span"),
    ("grid.load_grid", "grid", "load_grid", "span"),
    ("grid.load_scenarios", "grid", "load_scenarios", "span"),
    ("grid.save_scenarios", "grid", "save_scenarios", "span"),
    ("grid.generate_instance", "grid", "generate_instance", "span"),
)

PACKAGE = "nortagrid"
FIRST_STAGE = ("twostage.solve_first_stage", "twostage.greedy_first_stage")
GRID_IO = ("grid.load_grid", "grid.load_scenarios", "grid.save_scenarios")


class Tracer:
    def __init__(self):
        self.missing = []
        self._patches = []  # (owner, attribute name, original value)
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.lookups = Counter()  # innermost open span key -> cache lookups
        self.lp_iters = 0
        self.lp_non_optimal = 0
        self._stack = []  # open spans: [key, time covered by child spans]

    def reset(self):
        """Drop the aggregates but keep the wrappers installed.

        Containers are cleared in place: the wrappers hold references.
        """
        for agg in (self.calls, self.total, self.self_s, self.lookups):
            agg.clear()
        self.lp_iters = 0
        self.lp_non_optimal = 0

    # -- spans -----------------------------------------------------------

    def span(self, key, fn, *args, **kwargs):
        """Run fn as a span named key (also used for whole CLI commands)."""
        frame = [key, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.calls[key] += 1
            self.total[key] += dt
            self.self_s[key] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, key, fn, mode):
        if mode == "count":
            stack, lookups = self._stack, self.lookups

            def counted(*args, **kwargs):
                lookups[stack[-1][0] if stack else None] += 1
                return fn(*args, **kwargs)
            return counted

        def timed(*args, **kwargs):
            result = self.span(key, fn, *args, **kwargs)
            if mode == "lp":
                self.lp_iters += int(getattr(result, "iterations", 0) or 0)
                if getattr(result, "status", None) != "optimal":
                    self.lp_non_optimal += 1
            return result
        return timed

    # -- patching --------------------------------------------------------

    def install(self, targets=TARGETS):
        pkg_modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == PACKAGE
                                             or name.startswith(PACKAGE + "."))]
        for key, module_name, attr, mode in targets:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, name, None) if owner is not None else None
            if not callable(orig):
                self.missing.append(key)
                continue
            wrapper = self._wrap(key, orig, mode)
            if path:  # a method: patch it on its class
                self._patch(owner, name, orig, wrapper)
                continue
            for module in pkg_modules:
                for var, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, var, orig, wrapper)

    def _patch(self, owner, name, orig, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- report ----------------------------------------------------------

    def layer_metrics(self, train_k):
        """Per-layer metrics from the aggregates of one traced study.

        train_k is the training-scenario count of the workload (0 when
        it has no first stage), the base of twostage.saa_evals.
        """
        out = {}

        def put(name, unit, needs, fn):
            if not any(k in self.missing for k in needs):
                out[name] = {"value": fn(), "unit": unit}

        calls, total, self_s = self.calls, self.total, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        put("norta.fit.s", "s", ["norta.fit"], lambda: total["norta.fit"])
        put("norta.solve_rho_z.calls", "count", ["norta.solve_rho_z"],
            lambda: calls["norta.solve_rho_z"])
        put("norta.c_of_rho.calls", "count", ["norta.c_of_rho"],
            lambda: calls["norta.c_of_rho"])
        put("norta.c_of_rho.per_pair", "calls/pair", ["norta.c_of_rho", "norta.solve_rho_z"],
            lambda: ratio(calls["norta.c_of_rho"], calls["norta.solve_rho_z"]))
        put("norta.c_of_rho.self_s", "s", ["norta.c_of_rho"],
            lambda: self_s["norta.c_of_rho"])
        for short in ("nearest_correlation", "estimate_inputs", "sample"):
            put(f"norta.{short}.s", "s", [f"norta.{short}"],
                lambda k=f"norta.{short}": total[k])

        for short in ("quantile", "normal_cdf"):
            key = f"stats.{short}"
            put(f"{key}.calls", "count", [key], lambda k=key: calls[k])
            put(f"{key}.s", "s", [key], lambda k=key: total[k])
        put("stats.emd.s", "s", ["stats.emd"], lambda: total["stats.emd"])

        fs_lookups = sum(self.lookups[k] for k in FIRST_STAGE)
        lookups = sum(self.lookups.values())
        lp_solves = calls["twostage.solve_topology"]
        put("twostage.first_stage.s", "s", FIRST_STAGE,
            lambda: sum(total[k] for k in FIRST_STAGE))
        put("twostage.first_stage.self_s", "s", FIRST_STAGE,
            lambda: sum(self_s[k] for k in FIRST_STAGE))
        put("twostage.saa_evals", "count", ["twostage.shed_lookup", *FIRST_STAGE],
            lambda: ratio(fs_lookups, train_k))
        put("twostage.shed_lookups", "count", ["twostage.shed_lookup"], lambda: lookups)
        put("twostage.lp_solves", "count", ["twostage.solve_topology"], lambda: lp_solves)
        put("twostage.cache_hit_ratio", "frac",
            ["twostage.shed_lookup", "twostage.solve_topology"],
            lambda: ratio(lookups - lp_solves, lookups))
        put("twostage.evaluate_oos.s", "s", ["twostage.evaluate_oos"],
            lambda: total["twostage.evaluate_oos"])
        put("twostage.evaluate_oos.self_s", "s", ["twostage.evaluate_oos"],
            lambda: self_s["twostage.evaluate_oos"])

        lp_calls, lp_s = calls["lp.solve_lp"], total["lp.solve_lp"]
        put("lp.solve_lp.calls", "count", ["lp.solve_lp"], lambda: lp_calls)
        put("lp.solve_lp.s", "s", ["lp.solve_lp"], lambda: lp_s)
        put("lp.simplex_iters", "count", ["lp.solve_lp"], lambda: self.lp_iters)
        put("lp.iters_per_solve", "iters/solve", ["lp.solve_lp"],
            lambda: ratio(self.lp_iters, lp_calls))
        put("lp.s_per_solve", "s", ["lp.solve_lp"], lambda: ratio(lp_s, lp_calls))
        put("lp.non_optimal", "count", ["lp.solve_lp"], lambda: self.lp_non_optimal)

        put("grid.operational_topology.calls", "count", ["grid.operational_topology"],
            lambda: calls["grid.operational_topology"])
        put("grid.operational_topology.s", "s", ["grid.operational_topology"],
            lambda: total["grid.operational_topology"])
        put("grid.io.s", "s", GRID_IO, lambda: sum(total[k] for k in GRID_IO))

        put("cli.self_s", "s", [],
            lambda: sum(v for k, v in self_s.items() if k.startswith("cli.")))
        return out
