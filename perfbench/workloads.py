"""The benchmark's workloads: inputs, CLI command sequences and output checks.

Each workload is a closed loop with one caller: a planner's batch study
run through ``nortagrid.cli.main``, each command waiting for the last.
The program sees only the files written here. Commands run with the
run directory as working directory and relative paths, so the paths
recorded in artifact manifests, and with them the artifact bytes, do
not depend on where the checkout lives.

Seed mapping: the training data of every workload is the fixed study
object (the 72-dim panel at seed 42; the grid instances at seed 3), and
the benchmark's ``--seed`` draws the 800-scenario expansion
(``generate --seed``), so seed 0 reproduces the reference study. Other
training data would change the work itself: B&B effort swings by 1.6x
between instance seeds and the panel's mean EMD by 28% (IQR) between
panel seeds, which would drown every change smaller than that.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
REL_TOL = 1e-9
MAX_MEAN_EMD = 0.15
MAX_MEAN_CORR_ERR = 0.10

HARDENING_SPEC = {"n_substations": 12, "n_flooded": 8, "buses_per_substation": 2,
                  "topology": "grid", "n_scenarios": 24, "max_height": 5,
                  "budget": 50, "seed": 3}
GREEDY_SPEC = dict(HARDENING_SPEC, n_substations=16, n_flooded=12, n_scenarios=32)


def ar1_height_panel(k=16, dim=72, seed=42):
    """Correlated integer heights: AR(1) latent field pushed through a
    lognormal-style floor, clipped to 0..12. Same generator as the
    acceptance tests' 72-dimension panel."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((k, dim))
    z = np.empty((k, dim))
    z[:, 0] = eps[:, 0]
    for j in range(1, dim):
        z[:, j] = 0.7 * z[:, j - 1] + math.sqrt(1.0 - 0.49) * eps[:, j]
    return np.clip(np.floor(np.exp(1.0 + 0.6 * z)), 0.0, 12.0)


def write_panel_csv(path, heights):
    """Scenario CSV: substation ids as header, one integer row per scenario."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(range(heights.shape[1]))
        writer.writerows([[int(v) for v in row] for row in heights])


@dataclass(frozen=True)
class Command:
    label: str        # metric stem, e.g. "fit" -> fit_s
    argv: tuple       # arguments to nortagrid.cli.main; "{seed}" is the workload seed
    artifacts: tuple  # files the command writes (sidecars excluded)


@dataclass(frozen=True)
class Workload:
    """One study: its inputs, its timed commands and the checks of its outputs."""
    name: str
    spec: dict | None  # make-instance spec of the grid; None: the fixed height panel
    steps: tuple       # Commands, run in order
    extract: Callable  # () -> the parts of the artifacts that the checks compare
    check: Callable    # extract()'s result -> invariant problems, label -> messages
    train_k: int       # training scenarios; base of twostage.saa_evals (0: no first stage)

    def setup(self, run_cli):
        """Build and write the training inputs in the working directory."""
        if self.spec is None:
            write_panel_csv("train.csv", ar1_height_panel())
            return
        with open("spec.json", "w", encoding="utf-8") as fh:
            json.dump(self.spec, fh)
        rc = run_cli(["make-instance", "--spec", "spec.json",
                      "--out", "grid.json", "train.csv"])
        if rc != 0:
            raise RuntimeError(f"make-instance exited with {rc}")

    def commands(self, seed):
        return [replace(c, argv=tuple(a.format(seed=seed) for a in c.argv))
                for c in self.steps]

    def problems(self, got, reference):
        """Problems found in one study's outputs, keyed by command label.

        reference is the recorded default-seed output, or None at other
        seeds, where only the invariants apply. Reference entries that no
        command writes (the validation means) are kept for the record only:
        the fit may improve them, and the invariants guard them.
        """
        problems = self.check(got)
        producer = {art: c.label for c in self.steps for art in c.artifacts}
        for name, want in (reference or {}).items():
            if name in producer:
                for msg in compare(want, got.get(name), name):
                    problems.setdefault(producer[name], []).append(msg)
        return problems


FIT_GENERATE = (
    Command("fit", ("fit", "train.csv", "--out", "model.json"), ("model.json",)),
    Command("generate", ("generate", "model.json", "--count", "800",
                         "--seed", "{seed}", "--out", "synth.csv"), ("synth.csv",)),
)


def _extract_validation():
    return {"validation": _validation_means(_read_json("validation.json"))}


def _check_validation(got):
    val, problems = got["validation"], []
    if not val["mean_emd"] <= MAX_MEAN_EMD:
        problems.append(f"mean EMD {val['mean_emd']} > {MAX_MEAN_EMD}")
    if not val["mean_corr_err"] <= MAX_MEAN_CORR_ERR:
        problems.append(f"mean |corr error| {val['mean_corr_err']} > {MAX_MEAN_CORR_ERR}")
    return {"validate": problems} if problems else {}


def _extract_sweep():
    return {"sweep.json": _report_fields(_read_json("sweep.json")),
            "sweep.csv": _read_report_csv("sweep.csv")}


def _check_sweep(got):
    costs = _flooded_costs(_read_json("grid.json"))
    cols, problems = got["sweep.json"]["columns"], []
    for col in cols:
        cost = _plan_cost(costs, col["heights"])
        if cost > col["budget"] + 1e-9:
            problems.append(f"plan cost {cost} exceeds budget {col['budget']}")
    so = [c["so_estimate"] for c in cols]
    if any(b > a + REL_TOL * max(1.0, abs(a)) for a, b in zip(so, so[1:])):
        problems.append(f"SO estimate rises with budget: {so}")
    return {"sweep": problems} if problems else {}


def _extract_greedy():
    plans = _read_json("plans.json")["plans"]
    return {"plans.json": [{k: p[k] for k in ("budget", "heights", "cost", "so_estimate")}
                           for p in plans],
            "report.json": _report_fields(_read_json("report.json")),
            "report.csv": _read_report_csv("report.csv")}


def _check_greedy(got):
    costs = _flooded_costs(_read_json("grid.json"))
    problems = []
    for plan in got["plans.json"]:
        heights = [plan["heights"][str(sid)] for sid, _, _ in costs]
        cost = _plan_cost(costs, heights)
        if cost > plan["budget"] + 1e-9:
            problems.append(f"plan cost {cost} exceeds budget {plan['budget']}")
    return {"solve": problems} if problems else {}


def compare(want, got, path):
    """Mismatches between a reference value and an output value.

    Integers, strings, booleans and None must match exactly (plans are
    integer heights); floats within REL_TOL relative.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in compare(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in compare(w, g, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(want - got) <= REL_TOL * max(abs(want), abs(got)):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


def load_reference(name):
    path = REFERENCE_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _validation_means(data):
    return {"mean_emd": data["emd"]["summary"]["mean"],
            "mean_corr_err": data["correlation_error"]["summary"]["mean"]}


def _report_fields(data):
    return {"budgets": data["budgets"], "table": data["table"],
            "columns": data["columns"]}


def _read_report_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0],
            "rows": {r[0]: [float(v) if v else None for v in r[1:]] for r in rows[1:]}}


def _flooded_costs(grid):
    """(id, fixed cost, cost per height unit) per flooded substation, in file order."""
    return [(s["id"], s["fixed_cost"], s["var_cost"])
            for s in grid["substations"] if s["flooded_flag"]]


def _plan_cost(costs, heights):
    return sum(fixed + var * h for (_, fixed, var), h in zip(costs, heights) if h >= 1)


# Why each workload exists: README.md here and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("scenario-engine", None, FIT_GENERATE + (
        Command("validate", ("validate", "train.csv", "synth.csv",
                             "--out", "validation.json"), ("validation.json",)),
    ), _extract_validation, _check_validation, 0),
    Workload("hardening-sweep", HARDENING_SPEC, FIT_GENERATE + (
        Command("sweep", ("sweep", "grid.json", "train.csv", "synth.csv",
                          "--budgets", "0,5,10,20,50", "--out", "sweep.json", "sweep.csv"),
                ("sweep.json", "sweep.csv")),
    ), _extract_sweep, _check_sweep, HARDENING_SPEC["n_scenarios"]),
    Workload("greedy-large", GREEDY_SPEC, FIT_GENERATE + (
        Command("solve", ("solve", "grid.json", "train.csv", "--method", "greedy",
                          "--budgets", "0,10,25,50", "--out", "plans.json"), ("plans.json",)),
        Command("evaluate", ("evaluate", "grid.json", "plans.json", "synth.csv",
                             "--out", "report.json", "report.csv"),
                ("report.json", "report.csv")),
    ), _extract_greedy, _check_greedy, GREEDY_SPEC["n_scenarios"]),
)}
