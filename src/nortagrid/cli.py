"""File-based command-line pipeline.

Verbs: fit, generate, validate, solve, evaluate, make-instance, sweep.
Structured artifacts are JSON (model, plan, report, validation) and
scenario matrices are CSV. Every artifact embeds the deterministic part
of its run manifest (command, inputs with content hashes, seed, tool
version, tolerances); the wall-clock timestamp lives in a sidecar
`<out>.manifest.json` so that re-running a command with identical
inputs and seeds reproduces the artifact itself byte for byte.

Exit codes: 0 success, 2 input validation, 3 numerical failure,
4 resource limit.
"""
from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, lp, norta
from .errors import NumericalError, ResourceLimitError, ValidationError
from .grid import (_KINDS, BUDGET_SLACK, GridInstance, HardeningPlan, InstanceSpec, _field,
                   _is_real, _read_json, generate_instance, load_grid, load_scenarios,
                   save_grid, save_scenarios)
from .norta import FitReport, NortaModel, ScenarioSet, estimate_inputs
from .stats import EmpiricalMarginal, emd, spread
from .twostage import (STAT_ROWS, RecourseSolver, TwoStageProblem, budget_sweep,
                       evaluate_oos, greedy_first_stage, solve_budgets, solve_first_stage)

__all__ = ["build_parser", "load_model", "load_plans", "main"]


# ----------------------------------------------------------------------
# Manifest and artifact plumbing


def _sha256(path):
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


def _manifest(args, command, inputs, tolerances=None):
    return {
        "command": command,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "seed": args.seed,
        "version": __version__,
        "tolerances": tolerances or {},
    }


def _work(solver, exact=False):
    """How each recourse component was solved, and for an exact search
    how many branch-and-bound nodes it visited: counts that repeat
    exactly on a re-run, so they may sit in the embedded manifest."""
    work = {"certified_components": solver.certified, "component_lps": solver.lp_solves}
    if exact:
        work["bb_nodes"] = solver.bb_nodes
    return work


def _write_sidecar(path, manifest):
    side = dict(manifest)
    side["artifact"] = str(path)
    side["created_utc"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(f"{path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(side, fh, indent=2)
        fh.write("\n")


def _write_json(path, payload, manifest):
    payload = dict(payload)
    payload["manifest"] = manifest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _write_sidecar(path, manifest)


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _seven_stats(values):
    """Table-style summary: mean/std/min/25%/50%/75%/max."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return None
    # STAT_ROWS[1:] is ("mean", "std", "min", "25%", "50%", "75%", "max").
    return dict(zip(STAT_ROWS[1:], (float(arr.mean()), *spread(arr))))


# ----------------------------------------------------------------------
# Model and plan serialization


def _finite_list(values, where):
    """A JSON list of finite numbers as a float array."""
    if not isinstance(values, list):
        raise ValidationError(f"{where} must be a list of numbers")
    for v in values:
        if not _is_real(v):
            raise ValidationError(f"{where} must hold finite numbers, got {v!r}")
    return np.array(values, dtype=float)


_REPORT_FIELDS = (("repair_distance", float), ("chol_jitter", float),
                  ("rho_evaluations", int), ("pair_evaluations", int),
                  ("settled_evaluations", int))


def _pair_column(pairs, name, n_pairs, kind):
    """Fit-report column `name`: a JSON list of n_pairs finite numbers
    (kind float) or booleans (kind bool), as an array. Types are checked
    in one pass; only a bad column is walked, to name its first bad entry."""
    where, values = f"fit_report.pairs.{name}", pairs[name]
    if not isinstance(values, list) or len(values) != n_pairs:
        raise ValidationError(f"{where} must be a list of {n_pairs} entries, one per pair")
    if set(map(type, values)) <= ({float, int} if kind is float else {bool}):
        column = np.array(values, dtype=kind)
        if np.all(np.isfinite(column)):
            return column
    ok, what = _KINDS[kind]
    k = next(k for k, v in enumerate(values) if not ok(v))
    raise ValidationError(f"{where}[{k}]: must be {what}, got {values[k]!r}")


def load_model(path) -> NortaModel:
    """A fitted model from its JSON file. Column ids and the fit
    report's work counters (0 when absent) must be JSON integers,
    marginals, matrices and the other report numbers finite JSON
    numbers. The report's `pairs` are columns in ``np.triu_indices(n,
    1)`` order: `residual` finite numbers, `clamped` JSON booleans. A
    value of another type is rejected, naming its field; the older
    one-object-per-pair layout is rejected, asking for a new `fit`."""
    data = _read_json(path)
    try:
        marginals = [EmpiricalMarginal(_finite_list(vals, f"marginals[{j}]"))
                     for j, vals in enumerate(data["marginals"])]
        sigma_x, sigma_z, y, chol = (
            np.array([_finite_list(row, name) for row in data[name]])
            for name in ("sigma_x", "sigma_z", "y", "chol"))
        raw_cols = data.get("columns")
        columns = None if raw_cols is None else tuple(
            _field(raw_cols, k, int, "columns") for k in range(len(raw_cols)))
        rep = data["fit_report"]
        if not isinstance(rep["pairs"], dict):
            raise ValidationError("fit_report.pairs is in the old one-object-per-pair "
                                  "layout; re-run `nortagrid fit` to rewrite the model")
        n = len(marginals)
        residual, clamped = (_pair_column(rep["pairs"], name, n * (n - 1) // 2, kind)
                             for name, kind in (("residual", float), ("clamped", bool)))
        scalars = [_field(rep, name, kind, "fit_report") if name in rep else kind(0)
                   for name, kind in _REPORT_FIELDS]
        report = FitReport(residual, clamped, *scalars)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed model file {path}: {exc}") from exc
    for name, m in (("sigma_x", sigma_x), ("sigma_z", sigma_z), ("y", y), ("chol", chol)):
        if m.shape != (n, n):
            raise ValidationError(
                f"{path}: {name} has shape {m.shape}, expected ({n}, {n})")
    if columns is not None and len(columns) != n:
        raise ValidationError(f"{path}: columns do not match marginal count")
    return NortaModel(marginals=marginals, sigma_x=sigma_x, sigma_z=sigma_z,
                      y=y, chol=chol, report=report, columns=columns)


def load_plans(path, grid: GridInstance):
    """Plan-file entries as (budget, plan, so_estimate) tuples. Heights
    must be JSON integers, `budget` and `so_estimate` finite numbers or
    null; a value of another type is rejected, naming its plan."""
    data = _read_json(path)
    entries = data.get("plans")
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{path}: expected a non-empty 'plans' list")
    out = []
    for k, entry in enumerate(entries):
        where = f"{path}: plan {k + 1}"
        try:
            hmap = entry["heights"]
            heights = []
            for sid in grid.flooded_ids:
                key = str(sid)
                if key not in hmap:
                    raise ValidationError(f"{where} is missing a height for substation {sid}")
                heights.append(_field(hmap, key, int, f"{where} heights"))
            budget, so = (None if entry.get(name) is None else _field(entry, name, float, where)
                          for name in ("budget", "so_estimate"))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"{path}: malformed plan {k + 1}: {exc}") from exc
        out.append((budget, HardeningPlan(np.array(heights, dtype=int)), so))
    return out


# ----------------------------------------------------------------------
# Report emission


def _budget_labels(reports):
    labels = []
    for k, rep in enumerate(reports):
        labels.append(repr(float(rep.budget)) if rep.budget is not None else f"plan{k + 1}")
    return labels


def _stat_table(reports):
    """STAT_ROWS name -> one float (None when missing) per report."""
    values = [rep.stat_values() for rep in reports]
    return {name: [None if row[k] is None else float(row[k]) for row in values]
            for k, name in enumerate(STAT_ROWS)}


def _report_payload(reports):
    return {
        "format": "nortagrid-report",
        "m": int(reports[0].m),
        "statistics": list(STAT_ROWS),
        "budgets": [rep.budget for rep in reports],
        "quantile_method": "linear",
        "std_denominator": "M-1",
        "table": _stat_table(reports),
        "columns": [rep.to_dict() for rep in reports],
    }


def _write_report_csv(path, reports, manifest):
    labels = _budget_labels(reports)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["statistic"] + labels)
        for name, row in _stat_table(reports).items():
            writer.writerow([name] + ["" if v is None else repr(v) for v in row])
    _write_sidecar(path, manifest)


def _emit_reports(args, reports, manifest):
    for out in args.out:
        if out.endswith(".json"):
            _write_json(out, _report_payload(reports), manifest)
        elif out.endswith(".csv"):
            _write_report_csv(out, reports, manifest)
        else:
            raise ValidationError(f"report path {out} must end in .json or .csv")
        _say(args, f"wrote {out}")


# ----------------------------------------------------------------------
# Commands


def cmd_fit(args):
    s = load_scenarios(args.scenarios)
    model = norta.fit(s, degree=args.degree, match_tol=args.match_tol,
                      bisect_max_iter=args.bisect_max_iter)
    manifest = _manifest(args, "fit", [args.scenarios], tolerances={
        "match_tol": args.match_tol,
        "bisect_max_iter": args.bisect_max_iter,
        "gh_degree": args.degree,
        "psd_tol": norta.PSD_TOL,
    })
    payload = {
        "format": "nortagrid-model",
        "columns": [int(c) for c in model.columns] if model.columns is not None else None,
        "marginals": [m.sorted_values.tolist() for m in model.marginals],
        "sigma_x": model.sigma_x.tolist(),
        "sigma_z": model.sigma_z.tolist(),
        "y": model.y.tolist(),
        "chol": model.chol.tolist(),
        "fit_report": model.report.to_dict(),
    }
    _write_json(args.out, payload, manifest)
    _say(args, f"fit: {model.dim} marginals from {s.n_scenarios} scenarios "
               f"({model.report.clamp_count} clamped pairs, "
               f"repair distance {model.report.repair_distance:.3g}) -> {args.out}")


def cmd_generate(args):
    if args.count < 1:
        raise ValidationError("--count must be at least 1")
    model = load_model(args.model)
    seed = args.seed if args.seed is not None else 0
    s = norta.sample(model, args.count, seed)
    if s.columns is None:
        s = ScenarioSet(s.scenarios, s.probs, columns=tuple(range(s.dim)))
    manifest = _manifest(args, "generate", [args.model])
    manifest["seed"] = seed
    save_scenarios(s, args.out)
    _write_sidecar(args.out, manifest)
    _say(args, f"generate: {s.n_scenarios} x {s.dim} synthetic scenarios -> {args.out}")


def cmd_validate(args):
    orig = load_scenarios(args.scenarios)
    synth = load_scenarios(args.synthetic)
    if orig.dim != synth.dim:
        raise ValidationError(
            f"dimension mismatch: {args.scenarios} has {orig.dim} columns, "
            f"{args.synthetic} has {synth.dim}")
    if (orig.columns is not None and synth.columns is not None
            and orig.columns != synth.columns):
        raise ValidationError("scenario files carry different substation ids")
    marg_o, sig_o = estimate_inputs(orig)
    marg_s, sig_s = estimate_inputs(synth)
    ids = np.array(orig.columns, dtype=int)  # load_scenarios always reads the ids
    emds = [emd(a, b) for a, b in zip(marg_o, marg_s)]
    i, j = np.triu_indices(orig.dim, 1)
    errs = np.abs(sig_o[i, j] - sig_s[i, j])
    manifest = _manifest(args, "validate", [args.scenarios, args.synthetic])
    payload = {
        "format": "nortagrid-validation",
        "n_scenarios": orig.n_scenarios,
        "n_synthetic": synth.n_scenarios,
        "emd": {
            "per_dimension": {"column": ids.tolist(), "value": [float(v) for v in emds]},
            "summary": _seven_stats(emds),
        },
        "correlation_error": {
            "pairs": {"i": ids[i].tolist(), "j": ids[j].tolist(), "value": errs.tolist()},
            "summary": _seven_stats(errs),
        },
    }
    _write_json(args.out, payload, manifest)
    msg = f"validate: mean EMD {payload['emd']['summary']['mean']:.4g}"
    corr_summary = payload["correlation_error"]["summary"]
    if corr_summary:
        msg += f", mean |corr error| {corr_summary['mean']:.4g}"
    _say(args, f"{msg} -> {args.out}")


def _parse_budgets(args, grid):
    if getattr(args, "budgets", None) is not None:
        try:
            budgets = [float(tok) for tok in args.budgets.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad --budgets list: {exc}") from exc
        if not budgets:
            raise ValidationError("--budgets must name at least one budget")
    elif getattr(args, "budget", None) is not None:
        budgets = [float(args.budget)]
    else:
        budgets = [grid.budget]
    flag = "--budgets" if getattr(args, "budgets", None) is not None else "--budget"
    for b in budgets:
        if not 0 <= b < math.inf:  # also rejects nan
            raise ValidationError(f"{flag}: each budget must be a finite number >= 0, got {b!r}")
    return budgets


def _budget_inputs(args):
    """The grid, training problem, budgets and a fresh recourse solver of
    `solve` and `sweep`. The node budget is checked for every method:
    greedy ignores it, but a bad value is still a bad command line."""
    if args.node_budget < 1:
        raise ValidationError(f"--node-budget: node_budget must be an integer >= 1, "
                              f"got {args.node_budget!r}")
    grid = load_grid(args.grid)
    problem = TwoStageProblem(grid, load_scenarios(args.scenarios))
    return grid, problem, _parse_budgets(args, grid), RecourseSolver(grid)


# A budget `solve` finished: what `main` lists when a later budget stops.
_Solved = collections.namedtuple("_Solved", "budget plan so_estimate")


def cmd_solve(args):
    grid, problem, budgets, solver = _budget_inputs(args)

    def step(b):
        if args.method == "greedy":
            return _Solved(b, *greedy_first_stage(problem, b, solver=solver))
        return _Solved(b, *solve_first_stage(problem, b, node_budget=args.node_budget,
                                             solver=solver))

    entries = []
    for b, plan, so in solve_budgets(budgets, step):
        entries.append({
            "budget": float(b),
            "heights": {str(sid): int(h)
                        for sid, h in zip(grid.flooded_ids, plan.heights)},
            "cost": float(plan.cost(grid)),
            "so_estimate": float(so),
        })
        _say(args, f"solve: budget {b:g} -> SO estimate {so:.6g}, "
                   f"plan cost {entries[-1]['cost']:g}")
    manifest = _manifest(args, "solve", [args.grid, args.scenarios], tolerances={
        "lp_feas_tol": lp.FEAS_TOL, "lp_opt_tol": lp.OPT_TOL, "budget_slack": BUDGET_SLACK,
    })
    manifest["work"] = _work(solver, exact=args.method == "exact")
    payload = {
        "format": "nortagrid-plan",
        "method": args.method,
        "flooded_ids": [int(s) for s in grid.flooded_ids],
        "plans": entries,
    }
    _write_json(args.out, payload, manifest)
    _say(args, f"wrote {args.out}")


def cmd_evaluate(args):
    grid = load_grid(args.grid)
    synth = load_scenarios(args.synthetic)
    problem = TwoStageProblem(grid, synth)
    solver = RecourseSolver(grid)
    reports = [dataclasses.replace(evaluate_oos(problem, plan, synth, solver=solver),
                                   budget=budget, so_estimate=so)
               for budget, plan, so in load_plans(args.plan, grid)]
    manifest = _manifest(args, "evaluate", [args.grid, args.plan, args.synthetic],
                         tolerances={"lp_feas_tol": lp.FEAS_TOL, "lp_opt_tol": lp.OPT_TOL})
    manifest["work"] = _work(solver)
    _emit_reports(args, reports, manifest)


def cmd_sweep(args):
    grid, problem, budgets, solver = _budget_inputs(args)
    synth = load_scenarios(args.synthetic)
    reports = budget_sweep(problem, budgets, synth, node_budget=args.node_budget,
                           solver=solver)
    for rep in reports:
        _say(args, f"sweep: budget {rep.budget:g} -> SO {rep.so_estimate:.6g}, "
                   f"OOS mean {rep.mean:.6g}")
    manifest = _manifest(args, "sweep",
                         [args.grid, args.scenarios, args.synthetic],
                         tolerances={"lp_feas_tol": lp.FEAS_TOL, "lp_opt_tol": lp.OPT_TOL,
                                     "budget_slack": BUDGET_SLACK})
    manifest["work"] = _work(solver, exact=True)
    _emit_reports(args, reports, manifest)


def cmd_make_instance(args):
    spec = InstanceSpec.from_dict(_read_json(args.spec))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    grid, scen = generate_instance(spec)
    grid_path, scen_path = args.out
    manifest = _manifest(args, "make-instance", [args.spec])
    manifest["seed"] = spec.seed
    save_grid(grid, grid_path, extra={"manifest": manifest})
    _write_sidecar(grid_path, manifest)
    save_scenarios(scen, scen_path)
    _write_sidecar(scen_path, manifest)
    _say(args, f"make-instance: {len(grid.substations)} substations "
               f"({len(grid.flooded_ids)} flooded), {scen.n_scenarios} scenarios "
               f"-> {grid_path}, {scen_path}")


# ----------------------------------------------------------------------
# Parser


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for any randomized step (default: command-specific)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = argparse.ArgumentParser(
        prog="nortagrid",
        description="Correlated flood-scenario generation and two-stage "
                    "grid-hardening optimization.")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", parents=[common],
                       help="fit a scenario-generation model to a scenario CSV")
    f.add_argument("scenarios", help="training scenario CSV")
    f.add_argument("--out", required=True, help="output model JSON")
    f.add_argument("--degree", type=int, default=64,
                   help="Gauss-Hermite degree per axis (default 64)")
    f.add_argument("--match-tol", type=float, default=1e-4,
                   help="correlation-matching tolerance (default 1e-4)")
    f.add_argument("--bisect-max-iter", type=int, default=200)
    f.set_defaults(func=cmd_fit)

    g = sub.add_parser("generate", parents=[common],
                       help="sample synthetic scenarios from a fitted model")
    g.add_argument("model", help="model JSON from `fit`")
    g.add_argument("--count", type=int, default=800,
                   help="number of synthetic scenarios (default 800)")
    g.add_argument("--out", required=True, help="output scenario CSV")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("validate", parents=[common],
                       help="compare synthetic scenarios against the originals")
    v.add_argument("scenarios", help="original scenario CSV")
    v.add_argument("synthetic", help="synthetic scenario CSV")
    v.add_argument("--out", required=True, help="output validation JSON")
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("solve", parents=[common],
                       help="optimize hardening heights under a budget")
    s.add_argument("grid", help="grid JSON")
    s.add_argument("scenarios", help="training scenario CSV")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--budget", type=float, default=None,
                       help="single budget (default: the grid's budget)")
    group.add_argument("--budgets", default=None,
                       help="comma-separated budget list")
    s.add_argument("--method", choices=("exact", "greedy"), default="exact")
    s.add_argument("--node-budget", type=int, default=10 ** 6)
    s.add_argument("--out", required=True, help="output plan JSON")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("evaluate", parents=[common],
                       help="evaluate saved plans on out-of-sample scenarios")
    e.add_argument("grid", help="grid JSON")
    e.add_argument("plan", help="plan JSON from `solve`")
    e.add_argument("synthetic", help="out-of-sample scenario CSV")
    e.add_argument("--out", required=True, nargs="+",
                   help="report path(s); .json and/or .csv")
    e.set_defaults(func=cmd_evaluate)

    w = sub.add_parser("sweep", parents=[common],
                       help="solve and evaluate across a list of budgets")
    w.add_argument("grid", help="grid JSON")
    w.add_argument("scenarios", help="training scenario CSV")
    w.add_argument("synthetic", help="out-of-sample scenario CSV")
    w.add_argument("--budgets", required=True, help="comma-separated budget list")
    w.add_argument("--node-budget", type=int, default=10 ** 6)
    w.add_argument("--out", required=True, nargs="+",
                   help="report path(s); .json and/or .csv")
    w.set_defaults(func=cmd_sweep)

    m = sub.add_parser("make-instance", parents=[common],
                       help="generate a synthetic grid and flood scenarios")
    m.add_argument("--spec", required=True, help="instance-spec JSON")
    m.add_argument("--out", required=True, nargs=2,
                   metavar=("GRID", "SCENARIOS"),
                   help="output grid JSON and scenario CSV")
    m.set_defaults(func=cmd_make_instance)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for rep in exc.reports:
            print(f"finished budget {rep.budget:g}: heights {rep.plan.heights.tolist()}, "
                  f"SO estimate {rep.so_estimate:.6g}", file=sys.stderr)
        if exc.plan is not None:
            print(f"best plan so far: heights {exc.plan.heights.tolist()} (flooded substations "
                  f"in grid order), value {exc.value:.6g}, bound {exc.bound:.6g}, "
                  f"gap {exc.value - exc.bound:.6g}", file=sys.stderr)
        elif exc.bound is not None:
            print(f"no plan found yet; bound {exc.bound:.6g}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
