"""Acceptance gate: ten end-to-end criteria, one test each.

Run with -v to get one pass/fail line per criterion. Each test prints
its measured numbers so a failure log carries the evidence. Every
tolerance below is part of the library's contract; do not loosen them
to make a regression pass.
"""
import json
import math
import time

import numpy as np

from helpers import (
    ar1_height_panel,
    brute_force_big_m_z,
    enumerate_first_stage,
    random_lp,
    small_instance,
    star_grid,
)
from nortagrid import cli
from nortagrid.grid import (
    HardeningPlan,
    InstanceSpec,
    generate_instance,
    load_scenarios,
    operational_topology,
)
from nortagrid.lp import solve_lp
from nortagrid.norta import c_of_rho, estimate_inputs, fit, nearest_correlation, sample
from nortagrid.stats import emd, normal_quantile
from nortagrid.twostage import (
    RecourseSolver,
    TwoStageProblem,
    budget_sweep,
    evaluate_oos,
    saa_objective,
    solve_first_stage,
)


class AnalyticNormal:
    def quantile(self, u):
        u = np.clip(np.asarray(u, dtype=float), 2.0 ** -54, np.nextafter(1.0, 0.0))
        return normal_quantile(u)


def test_criterion_01_copula_identity_on_normal_marginals():
    marginal = AnalyticNormal()
    start = time.perf_counter()
    errs = {rho: abs(c_of_rho(marginal, marginal, rho) - rho)
            for rho in (-0.9, -0.5, 0.0, 0.5, 0.9)}
    elapsed = time.perf_counter() - start
    print(f"criterion 1: max |c(rho) - rho| = {max(errs.values()):.2e}, {elapsed:.2f}s")
    assert all(err <= 1e-3 for err in errs.values()), errs
    assert elapsed < 5.0


def test_criterion_02_norta_recovery_on_72_dimensions():
    start = time.perf_counter()
    train = ar1_height_panel()
    model = fit(train)
    synth = sample(model, 800, seed=7)
    marg_t, sig_t = estimate_inputs(train)
    marg_s, sig_s = estimate_inputs(synth)
    dim = train.dim
    mean_emd = float(np.mean([emd(marg_t[j], marg_s[j]) for j in range(dim)]))
    iu = np.triu_indices(dim, k=1)
    mean_corr_err = float(np.mean(np.abs(sig_t[iu] - sig_s[iu])))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: mean EMD {mean_emd:.4f} (<= 0.15), "
          f"mean |corr err| {mean_corr_err:.4f} (<= 0.10), {elapsed:.1f}s")
    assert mean_emd <= 0.15
    assert mean_corr_err <= 0.10
    assert elapsed < 120.0


def test_criterion_03_psd_repair():
    bad = np.full((3, 3), -0.6)
    np.fill_diagonal(bad, 1.0)
    out = nearest_correlation(bad)
    off = out[~np.eye(3, dtype=bool)]
    min_eig = float(np.min(np.linalg.eigvalsh(out)))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 8))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    psd = s / np.outer(d, d)
    psd = (psd + psd.T) / 2.0
    np.fill_diagonal(psd, 1.0)
    passthrough = float(np.linalg.norm(nearest_correlation(psd) - psd))
    print(f"criterion 3: off-diag max dev {np.max(np.abs(off + 0.5)):.2e}, "
          f"min eig {min_eig:.2e}, passthrough {passthrough:.2e}")
    assert np.max(np.abs(off - (-0.5))) <= 1e-4
    assert min_eig >= -1e-8
    assert passthrough <= 1e-9


def test_criterion_04_big_m_equivalence():
    # one grid with ten flooded substations gives ten pairs per draw
    grid = star_grid(n_flooded=10)
    max_h, max_d = 6, 6
    big_m = max_d + max_h + 1
    rng = np.random.default_rng(84)
    mismatches = 0
    checked = 0
    for _ in range(100):
        x = rng.integers(0, max_h + 1, size=10)
        delta = rng.integers(0, max_d + 1, size=10).astype(float)
        z = operational_topology(grid, HardeningPlan(x), delta)
        # demand buses sit at indices 1..10 in flooded order
        for i in range(10):
            want = brute_force_big_m_z(float(x[i]), float(delta[i]), float(big_m))
            if int(z[1 + i]) != want:
                mismatches += 1
            checked += 1
        assert bool(z[0])  # safe hub is always up
    print(f"criterion 4: {checked} (x, delta) pairs, {mismatches} mismatches")
    assert checked == 1000
    assert mismatches == 0


def test_criterion_05_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(505)
    worst_gap = 0.0
    worst_infeas = 0.0
    n_optimal = 0
    for k in range(100):
        prob, (status, obj, verts) = random_lp(rng, m=3, with_eq=k % 3 == 0)
        sol = solve_lp(prob)
        assert sol.status == status, f"LP {k}: {sol.status} vs {status}"
        if status == "optimal":
            n_optimal += 1
            worst_gap = max(worst_gap, abs(sol.objective - obj))
            worst_infeas = max(worst_infeas, sol.max_infeasibility)
    print(f"criterion 5: 100 LPs, {n_optimal} optimal, worst gap {worst_gap:.2e}, "
          f"worst infeasibility {worst_infeas:.2e}")
    assert worst_gap <= 1e-6
    assert worst_infeas <= 1e-7
    assert n_optimal >= 30  # generator sanity


def test_criterion_06_first_stage_matches_enumeration():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 7))
        grid, scen = small_instance(
            7000 + trial, n_substations=n, n_flooded=int(rng.integers(1, n + 1)),
            n_scenarios=int(rng.integers(2, 9)), max_height=3)
        problem = TwoStageProblem(grid, scen)
        solver = RecourseSolver(grid)
        budget = float(rng.uniform(0.0, 12.0))
        _, val = solve_first_stage(problem, budget, solver=solver)
        best, _ = enumerate_first_stage(problem, budget, solver=solver)
        worst = max(worst, abs(val - best))
    elapsed = time.perf_counter() - start
    print(f"criterion 6: 50 instances, worst |B&B - enumeration| {worst:.2e}, "
          f"{elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_07_in_sample_consistency():
    grid, scen = small_instance(707, n_substations=4, n_flooded=3, n_scenarios=6)
    problem = TwoStageProblem(grid, scen)
    solver = RecourseSolver(grid)
    caps = np.array([grid.substation(s).max_height for s in grid.flooded_ids])
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        plan = HardeningPlan(rng.integers(0, caps + 1))
        rep = evaluate_oos(problem, plan, scen, solver=solver)
        worst = max(worst, abs(rep.v_oos - saa_objective(problem, plan, solver=solver)))
    print(f"criterion 7: 20 plans, worst |OOS - SAA| {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_08_budget_sweep_structure():
    start = time.perf_counter()
    # Constant demand and a generator on every bus make shed exactly
    # separable across substations, so the synthetic mean is an unbiased
    # estimate of the in-sample mean and the CLT band is honest.
    spec = InstanceSpec(n_substations=6, n_flooded=5, buses_per_substation=2,
                        topology="ring", n_scenarios=16, max_height=4,
                        budget=0.0, seed=808, demand_low=10.0, demand_high=10.0,
                        gen_bus_fraction=1.0, capacity_slack=1.5)
    grid, train = generate_instance(spec)
    model = fit(train)
    synth = sample(model, 800, seed=11)
    caps = np.minimum(4, train.scenarios.max(axis=0)).astype(int)
    saturation = sum(grid.substation(sid).fixed_cost + grid.substation(sid).var_cost * c
                     for sid, c in zip(grid.flooded_ids, caps))
    budgets = np.linspace(0.0, saturation, 9)
    problem = TwoStageProblem(grid, train)
    reports = budget_sweep(problem, budgets, synth)
    so = np.array([r.so_estimate for r in reports])
    oos = np.array([r.mean for r in reports])
    stds = np.array([r.std for r in reports])
    elapsed = time.perf_counter() - start
    gaps = np.abs(oos - so)
    bands = 3.0 * stds / math.sqrt(800)
    print(f"criterion 8: SO {np.round(so, 3).tolist()}")
    print(f"criterion 8: |OOS-SO| {np.round(gaps, 3).tolist()} vs bands "
          f"{np.round(bands, 3).tolist()}; saturation shed {so[-1]:.2e}/{oos[-1]:.2e}; "
          f"{elapsed:.1f}s")
    assert np.all(np.diff(so) <= 1e-9), "SO estimates must be non-increasing"
    for g, band in zip(gaps, bands):
        assert g <= band + 1e-12
    assert abs(so[-1]) <= 1e-9
    assert abs(oos[-1]) <= 1e-9
    assert elapsed < 300.0


def test_criterion_09_shed_monotone_and_balanced():
    rng = np.random.default_rng(909)
    trials = 0
    worst_jump = -math.inf
    worst_residual = 0.0
    while trials < 500:
        grid, scen = small_instance(9000 + trials)
        solver = RecourseSolver(grid)
        nf = len(grid.flooded_ids)
        caps = np.array([grid.substation(s).max_height for s in grid.flooded_ids])
        for _ in range(25):
            if trials >= 500:
                break
            x = rng.integers(0, caps + 1)
            k = int(rng.integers(0, scen.n_scenarios))
            delta = scen.scenarios[k]
            bump = x.copy()
            bump[int(rng.integers(0, nf))] += 1
            sols = []
            for heights in (x, bump):
                z = operational_topology(grid, HardeningPlan(heights), delta)
                sols.append(solver.solve_topology(z))
            worst_jump = max(worst_jump, sols[1].shed - sols[0].shed)
            worst_residual = max(worst_residual, sols[0].balance_residual,
                                 sols[1].balance_residual)
            trials += 1
    print(f"criterion 9: {trials} trials, worst shed increase {worst_jump:.2e}, "
          f"worst balance residual {worst_residual:.2e}")
    assert worst_jump <= 1e-9
    assert worst_residual <= 1e-7


def test_criterion_10_pipeline_determinism(tmp_path, monkeypatch):
    spec = {"n_substations": 4, "n_flooded": 3, "buses_per_substation": 1,
            "topology": "ring", "n_scenarios": 8, "max_height": 3,
            "budget": 6.0, "seed": 5}
    artifacts = ("grid.json", "scen.csv", "model.json", "synth.csv",
                 "val.json", "plans.json", "report.json", "report.csv",
                 "sweep.json")

    def run_pipeline(d):
        d.mkdir()
        monkeypatch.chdir(d)
        (d / "spec.json").write_text(json.dumps(spec))
        steps = [
            ("make-instance", "--spec", "spec.json",
             "--out", "grid.json", "scen.csv"),
            ("fit", "scen.csv", "--out", "model.json"),
            ("generate", "model.json", "--count", "40", "--out", "synth.csv"),
            ("validate", "scen.csv", "synth.csv", "--out", "val.json"),
            ("solve", "grid.json", "scen.csv", "--budgets", "0,3,6",
             "--out", "plans.json"),
            ("evaluate", "grid.json", "plans.json", "synth.csv",
             "--out", "report.json", "report.csv"),
            ("sweep", "grid.json", "scen.csv", "synth.csv", "--budgets", "0,6",
             "--out", "sweep.json"),
        ]
        for step in steps:
            assert cli.main([*step, "--quiet"]) == 0, step[0]
        return {name: (d / name).read_bytes() for name in artifacts}

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    differing = [name for name in artifacts if first[name] != second[name]]
    print(f"criterion 10: {len(artifacts)} artifacts compared, "
          f"{len(differing)} differ {differing}")
    assert not differing
    # sanity: the synthetic set really is scenario data
    monkeypatch.chdir(tmp_path / "run1")
    assert load_scenarios("synth.csv").scenarios.shape == (40, 3)
