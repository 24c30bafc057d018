"""Shared builders and independent oracles for the test suite.

Oracles here recompute answers from first principles (exhaustive plan
enumeration, LP vertex enumeration, big-M feasibility, one recourse LP
over the whole grid, the per-row simplex ratio test, a simplex solving
with its basis afresh at every step, one correlation match per pair,
the scenario CSV written cell by cell) so that a bug in the library
cannot hide behind shared code paths.
"""
import csv
import itertools
import math

import numpy as np

from nortagrid.errors import ResourceLimitError
from nortagrid.grid import (
    BUDGET_SLACK,
    Branch,
    Bus,
    GridInstance,
    HardeningPlan,
    InstanceSpec,
    Substation,
    generate_instance,
    operational_topology,
)
from nortagrid import lp
from nortagrid import norta
from nortagrid.lp import LpProblem
from nortagrid.norta import FitReport, RhoMatch, ScenarioSet
from nortagrid.stats import EmpiricalMarginal, normal_cdf, normal_score_thresholds
from nortagrid.twostage import RecourseSolver, TwoStageProblem, _SaaEvaluator, _search_data


def ar1_height_panel(k=16, dim=72, seed=42):
    """Correlated integer heights: AR(1) latent field pushed through a
    lognormal-style floor, clipped to 0..12 (the acceptance panel)."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((k, dim))
    z = np.empty((k, dim))
    z[:, 0] = eps[:, 0]
    for j in range(1, dim):
        z[:, j] = 0.7 * z[:, j - 1] + math.sqrt(1.0 - 0.49) * eps[:, j]
    heights = np.clip(np.floor(np.exp(1.0 + 0.6 * z)), 0.0, 12.0)
    return ScenarioSet.with_uniform_probs(heights)


def two_bus_grid(susceptance=1.0, capacity=10.0, demand=5.0, budget=100.0):
    """Generator bus 0 (safe) feeds demand bus 1 (flooded substation 1)
    over a single branch. Hardening substation 1 costs 1 + h."""
    subs = [
        Substation(0, False, 1.0, 1.0, 5),
        Substation(1, True, 1.0, 1.0, 5),
    ]
    buses = [
        Bus(0, 0, 0.0, 0.0, 20.0),
        Bus(1, 1, demand, 0.0, 0.0),
    ]
    branches = [Branch(0, 0, 1, susceptance, capacity)]
    return GridInstance(subs, buses, branches, reference_bus=0, budget=budget)


def star_grid(n_flooded=2, demand=5.0, budget=100.0, susceptance=1000.0):
    """Safe hub substation with a big generator, one demand bus per
    flooded substation, all wired to the hub. Shed is separable across
    the flooded substations, so optima are easy to reason about. A
    susceptance below demand / pi makes every spoke's angle bound bind."""
    subs = [Substation(0, False, 1.0, 1.0, 5)]
    buses = [Bus(0, 0, 0.0, 0.0, demand * n_flooded * 4.0)]
    branches = []
    for i in range(1, n_flooded + 1):
        subs.append(Substation(i, True, 1.0, 1.0, 5))
        buses.append(Bus(i, i, demand, 0.0, 0.0))
        branches.append(Branch(i - 1, 0, i, susceptance, demand * n_flooded * 4.0))
    return GridInstance(subs, buses, branches, reference_bus=0, budget=budget)


def braess_grid(budget=10.0):
    """A grid where protecting a substation raises shed. Safe generator
    bus 0 feeds safe demand bus 1 (5 MW) over a stiff line, and flooded
    bus 3 (3 MW, substation 3) over another. Flooded bus 2 (substation
    2, no demand) opens a parallel path 0-2-1 whose second line carries
    at most 0.1: with bus 2 alive, Kirchhoff's laws send a third of the
    0-1 transfer along that path, so bus 1 is served only 0.3."""
    subs = [Substation(i, i >= 2, 1.0, 1.0, 5) for i in range(4)]
    buses = [Bus(0, 0, 0.0, 0.0, 20.0), Bus(1, 1, 5.0, 0.0, 0.0),
             Bus(2, 2, 0.0, 0.0, 0.0), Bus(3, 3, 3.0, 0.0, 0.0)]
    branches = [Branch(0, 0, 1, 10.0, 10.0), Branch(1, 0, 2, 10.0, 10.0),
                Branch(2, 2, 1, 10.0, 0.1), Branch(3, 0, 3, 10.0, 10.0)]
    return GridInstance(subs, buses, branches, reference_bus=0, budget=budget)


def small_instance(seed, *, n_substations=None, n_flooded=None, n_scenarios=None,
                   max_height=3, budget=None, capacity_slack=1.2):
    """Random capacity-adequate instance small enough for enumeration."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5)) if n_substations is None else n_substations
    nf = int(rng.integers(1, n + 1)) if n_flooded is None else n_flooded
    k = int(rng.integers(2, 9)) if n_scenarios is None else n_scenarios
    spec = InstanceSpec(
        n_substations=n,
        n_flooded=nf,
        buses_per_substation=int(rng.integers(1, 3)),
        topology=str(rng.choice(["ring", "tree", "grid"])),
        n_scenarios=k,
        max_height=max_height,
        budget=float(rng.uniform(0.0, 12.0)) if budget is None else budget,
        seed=int(rng.integers(0, 2 ** 31)),
        capacity_slack=capacity_slack,
    )
    return generate_instance(spec)


def enumerate_first_stage(problem: TwoStageProblem, budget, *, solver=None):
    """Exhaustive SAA optimum over every budget-feasible integer plan.

    Enumerates the full height range 0..max_height per substation (no
    dominance trimming) and returns (best value, list of optimal height
    tuples). Shed values come from the same solver cache the search
    under test uses, so value comparisons are not polluted by LP noise.
    """
    grid = problem.grid
    flooded = grid.flooded_substations()
    solver = solver or RecourseSolver(grid)
    probs = problem.scenarios.probs
    scen = problem.scenarios.scenarios
    best_val, best_plans = None, []
    for combo in itertools.product(*[range(s.max_height + 1) for s in flooded]):
        plan = HardeningPlan(np.asarray(combo, dtype=int))
        if plan.cost(grid) > budget + 1e-9:
            continue
        sheds = np.array([solver.shed_for_topology(operational_topology(grid, plan, scen[j]))
                          for j in range(len(probs))])
        val = problem.stage_cost(plan.heights) + float(probs @ sheds)
        if best_val is None or val < best_val - 1e-12:
            best_val, best_plans = val, [combo]
        elif abs(val - best_val) <= 1e-12:
            best_plans.append(combo)
    return best_val, best_plans


def per_scenario_mean_shed(problem: TwoStageProblem, solver, heights):
    """The SAA shed average one scenario at a time: build each bus
    survival vector, look it up alone, and sum probs[k] * shed_k left to
    right from 0.0. The batched mean_shed must equal it bit for bit."""
    plan = HardeningPlan(np.asarray(heights, dtype=int))
    scen = problem.scenarios
    total = 0.0
    for k in range(scen.n_scenarios):
        z = operational_topology(problem.grid, plan, scen.scenarios[k])
        total += scen.probs[k] * solver.shed_for_topology(z)
    return total


def per_node_first_stage(problem: TwoStageProblem, budget, *, node_budget=10 ** 6,
                         solver=None):
    """The earlier branch-and-bound, scoring one height vector at a
    time: heights ascending, and each node past the first incumbent
    bounded by hardening every undecided substation to the tallest
    height whose own cost fits the budget left. That bound is valid only
    where shed never rises with protection (braess_grid breaks it); where
    it is, solve_first_stage must return the same plan and value bit for
    bit. Returns (heights, value, nodes)."""
    solver = solver or RecourseSolver(problem.grid)
    evaluator = _SaaEvaluator(problem, solver)
    nf, caps, max_h, level = _search_data(problem)
    order = np.argsort(-max_h, kind="stable")
    x = np.zeros(nf, dtype=int)
    best = [math.inf, None]
    nodes = 0

    def bound_heights(depth, cost):
        rest = order[depth:]
        h = x.copy()
        h[rest] = np.count_nonzero(cost + level[rest, 1:] <= budget + BUDGET_SLACK, axis=1)
        return h

    def dfs(depth, cost):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"branch-and-bound exceeded {node_budget} nodes")
        if depth == nf:
            val = evaluator.objective(x[None])[0]
            if val < best[0] or (val == best[0] and tuple(x) < tuple(best[1])):
                best[:] = val, x.copy()
            return
        if best[1] is not None:
            shed = evaluator.mean_shed(bound_heights(depth, cost)[None])[0]
            if problem.stage_cost(x) + shed > best[0]:
                return
        i = order[depth]
        for h in range(caps[i] + 1):
            step = level[i, h]
            if cost + step > budget + BUDGET_SLACK:
                break
            x[i] = h
            dfs(depth + 1, cost + step)
        x[i] = 0

    dfs(0, 0.0)
    return best[1], best[0], nodes


def per_move_greedy(problem: TwoStageProblem, budget, *, solver=None):
    """greedy_first_stage scoring each candidate move alone, as a
    one-row batch. Returns (heights, value)."""
    solver = solver or RecourseSolver(problem.grid)
    evaluator = _SaaEvaluator(problem, solver)
    nf, caps, _, level = _search_data(problem)
    x = np.zeros(nf, dtype=int)
    current = evaluator.objective(x[None])[0]
    while True:
        spent = sum(level[i, x[i]] for i in range(nf))
        best = None
        for i in range(nf):
            for h in range(x[i] + 1, caps[i] + 1):
                extra = level[i, h] - level[i, x[i]]
                if spent + extra > budget + BUDGET_SLACK:
                    break
                old = x[i]
                x[i] = h
                val = evaluator.objective(x[None])[0]
                x[i] = old
                reduction = current - val
                if reduction <= 1e-12:
                    continue
                ratio = reduction / max(extra, 1e-12)
                if best is None or ratio > best[0] + 1e-15:
                    best = (ratio, i, h, val)
        if best is None:
            return x, current
        _, i, h, current = best
        x[i] = h


def pattern_table(solver):
    """A solver's pattern table as {key bytes: shed}."""
    return dict(zip(solver._patterns.keys.tolist(), solver._patterns.values.tolist()))


def _combo_cache():
    cache = {}

    def combos(n_rows, k):
        key = (n_rows, k)
        if key not in cache:
            cache[key] = np.array(list(itertools.combinations(range(n_rows), k)),
                                  dtype=int)
        return cache[key]

    return combos


_combos = _combo_cache()


def lp_vertex_oracle(c, a_ub, b_ub, a_eq, b_eq, lower, upper, tol=1e-7):
    """Solve min c.x s.t. a_ub x <= b_ub, a_eq x = b_eq, bounds, by
    enumerating basic solutions of the (bounded) polytope.

    Every constraint, bounds included, becomes a row t.x <= u; a vertex
    solves n linearly independent tight rows, equalities always tight.
    Requires finite bounds so the feasible set is bounded (then a
    nonempty region always contains a vertex). Returns
    (status, objective, vertices).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows, rhs = [], []
    for t, u in zip(a_ub, b_ub):
        rows.append(np.asarray(t, dtype=float))
        rhs.append(float(u))
    eye = np.eye(n)
    for j in range(n):
        rows.append(eye[j])
        rhs.append(float(upper[j]))
        rows.append(-eye[j])
        rhs.append(float(-lower[j]))
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    eq_rows = np.asarray([np.asarray(t, dtype=float) for t in a_eq]).reshape(len(a_eq), n)
    eq_rhs = np.asarray([float(u) for u in b_eq])
    need = n - len(a_eq)
    assert need >= 0

    picks = _combos(len(rows), need)
    mats = np.broadcast_to(eq_rows, (len(picks), len(a_eq), n))
    mats = np.concatenate([mats, rows[picks]], axis=1)
    rvec = np.concatenate(
        [np.broadcast_to(eq_rhs, (len(picks), len(a_eq))), rhs[picks]], axis=1)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-9
    if not ok.any():
        return "infeasible", None, np.empty((0, n))
    xs = np.linalg.solve(mats[ok], rvec[ok][..., None])[..., 0]
    feas = np.all(xs @ rows.T <= rhs + tol, axis=1)
    if len(a_eq):
        feas &= np.all(np.abs(xs @ eq_rows.T - eq_rhs) <= tol, axis=1)
    verts = xs[feas]
    if verts.shape[0] == 0:
        return "infeasible", None, verts
    return "optimal", float((verts @ c).min()), verts


def random_lp(rng, n=6, m=3, with_eq=False):
    """Random integer-data LP plus its vertex-oracle answer."""
    c = rng.integers(-9, 10, size=n).astype(float)
    ub = rng.integers(1, 11, size=n).astype(float)
    prob = LpProblem.with_bounds(c, np.zeros(n), ub)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for _ in range(m):
        coefs = rng.integers(-5, 6, size=n).astype(float)
        rhs = float(rng.integers(-10, 11))
        sense = rng.choice(["<=", ">="])
        prob.add_row({j: coefs[j] for j in range(n)}, sense, rhs)
        if sense == "<=":
            a_ub.append(coefs)
            b_ub.append(rhs)
        else:
            a_ub.append(-coefs)
            b_ub.append(-rhs)
    if with_eq:
        coefs = rng.integers(-3, 4, size=n).astype(float)
        rhs = float(rng.integers(0, 8))
        prob.add_row({j: coefs[j] for j in range(n)}, "==", rhs)
        a_eq.append(coefs)
        b_eq.append(rhs)
    oracle = lp_vertex_oracle(c, a_ub, b_ub, a_eq, b_eq, np.zeros(n), ub)
    return prob, oracle


def brute_force_big_m_z(x, delta, big_m):
    """Unique binary z satisfying the big-M survival linking rows.

    Checks both candidate values of z against
        big_m * (1 - z) >= delta - x      and
        2 * big_m * z  >= 1 - 2 * (delta - x)
    and asserts exactly one of them is feasible.
    """
    feasible = []
    for z in (0, 1):
        ok = big_m * (1 - z) >= delta - x and 2.0 * big_m * z >= 1.0 - 2.0 * (delta - x)
        if ok:
            feasible.append(z)
    assert len(feasible) == 1, (x, delta, big_m, feasible)
    return feasible[0]


def uniform_scenarios(rows, columns):
    arr = np.asarray(rows, dtype=float)
    return ScenarioSet(arr, np.full(arr.shape[0], 1.0 / arr.shape[0]),
                       columns=tuple(columns))


def whole_pattern_lp(grid, z):
    """One recourse LP over the whole grid for survival pattern z: dead
    buses and off branches stay in as columns fixed at 0, with one angle
    reference per energized component (its lowest-id bus). Returns the
    problem and the column offsets of (served, generated, angle, flow)."""
    g = grid
    z = np.asarray(z, dtype=bool)
    nb, nr = g.n_buses, len(g.branches)
    idx_s, idx_g, idx_a, idx_e = 0, nb, 2 * nb, 3 * nb
    ncols = 3 * nb + nr
    c = np.zeros(ncols)
    c[idx_s:idx_s + nb] = -1.0  # maximize served demand
    lo = np.zeros(ncols)
    hi = np.zeros(ncols)
    zf = z.astype(float)
    hi[idx_s:idx_s + nb] = g.demand * zf
    hi[idx_g:idx_g + nb] = g.gen_max * zf
    lo[idx_a:idx_a + nb] = np.where(z, -math.pi, 0.0)
    hi[idx_a:idx_a + nb] = np.where(z, math.pi, 0.0)
    both_on = z[g.head_idx] & z[g.tail_idx]
    cap = np.where(both_on, np.array([r.capacity for r in g.branches]), 0.0)
    lo[idx_e:idx_e + nr] = -cap
    hi[idx_e:idx_e + nr] = cap
    for comp in dfs_components(g, z):
        ref = min(comp, key=lambda i: g.bus_ids[i])
        lo[idx_a + ref] = hi[idx_a + ref] = 0.0
    prob = LpProblem.with_bounds(c, lo, hi)
    out_rows = [[] for _ in range(nb)]
    in_rows = [[] for _ in range(nb)]
    for r_i in range(nr):
        out_rows[g.head_idx[r_i]].append(r_i)
        in_rows[g.tail_idx[r_i]].append(r_i)
    for j in range(nb):
        coeffs = {idx_s + j: 1.0, idx_g + j: -1.0}
        for r_i in out_rows[j]:
            coeffs[idx_e + r_i] = coeffs.get(idx_e + r_i, 0.0) + 1.0
        for r_i in in_rows[j]:
            coeffs[idx_e + r_i] = coeffs.get(idx_e + r_i, 0.0) - 1.0
        prob.add_row(coeffs, "==", 0.0)
    for r_i, branch in enumerate(g.branches):
        if both_on[r_i]:
            prob.add_row({idx_e + r_i: 1.0,
                          idx_a + g.head_idx[r_i]: -branch.susceptance,
                          idx_a + g.tail_idx[r_i]: branch.susceptance}, "==", 0.0)
    return prob, (idx_s, idx_g, idx_a, idx_e)


def dict_row_component_lp(solver, buses, branches):
    """`RecourseSolver._component_lp` built the row-by-row way: one
    {column: value} dict per balance and flow row, appended by add_row.
    The dense block the solver builds must equal it byte for byte."""
    g = solver.grid
    nb, nr = len(buses), len(branches)
    idx_g, idx_a, idx_e = nb, 2 * nb, 3 * nb
    c = np.zeros(3 * nb + nr)
    c[:nb] = -1.0
    cap = np.array([r.capacity for r in g.branches])[branches]
    lo = np.concatenate([np.zeros(2 * nb), np.full(nb, -math.pi), -cap])
    hi = np.concatenate([g.demand[buses], g.gen_max[buses], np.full(nb, math.pi), cap])
    ref = idx_a + int(np.argmin(g.bus_ids[buses]))
    lo[ref] = hi[ref] = 0.0
    prob = LpProblem.with_bounds(c, lo, hi)
    prob.basis = ([prob.n_vars] + [k for k in range(idx_a, idx_e) if k != ref]
                  + list(range(idx_e, idx_e + nr)))
    pos = {j: k for k, j in enumerate(buses.tolist())}
    heads = [pos[j] for j in g.head_idx[branches].tolist()]
    tails = [pos[j] for j in g.tail_idx[branches].tolist()]
    balance = [{k: 1.0, idx_g + k: -1.0} for k in range(nb)]
    for r in range(nr):
        balance[heads[r]][idx_e + r] = 1.0
        balance[tails[r]][idx_e + r] = -1.0
    for coeffs in balance:
        prob.add_row(coeffs, "==", 0.0)
    for r in range(nr):
        b = g.branches[branches[r]].susceptance
        prob.add_row({idx_e + r: 1.0, idx_a + heads[r]: -b, idx_a + tails[r]: b}, "==", 0.0)
    return prob


def max_infeasibility_by_rows(prob, x):
    """Largest row or bound violation at x, one row at a time."""
    worst = max(0.0, float(np.max(prob.lower - x, initial=0.0)),
                float(np.max(x - prob.upper, initial=0.0)))
    for row, sense, rhs in zip(prob.a, prob.senses, prob.rhs):
        ax = sum(float(v) * float(x[j]) for j, v in enumerate(row) if v != 0.0)
        viol = {"<=": ax - rhs, ">=": rhs - ax, "==": abs(ax - rhs)}[str(sense)]
        worst = max(worst, viol)
    return worst


def dfs_components(grid, z):
    """Connected components (sorted bus index lists) of the operational
    subgraph, by depth-first search from each live bus in index order."""
    alive = np.asarray(z, dtype=bool)
    adj = [[] for _ in range(grid.n_buses)]
    for h, t in zip(grid.head_idx, grid.tail_idx):
        if alive[h] and alive[t]:
            adj[h].append(t)
            adj[t].append(h)
    seen = np.zeros(grid.n_buses, dtype=bool)
    comps = []
    for start in range(grid.n_buses):
        if not alive[start] or seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def energized_components(grid, z):
    """(buses, branches) index arrays of each component of pattern z that
    has both demand and generation, the ones the recourse solver solves."""
    z = np.asarray(z, dtype=bool)
    both_on = z[grid.head_idx] & z[grid.tail_idx]
    out = []
    for comp in dfs_components(grid, z):
        buses = np.array(comp)
        if grid.demand[buses].any() and grid.gen_max[buses].any():
            out.append((buses, np.flatnonzero(both_on & np.isin(grid.head_idx, buses))))
    return out


def whole_pattern_shed(grid, z):
    """Shed of survival pattern z from the whole-grid LP."""
    prob, (idx_s, *_) = whole_pattern_lp(grid, z)
    sol = lp.solve_lp(prob)
    assert sol.status == lp.OPTIMAL, sol.status
    return float(grid.total_demand - sol.x[idx_s:idx_s + grid.n_buses].sum())


class LoopRatioSimplex(lp._Simplex):
    """The simplex with its ratio test written as one Python pass over
    every basis row; counts the pivots its 1e-12 tie-break decides."""

    ties = 0

    def _ratio_test(self, e, direction):
        w = self._ftran(self.A[:, e])
        delta = direction * w
        best_t = self.hi[e] - self.lo[e]
        if not np.isfinite(best_t):
            best_t = np.inf
        leave = -1
        hit_lower = False
        xb = self.x[self.basis]
        lob = self.lo[self.basis]
        hib = self.hi[self.basis]
        for i in range(self.m):
            di = delta[i]
            if di > lp._PIVOT_TOL:
                if not np.isfinite(lob[i]):
                    continue
                limit = (xb[i] - lob[i]) / di
                lower_side = True
            elif di < -lp._PIVOT_TOL:
                if not np.isfinite(hib[i]):
                    continue
                limit = (xb[i] - hib[i]) / di
                lower_side = False
            else:
                continue
            limit = max(limit, 0.0)
            if limit < best_t - 1e-12:
                best_t, leave, hit_lower = limit, i, lower_side
            elif leave >= 0 and abs(limit - best_t) <= 1e-12 and self.basis[i] < self.basis[leave]:
                leave, hit_lower = i, lower_side
                self.ties += 1
        return best_t, leave, hit_lower, w


class FreshSolveSimplex(lp._Simplex):
    """The simplex with every B^-1 product a fresh np.linalg.solve
    against the current basis columns, in place of the kept inverse."""

    def _ftran(self, a):
        return np.linalg.solve(self.A[:, self.basis], a)

    def _btran(self, c):
        return np.linalg.solve(self.A[:, self.basis].T, c)


def _per_pair_matching_function(marginal_i, marginal_j, degree):
    """One pair's map rho -> c(rho), evaluated alone: the first axis's
    half is built per pair and every rho rebuilds the second axis. An
    empirical second axis takes its moments through the slot weights
    w[m, k], the sum of wn[l] over the nodes (k, l) whose value is
    sample m, filled node by node with ``np.add.at``; its E[Y^2] sums
    the squared samples against the slot masses sum_k wn[k] w[m, k]."""
    x, wn = norta._gh_nodes(degree)
    sqrt2 = math.sqrt(2.0)

    def values(marginal, z):
        if isinstance(marginal, EmpiricalMarginal):
            return marginal.quantile_of_normal(z)
        return np.asarray(marginal.quantile(normal_cdf(z)), dtype=float)

    xi = values(marginal_i, sqrt2 * x)
    flat_i = xi.max() == xi.min()
    sw = float(wn.sum())
    wx = wn * xi
    ex = float(wx.sum()) * sw
    ex2 = float((wx * xi).sum()) * sw
    var_i = ex2 - ex * ex

    def c(rho):
        rho = min(1.0 - 1e-12, max(-1.0 + 1e-12, rho))
        shat = math.sqrt(max(0.0, 1.0 - rho * rho))
        z2 = np.add.outer(rho * x, shat * x)
        z2 *= sqrt2
        yj = values(marginal_j, z2)
        if flat_i or yj.max() == yj.min():
            return 0.0
        if isinstance(marginal_j, EmpiricalMarginal):
            idx = np.searchsorted(normal_score_thresholds(marginal_j.n), z2, side="right")
            w = np.zeros((marginal_j.n, x.size))
            np.add.at(w, (idx, np.arange(x.size)[:, None]), wn)
            v = marginal_j.sorted_values
            wy = (w * v[:, None]).sum(axis=0)
            ey2 = float(((w * wn).sum(axis=1) * (v * v)).sum())
        else:
            wy = yj @ wn
            ey2 = float((wn * ((yj * yj) @ wn)).sum())
        ey = float((wn * wy).sum())
        exy = float((wx * wy).sum())
        var_j = ey2 - ey * ey
        if var_i <= 0.0 or var_j <= 0.0:
            return 0.0
        c = (exy - ex * ey) / math.sqrt(var_i * var_j)
        return min(1.0, max(-1.0, c))

    return c


def per_pair_rho_z(marginal_i, marginal_j, target, *, tol, max_iter, degree, asked=None):
    """One pair's bisection, run to completion before the next pair.
    Each rho it evaluates c at is appended to the list `asked`, if given."""
    c_pair = _per_pair_matching_function(marginal_i, marginal_j, degree)

    def c_of(rho):
        if asked is not None:
            asked.append(rho)
        return c_pair(rho)

    lo, hi = -1.0 + 1e-6, 1.0 - 1e-6
    c_lo = c_of(lo)
    c_hi = c_of(hi)
    if c_hi - c_lo <= 1e-12:
        return RhoMatch(0.0, abs(target), False)
    if target <= c_lo:
        return RhoMatch(lo, abs(c_lo - target), target < c_lo)
    if target >= c_hi:
        return RhoMatch(hi, abs(c_hi - target), target > c_hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        c_mid = c_of(mid)
        if abs(c_mid - target) <= tol:
            return RhoMatch(mid, abs(c_mid - target), False)
        if c_mid < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9:
            break
    mid = 0.5 * (lo + hi)
    c_mid = c_of(mid)
    return RhoMatch(mid, abs(c_mid - target), False)


def per_pair_fit(s, *, degree=64, match_tol=1e-4, bisect_max_iter=200):
    """``norta.fit``'s sigma_z and report, matching one pair at a time.
    The work counters replay fit's rounds: round t evaluates every pair
    that asks for a t-th rho, once per distinct rho."""
    marginals, sigma_x = norta.estimate_inputs(s)
    n = len(marginals)
    sigma_z = np.eye(n)
    residual, clamped, asked = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            asked.append([])
            m = per_pair_rho_z(marginals[i], marginals[j], float(sigma_x[i, j]),
                               tol=match_tol, max_iter=bisect_max_iter, degree=degree,
                               asked=asked[-1])
            sigma_z[i, j] = sigma_z[j, i] = m.rho_z
            residual.append(m.residual)
            clamped.append(m.clamped)
    report = FitReport(np.array(residual, dtype=float), np.array(clamped, dtype=bool))
    rounds = itertools.zip_longest(*asked)
    report.rho_evaluations = sum(len(set(r) - {None}) for r in rounds)
    report.pair_evaluations = sum(map(len, asked))
    y = norta.nearest_correlation(sigma_z)
    report.repair_distance = float(np.linalg.norm(sigma_z - y))
    report.chol_jitter = norta._cholesky_with_jitter(y)[1]
    return sigma_z, report


def save_scenarios_per_row(s, path):
    """The scenario CSV as written one row and one cell at a time: the
    byte oracle for ``grid.save_scenarios``."""
    k = s.n_scenarios
    uniform = np.allclose(s.probs, 1.0 / k, rtol=0.0, atol=1e-15)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = [str(c) for c in s.columns]
        if not uniform:
            header.append("#prob")
        writer.writerow(header)
        for i in range(k):
            row = [str(int(round(v))) for v in s.scenarios[i]]
            if not uniform:
                row.append(repr(float(s.probs[i])))
            writer.writerow(row)
