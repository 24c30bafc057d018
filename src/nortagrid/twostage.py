"""Two-stage hardening: DC power-flow recourse and first-stage search.

First stage picks integer protection heights under a budget; recourse
maximizes served demand on the surviving network with a DC flow model
(generation limits, branch capacities, angle coupling on energized
branches, per-component angle reference). The big-M survival logic of
the original mixed-integer recourse is replaced by its closed form:
given protection x and water height delta, a bus survives iff x >= delta
-- equality keeps the bus up -- so the recourse is a plain LP per
scenario, split into one LP per energized component, and survival
patterns and components can be cached and shared across every
evaluation path (SAA, branch-and-bound bounds, out-of-sample sweeps).
Every path scores a whole batch of height vectors against all scenarios
with one lookup in a sorted table of survival patterns.

Most components never reach the simplex: the proportional copper-plate
dispatch, which serves min(total demand, total generation), is checked
against the line and angle bounds in closed form and, where it fits,
is optimal. Only components where a line or an angle binds run an LP.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lp
from .errors import RecourseError, ResourceLimitError, ValidationError
from .grid import (BUDGET_SLACK, GridInstance, HardeningPlan, _components,
                   _substation_survival)
from .norta import ScenarioSet
from .stats import spread

__all__ = [
    "OosReport",
    "RecourseSolution",
    "RecourseSolver",
    "TwoStageProblem",
    "budget_sweep",
    "evaluate_oos",
    "greedy_first_stage",
    "saa_objective",
    "solve_budgets",
    "solve_first_stage",
]

STAT_ROWS = ("SO estimate", "mean", "std", "min", "25%", "50%", "75%", "max")


@dataclass
class RecourseSolution:
    """Optimal second-stage operation for one survival pattern."""

    z: np.ndarray
    s: np.ndarray
    g: np.ndarray
    alpha: np.ndarray
    e: np.ndarray
    shed: float
    balance_residual: float


@dataclass
class TwoStageProblem:
    grid: GridInstance
    scenarios: ScenarioSet
    first_stage_cost: np.ndarray | None = None

    def __post_init__(self):
        _check_columns(self.grid, self.scenarios, "scenario")
        nf = len(self.grid.flooded_ids)
        if self.first_stage_cost is not None:
            c = np.asarray(self.first_stage_cost, dtype=float)
            if c.shape != (nf,):
                raise ValidationError("first_stage_cost must have one entry per flooded substation")
            if np.any(c < 0) or not np.all(np.isfinite(c)):
                raise ValidationError("first_stage_cost must be non-negative and finite")
            self.first_stage_cost = c

    def stage_cost(self, heights):
        if self.first_stage_cost is None:
            return 0.0
        return float(self.first_stage_cost @ np.asarray(heights))


def _check_columns(grid, scenarios, what):
    """Scenario columns must be the grid's flooded substations: as many,
    and, when the set names its column ids, the same ids in order."""
    ids = grid.flooded_ids
    if scenarios.dim != len(ids):
        raise ValidationError(
            f"{what} width {scenarios.dim} does not match {len(ids)} flooded substations")
    if scenarios.columns is not None and tuple(scenarios.columns) != ids:
        raise ValidationError(
            f"{what} columns ({', '.join(map(str, scenarios.columns))}) do not match "
            f"the grid's flooded substations ({', '.join(map(str, ids))})")


def _survival_key(alive):
    """Pattern-table key of substation survival: each row of a
    (..., n_flooded + 1) bool array from grid._substation_survival,
    packed 8 substations to a byte and viewed as one opaque np.void item.
    Keys compare, sort and search bytewise, so they are exact for any
    n_flooded; the always-True safe column keeps them at least one byte
    wide, even with no flooded substation."""
    packed = np.packbits(alive, axis=-1)
    return packed.view(np.dtype((np.void, packed.shape[-1])))[..., 0]


class _KeyTable:
    """Rows of values under np.void keys, kept sorted by key so that a
    whole batch of keys is found with one searchsorted. Keys compare
    bytewise, so they are exact at any width."""

    def __init__(self, width, row_shape=()):
        self.keys = np.empty(0, dtype=np.dtype((np.void, width)))
        self.values = np.empty((0, *row_shape))

    def _find(self, keys):
        pos = np.searchsorted(self.keys, keys)
        if not self.keys.size:
            return pos, np.zeros(keys.size, dtype=bool)
        # A key past the last entry compares against the last entry.
        return pos, self.keys.take(pos, mode="clip") == keys

    def positions(self, keys, compute):
        """Position in `values` of each of keys (1-D). Distinct keys not
        in the table yet are added first: compute gets the indices of
        their first occurrences in keys, in order of appearance, and
        returns their rows of values."""
        pos, hit = self._find(keys)
        if not hit.all():
            miss = np.flatnonzero(~hit)
            new = miss[np.sort(np.unique(keys[miss], return_index=True)[1])]
            values = np.concatenate([self.values, compute(new)])
            table = np.concatenate([self.keys, keys[new]])
            order = np.argsort(table, kind="stable")
            self.keys, self.values = table[order], values[order]
            pos = self._find(keys)[0]
        return pos


class RecourseSolver:
    """Solves recourse one energized component at a time, memoizing by
    survival pattern and by component.

    The LP depends on the scenario and plan only through which flooded
    substations survive, so one grid needs at most 2^|flooded| distinct
    patterns no matter how many (plan, scenario) pairs are evaluated.
    Their sheds live in one table, sorted by _survival_key, that `sheds`
    searches a whole batch at a time.
    The connected components of a pattern's operational network share
    no constraint (every balance row, flow row and angle reference stays
    inside one), so each is solved on its own, cached by its bus mask
    and shared by every pattern that contains it; a component with no
    generator or no demand serves exactly 0 and needs no solve.

    Each component is first certified by its copper-plate point (see
    _copper_plate_x); only where that point breaks a line or an angle
    bound does the component's LP run. `certified` and `lp_solves`
    count the two routes, one per component-cache miss; `bb_nodes`
    counts the nodes of every solve_first_stage search run on it.
    """

    def __init__(self, grid: GridInstance):
        self.grid = grid
        self._susceptance = np.array([r.susceptance for r in grid.branches])
        self._capacity = np.array([r.capacity for r in grid.branches])
        self._patterns = _KeyTable(len(grid.flooded_ids) // 8 + 1)  # _survival_key -> shed
        self._component_cache: dict[bytes, np.ndarray] = {}
        self.certified = 0
        self.lp_solves = 0
        self.bb_nodes = 0

    def _layout(self, buses, branches):
        """Position of the angle reference (the lowest-id bus) and of each
        branch's head and tail within a component's sorted buses."""
        g = self.grid
        return (int(np.argmin(g.bus_ids[buses])), np.searchsorted(buses, g.head_idx[branches]),
                np.searchsorted(buses, g.tail_idx[branches]))

    def _component_lp(self, buses, branches):
        """Max-served-demand LP of one energized component: its buses
        (sorted indices) and the branches between them. Columns are
        served, generated and angle per bus, then flow per branch; the
        angle reference is the component's lowest-id bus."""
        g = self.grid
        nb, nr = len(buses), len(branches)
        idx_g, idx_a, idx_e = nb, 2 * nb, 3 * nb
        c = np.zeros(3 * nb + nr)
        c[:nb] = -1.0  # maximize served demand
        cap = self._capacity[branches]
        lo = np.concatenate([np.zeros(2 * nb), np.full(nb, -math.pi), -cap])
        hi = np.concatenate([g.demand[buses], g.gen_max[buses], np.full(nb, math.pi), cap])
        ref, heads, tails = self._layout(buses, branches)
        ref += idx_a
        lo[ref] = hi[ref] = 0.0
        # Rows: balance per bus (served - generated + flow out - flow in
        # = 0), then flow per branch (flow - b (angle_head - angle_tail) = 0).
        k, r = np.arange(nb), np.arange(nr)
        b = self._susceptance[branches]
        a = np.zeros((nb + nr, 3 * nb + nr))
        a[k, k] = 1.0
        a[k, idx_g + k] = -1.0
        a[heads, idx_e + r] = 1.0
        a[tails, idx_e + r] = -1.0
        a[nb + r, idx_e + r] = 1.0
        a[nb + r, idx_a + heads] = -b
        a[nb + r, idx_a + tails] = b
        # Start basis at x = 0: the slack of balance row 0, every other
        # angle and every flow. Eliminating the flows leaves the reduced
        # Laplacian beside e_0, which is nonsingular on a connected
        # component since e_0 is not in the range of the Laplacian.
        basis = np.concatenate([[c.size], np.delete(np.arange(idx_a, idx_e), ref - idx_a),
                                idx_e + r])
        return lp.LpProblem(c.size, c, lo, hi, a, np.full(nb + nr, "=="), np.zeros(nb + nr),
                            basis)

    def _copper_plate_x(self, buses, branches):
        """Optimal point of the component's LP in closed form, or None
        where a line or an angle bound would cut it off.

        Summing the balance rows cancels every flow, so any feasible
        point has sum(s) = sum(g) <= G, and sum(s) <= D; no point serves
        more than min(D, G), with D and G the component's total demand
        and generation. The proportional dispatch (s = d and g = gmax D/G
        when D <= G, else s = d G/D and g = gmax) serves exactly that.
        Its angles solve the reduced Laplacian with the angle at the
        lowest-id bus fixed to 0, as in the LP, and flows follow as
        b (angle_head - angle_tail). If every flow is within its capacity
        and every angle within [-pi, pi] (the LP's own bounds, compared
        exactly), and every balance row holds within lp.FEAS_TOL (the
        tolerance the simplex's answer is held to), the point is feasible
        and attains the bound, so it is optimal. Columns are laid out as
        in _component_lp.
        """
        g = self.grid
        nb, nr = len(buses), len(branches)
        d, gmax = g.demand[buses], g.gen_max[buses]
        total_d, total_g = d.sum(), gmax.sum()
        if total_d <= total_g:
            s, gen = d, gmax * (total_d / total_g)
        else:
            s, gen = d * (total_g / total_d), gmax
        ref, heads, tails = self._layout(buses, branches)
        b = self._susceptance[branches]
        incidence = np.zeros((nr, nb))
        incidence[np.arange(nr), heads] = 1.0
        incidence[np.arange(nr), tails] = -1.0
        laplacian = incidence.T @ (b[:, None] * incidence)
        free = np.arange(nb) != ref
        theta = np.zeros(nb)
        theta[free] = np.linalg.solve(laplacian[np.ix_(free, free)], (gen - s)[free])
        e = b * (incidence @ theta)
        residual = np.abs(s - gen + incidence.T @ e).max()
        if (np.all(np.abs(e) <= self._capacity[branches]) and np.all(np.abs(theta) <= math.pi)
                and residual <= lp.FEAS_TOL):
            return np.concatenate([s, gen, theta, e])
        return None

    def _component_x(self, buses, branches):
        """Optimal point of one energized component, cached by its bus
        mask: the copper-plate point where it is certified, else the LP's."""
        mask = np.zeros(self.grid.n_buses, dtype=bool)
        mask[buses] = True
        key = np.packbits(mask).tobytes()
        x = self._component_cache.get(key)
        if x is None:
            x = self._copper_plate_x(buses, branches)
            if x is not None:
                self.certified += 1
            else:
                self.lp_solves += 1
                sol = lp.solve_lp(self._component_lp(buses, branches))
                if sol.status != lp.OPTIMAL:
                    raise RecourseError(
                        f"recourse LP finished with status {sol.status} (energized "
                        f"component of {len(buses)}/{self.grid.n_buses} buses)",
                        lp_status=sol.status)
                x = sol.x
            self._component_cache[key] = x
        return x

    def solve_topology(self, z) -> RecourseSolution:
        """Full recourse solution for one survival pattern, scattered from
        its components' optimal points; served demand is summed over the
        components in order of their lowest bus index."""
        z = np.asarray(z, dtype=bool)
        g = self.grid
        nb = g.n_buses
        s, gen, alpha = np.zeros(nb), np.zeros(nb), np.zeros(nb)
        e = np.zeros(len(g.branches))
        served = 0.0
        for buses, branches in _components(g, z):
            if not (g.demand[buses].any() and g.gen_max[buses].any()):
                continue  # serves exactly 0
            x = self._component_x(buses, branches)
            n = len(buses)
            s[buses] = x[:n]
            gen[buses] = x[n:2 * n]
            alpha[buses] = x[2 * n:3 * n]
            e[branches] = x[3 * n:]
            served += float(x[:n].sum())
        shed = float(g.total_demand - served)
        flow = np.zeros(nb)
        np.add.at(flow, g.head_idx, e)
        np.add.at(flow, g.tail_idx, -e)
        residual = float(np.max(np.abs(flow - gen + s), initial=0.0))
        return RecourseSolution(z=z, s=s, g=gen, alpha=alpha, e=e, shed=shed,
                                balance_residual=residual)

    def shed_for_topology(self, z) -> float:
        """Shed of one bus-level survival pattern z, solved on the
        component cache; `sheds` calls it once per new pattern."""
        return self.solve_topology(z).shed

    def sheds(self, heights, deltas) -> np.ndarray:
        """Shed under every pair of a height vector and a scenario row of
        deltas (K x flooded): K values for one vector, C x K for a
        C x flooded batch."""
        alive = _substation_survival(np.asarray(heights)[..., None, :], deltas)
        return self.pattern_sheds(alive, np.arange(len(deltas)))

    def pattern_sheds(self, alive, scenario) -> np.ndarray:
        """Shed of each substation-survival row of alive (..., flooded + 1,
        as from grid._substation_survival), from the pattern table. One
        searchsorted finds every hit; each distinct miss goes once
        through shed_for_topology, in order of first appearance, and a
        failing LP raises RecourseError naming the row's entry of
        scenario (broadcast over alive's leading axes) as scenario_index."""
        keys = _survival_key(alive)
        flat = alive.reshape(-1, alive.shape[-1])
        scenario = np.broadcast_to(scenario, keys.shape)

        def solve(new):
            sheds = []
            for j in new:
                try:
                    sheds.append(self.shed_for_topology(flat[j, self.grid.bus_flood_pos]))
                except RecourseError as exc:
                    raise RecourseError(str(exc), lp_status=exc.lp_status,
                                        scenario_index=int(scenario.flat[j])) from exc
            return sheds

        pos = self._patterns.positions(keys.ravel(), solve)
        return self._patterns.values[pos].reshape(keys.shape)


class _SaaEvaluator:
    """Scenario-averaged shed for batches of height vectors, on a shared
    solver."""

    def __init__(self, problem: TwoStageProblem, solver: RecourseSolver):
        self.problem = problem
        self.solver = solver
        self.deltas = problem.scenarios.scenarios
        self.probs = problem.scenarios.probs

    def mean_shed(self, heights):
        """sum_k p_k shed_k for each row of heights (C x flooded)."""
        return self.average(self.solver.sheds(heights, self.deltas))

    def average(self, sheds):
        """sum_k p_k sheds[c, k] for each row of a C x K array, accumulated
        left to right from 0.0. The summation order is part of the value:
        cumsum adds in sequence, where a sum, dot or @ could reorder, so
        no value depends on the batch it is in, and a row that is no
        larger entry by entry never averages larger."""
        acc = np.zeros((sheds.shape[0], sheds.shape[1] + 1))
        np.multiply(self.probs, sheds, out=acc[:, 1:])
        return np.cumsum(acc, axis=1)[:, -1]

    def objective(self, heights):
        """First-stage cost plus mean shed of each row, as floats."""
        stage = np.array([self.problem.stage_cost(h) for h in heights])
        return (stage + self.mean_shed(heights)).tolist()


def saa_objective(problem: TwoStageProblem, plan: HardeningPlan, *, solver=None):
    """First-stage cost plus probability-weighted recourse shed."""
    plan.check_feasible(problem.grid, budget=math.inf)
    solver = solver or RecourseSolver(problem.grid)
    return _SaaEvaluator(problem, solver).objective(plan.heights[None])[0]


def _search_data(problem: TwoStageProblem):
    grid = problem.grid
    flooded = grid.flooded_substations()
    nf = len(flooded)
    heights_mat = problem.scenarios.scenarios
    # The least height that survives every scenario; a fractional flood
    # height delta needs ceil(delta), as in _WaitAndSee.
    max_h = (np.maximum(np.ceil(heights_mat.max(axis=0)), 0.0).astype(int)
             if heights_mat.size else np.zeros(nf, dtype=int))
    caps = np.minimum(np.array([s.max_height for s in flooded], dtype=int), max_h)
    fixed = np.array([s.fixed_cost for s in flooded])[:, None]
    var = np.array([s.var_cost for s in flooded])[:, None]
    # level[i, h]: cost of height h at substation i (0 at h = 0, inf above
    # its cap), the same float as HardeningPlan.cost's fixed + var * h.
    hs = np.arange(caps.max(initial=0) + 1)
    level = np.where(hs <= caps[:, None], fixed * (hs >= 1) + var * hs, np.inf)
    return nf, caps, max_h, level


def _check_budget(budget):
    if not 0 <= budget < math.inf:  # also rejects nan
        raise ValidationError(f"budget must be a finite number >= 0, got {budget!r}")


def _check_node_budget(node_budget):
    if not isinstance(node_budget, (int, np.integer)) or node_budget < 1:
        raise ValidationError(f"node_budget must be an integer >= 1, got {node_budget!r}")


class _WaitAndSee:
    """Wait-and-see bound of branch-and-bound nodes (Madansky 1960):
    every scenario protects, out of the substations the node leaves
    undecided, the affordable set that sheds least in that scenario.

    With the first n_dec substations of the search order decided,
    scenario k fixes which decided substations survive. An undecided
    substation i survives for free where delta_ki <= 0, is "needy"
    where its lowest surviving height need_ki = ceil(delta_ki) is
    within its cap, and otherwise cannot survive. m_k is the least shed
    over the subsets S of needy substations whose cost, the sum of
    level[i, need_ki], fits the budget left. Any leaf under the node
    protects, in scenario k, exactly one such S, and S costs no more
    than the leaf's own heights (costs rise with height), so m_k is at
    most the leaf's shed. No monotonicity of shed in protection is
    needed.

    For each n_dec the subsets of every scenario are enumerated once,
    under the whole budget and in order of cost; only affordable
    subsets are ever built. For each (scenario, survival of the
    decided substations) the running minimum of their sheds is kept,
    so a node's m_k is one gather at the number of subsets it affords.
    Subset costs are compared with one more BUDGET_SLACK than the
    search's own, which can only add subsets: a last-bit difference in
    a sum never drops the subset of a leaf the search would visit.
    """

    def __init__(self, evaluator, order, caps, level, limit):
        self.evaluator = evaluator
        self.order = order
        self.limit = limit + BUDGET_SLACK
        deltas = evaluator.deltas
        need = np.ceil(deltas)
        needy = (need >= 1) & (need <= caps)
        subs = np.arange(len(caps))
        self.need_cost = np.where(needy, level[subs, np.where(needy, need, 0).astype(int)],
                                  np.inf)
        self.free = need <= 0
        k = len(deltas)
        # Scenario index, 4 bytes big-endian, leads each cache key.
        self.scenario_bytes = np.arange(k, dtype=">u4").view(np.uint8).reshape(k, 4)
        self.tables = {}  # n_dec -> (costs, alive, _KeyTable)

    def _subsets(self, n_dec):
        """Affordable subsets of needy undecided substations per scenario,
        cheapest first: their costs (K x T, padded with inf) and
        survival rows (K x T x flooded + 1: the subset, the free
        undecided substations and the safe bit alive, every decided
        substation dead), with T the most any scenario has."""
        k, nf = self.need_cost.shape
        scen = np.arange(k)
        cost = np.zeros(k)
        alive = np.zeros((k, nf + 1), dtype=bool)
        alive[:, -1] = True
        undecided = self.order[n_dec:]
        alive[:, undecided] = self.free[:, undecided]
        for i in undecided:
            add = np.flatnonzero(cost + self.need_cost[scen, i] <= self.limit)
            grown = alive[add]
            grown[:, i] = True
            cost = np.concatenate([cost, cost[add] + self.need_cost[scen[add], i]])
            scen = np.concatenate([scen, scen[add]])
            alive = np.concatenate([alive, grown])
        by = np.lexsort((cost, scen))
        scen, cost, alive = scen[by], cost[by], alive[by]
        count = np.bincount(scen, minlength=k)
        rank = np.arange(scen.size) - np.repeat(np.cumsum(count) - count, count)
        costs = np.full((k, count.max()), np.inf)
        costs[scen, rank] = cost
        padded = np.repeat(alive[rank == 0][:, None], count.max(), axis=1)
        padded[scen, rank] = alive
        return costs, padded

    def _table(self, n_dec):
        if n_dec not in self.tables:
            costs, alive = self._subsets(n_dec)
            width = 4 + (n_dec + 7) // 8
            self.tables[n_dec] = costs, alive, _KeyTable(width, costs.shape[1:])
        return self.tables[n_dec]

    def __call__(self, n_dec, rows, left):
        """Bound of each row of heights (C x flooded: the first n_dec
        substations of the order decided, the rest 0) with left[c] of
        the budget still to spend: its stage cost plus sum_k p_k m_k."""
        costs, alive, table = self._table(n_dec)
        deltas = self.evaluator.deltas
        decided = self.order[:n_dec]
        prefix = rows[:, None, decided] >= deltas[:, decided]  # C x K x n_dec
        code = np.empty(prefix.shape[:2] + (table.keys.itemsize,), dtype=np.uint8)
        code[..., :4] = self.scenario_bytes
        code[..., 4:] = np.packbits(prefix, axis=-1)
        keys = code.view(np.dtype((np.void, code.shape[-1])))[..., 0].ravel()

        def running_min(new):
            c, k = np.divmod(new, len(deltas))
            patterns = alive[k].copy()
            patterns[:, :, decided] = prefix[c, k][:, None]
            sheds = self.evaluator.solver.pattern_sheds(patterns, k[:, None])
            return np.minimum.accumulate(sheds, axis=1)

        pos = table.positions(keys, running_min).reshape(prefix.shape[:2])
        affords = np.count_nonzero(costs <= (left + BUDGET_SLACK)[:, None, None], axis=2)
        m = table.values[pos, affords - 1]
        stage = np.array([self.evaluator.problem.stage_cost(r) for r in rows])
        return (stage + self.evaluator.average(m)).tolist()


def solve_first_stage(problem: TwoStageProblem, budget=None, *,
                      node_budget=10 ** 6, solver=None):
    """Exact first stage by depth-first branch-and-bound.

    Substations are explored in order of descending worst-case flood
    height, each child of a node raising the next one to a height from
    min(max_height, worst scenario height) -- taller protection is
    dominated -- down to 0, tallest first, so that a strong incumbent
    appears on the first path down. A node scores all its children in
    one batch: at the last level their leaves' objectives, elsewhere
    their wait-and-see bounds (see _WaitAndSee). That bound is at most
    the objective of every leaf under the child, on any grid, with no
    assumption that shed falls as protection rises, and its float value
    is too (per-scenario sheds no larger, averaged in the same order,
    plus the stage cost of a prefix of the leaf's heights), so pruning
    on bound > incumbent is exact. Pruning is strict so
    tying optima survive; among them the lexicographically smallest
    height vector is returned, with its SAA value.

    solver.bb_nodes counts the nodes visited. Past node_budget nodes
    the search stops with ResourceLimitError, which carries the best
    plan so far, its value, the root bound and the nodes visited.
    """
    grid = problem.grid
    if budget is None:
        budget = grid.budget
    _check_budget(budget)
    _check_node_budget(node_budget)
    solver = solver or RecourseSolver(grid)
    evaluator = _SaaEvaluator(problem, solver)
    nf, caps, max_h, level = _search_data(problem)
    order = np.argsort(-max_h, kind="stable")

    if nf == 0:
        plan = HardeningPlan(np.zeros(0, dtype=int))
        return plan, evaluator.objective(plan.heights[None])[0]

    x = np.zeros(nf, dtype=int)
    best_val = math.inf
    best_x = None
    nodes = 0
    limit = budget + BUDGET_SLACK
    bound = _WaitAndSee(evaluator, order, caps, level, limit)
    root_bound = bound(0, x[None], np.array([limit]))[0]
    # Heights above a cap cost inf, so each row ends where its cap does.
    level_rows = level.tolist()

    def dfs(depth, cost, value):
        """value: a leaf's objective, or the node's bound."""
        nonlocal best_val, best_x, nodes
        if nodes == node_budget:
            found = best_x is not None
            raise ResourceLimitError(
                f"branch-and-bound exceeded {node_budget} nodes at budget {budget:g}; "
                "consider greedy_first_stage for an approximate plan",
                plan=HardeningPlan(best_x) if found else None,
                value=best_val if found else None, bound=root_bound, nodes=nodes)
        nodes += 1
        if depth == nf:
            if value < best_val or (value == best_val and tuple(x) < tuple(best_x)):
                best_val = value
                best_x = x.copy()
            return
        # Strict comparison keeps tying optima alive for the
        # lexicographic tie-break.
        if value > best_val:
            return
        i = order[depth]
        costs = []
        for step in level_rows[i]:
            if cost + step > limit:
                break
            costs.append(cost + step)
        rows = np.repeat(x[None], len(costs), axis=0)
        rows[:, i] = np.arange(len(costs))
        if depth == nf - 1:
            values = evaluator.objective(rows)
        else:
            values = bound(depth + 1, rows, limit - np.array(costs))
        for h in reversed(range(len(costs))):
            x[i] = h
            dfs(depth + 1, costs[h], values[h])

    try:
        dfs(0, 0.0, root_bound)
    finally:
        solver.bb_nodes += nodes
        # dfs refers to itself, so without this its closure, the bound's
        # tables included, would live until the next cycle collection.
        del dfs
    assert best_x is not None
    return HardeningPlan(best_x), best_val


def greedy_first_stage(problem: TwoStageProblem, budget=None, *, solver=None):
    """Budget-feasible plan by best shed-reduction per unit cost.

    Each move raises one substation from its current height to any
    affordable higher level (shed is a step function of height, so
    single-unit moves would stall on plateaus). The move with the best
    objective reduction per unit of extra cost wins, ties going to the
    smallest substation index and then the lowest target height, until
    nothing affordable improves. Each round scores all its affordable
    moves in one batch. Returns (plan, SAA objective), same shape as
    solve_first_stage. With one flooded substation every feasible height
    is a single move away, so the result matches the exact solver.
    """
    grid = problem.grid
    if budget is None:
        budget = grid.budget
    _check_budget(budget)
    solver = solver or RecourseSolver(grid)
    evaluator = _SaaEvaluator(problem, solver)
    nf, caps, _, level = _search_data(problem)
    x = np.zeros(nf, dtype=int)
    current = evaluator.objective(x[None])[0]
    while True:
        spent = sum(level[i, x[i]] for i in range(nf))
        moves = []  # (index, target height, extra cost), in scan order
        for i in range(nf):
            for h in range(x[i] + 1, caps[i] + 1):
                extra = level[i, h] - level[i, x[i]]
                if spent + extra > budget + BUDGET_SLACK:
                    break
                moves.append((i, h, extra))
        rows = np.repeat(x[None], len(moves), axis=0)
        for row, (i, h, _) in zip(rows, moves):
            row[i] = h
        best = None  # (ratio, index, target height, value)
        for (i, h, extra), val in zip(moves, evaluator.objective(rows)):
            reduction = current - val
            if reduction <= 1e-12:
                continue
            ratio = reduction / max(extra, 1e-12)
            if best is None or ratio > best[0] + 1e-15:
                best = (ratio, i, h, val)
        if best is None:
            break
        _, i, h, val = best
        x[i] = h
        current = val
    return HardeningPlan(x), current


@dataclass
class OosReport:
    """Out-of-sample shed statistics for one plan (Table-style layout)."""

    m: int
    mean: float
    std: float
    min: float
    q25: float
    q50: float
    q75: float
    max: float
    v_oos: float
    first_stage_cost: float
    so_estimate: float | None = None
    budget: float | None = None
    plan: HardeningPlan | None = None

    def stat_values(self):
        """Values aligned with STAT_ROWS; None for a missing SO estimate."""
        return (self.so_estimate, self.mean, self.std, self.min,
                self.q25, self.q50, self.q75, self.max)

    def to_dict(self):
        d = {"m": self.m, **dict(zip(STAT_ROWS[1:], self.stat_values()[1:])),
             "v_oos": self.v_oos, "first_stage_cost": self.first_stage_cost}
        if self.so_estimate is not None:
            d["so_estimate"] = self.so_estimate
        if self.budget is not None:
            d["budget"] = self.budget
        if self.plan is not None:
            d["heights"] = [int(v) for v in self.plan.heights]
        return d


def evaluate_oos(problem: TwoStageProblem, plan: HardeningPlan,
                 synthetic: ScenarioSet, *, solver=None) -> OosReport:
    """Evaluate a fixed plan on out-of-sample scenarios.

    The mean is probability-weighted, which under the uniform 1/M
    weights of generated sets is the plain out-of-sample average; the
    spread statistics are stats.spread of the raw shed sample.
    """
    grid = problem.grid
    _check_columns(grid, synthetic, "synthetic")
    plan.check_feasible(grid, budget=math.inf)
    solver = solver or RecourseSolver(grid)
    sheds = solver.sheds(plan.heights, synthetic.scenarios)
    mean = float(synthetic.probs @ sheds)
    std, lo, q25, q50, q75, hi = spread(sheds)
    fs_cost = problem.stage_cost(plan.heights)
    return OosReport(m=synthetic.n_scenarios, mean=mean, std=std, min=lo,
                     q25=q25, q50=q50, q75=q75, max=hi,
                     v_oos=fs_cost + mean, first_stage_cost=fs_cost, plan=plan)


def solve_budgets(budgets, step):
    """[step(b) for b in sorted(budgets)]; a step stopped by its node
    budget raises with the finished steps' results as `reports`."""
    done = []
    for budget in sorted(budgets):
        try:
            done.append(step(budget))
        except ResourceLimitError as exc:
            exc.reports = done
            raise
    return done


def budget_sweep(problem: TwoStageProblem, budgets, synthetic: ScenarioSet,
                 *, node_budget=10 ** 6, solver=None):
    """Solve-then-evaluate across budgets; reports ordered by budget.

    One recourse cache is shared across the whole sweep, so repeated
    survival patterns are solved once. If a budget's search hits
    node_budget, its ResourceLimitError also carries the reports of the
    budgets finished before it (`reports`).
    """
    budgets = [float(b) for b in budgets]
    if not budgets:
        raise ValidationError("need at least one budget")
    # Check every option before the first solve, not when its turn comes.
    for b in budgets:
        _check_budget(b)
    _check_node_budget(node_budget)
    _check_columns(problem.grid, synthetic, "synthetic")
    solver = solver or RecourseSolver(problem.grid)

    def step(budget):
        plan, so = solve_first_stage(problem, budget, node_budget=node_budget, solver=solver)
        return replace(evaluate_oos(problem, plan, synthetic, solver=solver),
                       so_estimate=so, budget=budget)

    return solve_budgets(budgets, step)
