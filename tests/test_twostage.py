"""Recourse LP, SAA search, greedy, and out-of-sample evaluation.

The two-bus examples are solvable by hand. One wrinkle worth spelling
out: phase angles live in [-pi, pi], so a branch with susceptance B can
never carry more than B*pi away from the slack bus. With B = 1 a 5 MW
demand behind a 10 MW line sheds 5 - pi; raising B to 10 restores the
intuitive zero-shed answer. Both variants are pinned below.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    braess_grid,
    energized_components,
    enumerate_first_stage,
    pattern_table,
    per_move_greedy,
    per_node_first_stage,
    per_scenario_mean_shed,
    small_instance,
    star_grid,
    two_bus_grid,
    uniform_scenarios,
    whole_pattern_shed,
)
from nortagrid import lp
from nortagrid.errors import RecourseError, ResourceLimitError, ValidationError
from nortagrid.grid import (
    Branch,
    Bus,
    GridInstance,
    HardeningPlan,
    InstanceSpec,
    Substation,
    generate_instance,
    operational_topology,
)
from nortagrid.norta import ScenarioSet
from nortagrid.twostage import (
    STAT_ROWS,
    RecourseSolver,
    TwoStageProblem,
    budget_sweep,
    evaluate_oos,
    greedy_first_stage,
    saa_objective,
    solve_first_stage,
)
from nortagrid.twostage import _SaaEvaluator, _survival_key


def check_solution_invariants(grid, sol):
    nb = grid.n_buses
    assert sol.s.shape == (nb,)
    assert np.all(sol.s >= -1e-9)
    assert np.all(sol.s <= grid.demand * sol.z + 1e-9)
    assert np.all(sol.g >= -1e-9)
    assert np.all(sol.g <= grid.gen_max * sol.z + 1e-9)
    assert sol.z.dtype == bool and sol.z.shape == (nb,)
    assert np.all(np.abs(sol.alpha) <= math.pi + 1e-9)
    assert np.all(np.abs(sol.alpha[~sol.z.astype(bool)]) <= 1e-12)
    for r, br in enumerate(grid.branches):
        h, t = grid.head_idx[r], grid.tail_idx[r]
        both = bool(sol.z[h]) and bool(sol.z[t])
        assert abs(sol.e[r]) <= (br.capacity if both else 0.0) + 1e-7
        if both:
            drop = br.susceptance * (sol.alpha[h] - sol.alpha[t])
            assert sol.e[r] == pytest.approx(drop, abs=1e-7)
    assert sol.balance_residual <= 1e-7
    assert -1e-9 <= sol.shed <= grid.total_demand + 1e-9
    # dead buses shed their whole demand, so the gap is against total
    assert sol.shed == pytest.approx(grid.total_demand - sol.s.sum(), abs=1e-6)


class TestRecourse:
    def test_angle_bound_caps_the_weak_line(self):
        g = two_bus_grid(susceptance=1.0, capacity=10.0)
        z = operational_topology(g, HardeningPlan(np.array([1])), [1.0])
        sol = RecourseSolver(g).solve_topology(z)
        assert sol.shed == pytest.approx(5.0 - math.pi, abs=1e-7)
        check_solution_invariants(g, sol)

    def test_stiff_line_serves_everything(self):
        g = two_bus_grid(susceptance=10.0, capacity=10.0)
        z = operational_topology(g, HardeningPlan(np.array([1])), [1.0])
        sol = RecourseSolver(g).solve_topology(z)
        assert sol.shed == pytest.approx(0.0, abs=1e-9)
        assert abs(sol.e[0]) == pytest.approx(5.0, abs=1e-7)
        check_solution_invariants(g, sol)

    def test_dead_bus_sheds_its_demand(self):
        g = two_bus_grid(susceptance=10.0)
        z = operational_topology(g, HardeningPlan(np.array([0])), [1.0])
        sol = RecourseSolver(g).solve_topology(z)
        assert sol.shed == pytest.approx(5.0, abs=1e-9)
        assert sol.z.tolist() == [1, 0]
        assert sol.s[1] == 0.0
        assert abs(sol.e[0]) <= 1e-9
        check_solution_invariants(g, sol)

    def test_capacity_binds_before_demand(self):
        g = two_bus_grid(susceptance=10.0, capacity=3.0)
        z = operational_topology(g, HardeningPlan(np.array([1])), [1.0])
        sol = RecourseSolver(g).solve_topology(z)
        assert sol.shed == pytest.approx(2.0, abs=1e-7)
        check_solution_invariants(g, sol)

    def test_all_dead_grid_sheds_everything(self):
        g = star_grid(n_flooded=2)
        z = operational_topology(g, HardeningPlan(np.array([0, 0])), [1.0, 1.0])
        sol = RecourseSolver(g).solve_topology(z)
        # hub bus carries no demand, both demand buses are down
        assert sol.shed == pytest.approx(10.0, abs=1e-9)
        check_solution_invariants(g, sol)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(31)
        for trial in range(12):
            grid, scen = small_instance(1000 + trial)
            solver = RecourseSolver(grid)
            nf = len(grid.flooded_ids)
            caps = [grid.substation(s).max_height for s in grid.flooded_ids]
            for _ in range(4):
                plan = HardeningPlan(rng.integers(0, np.array(caps) + 1))
                k = int(rng.integers(0, scen.n_scenarios))
                z = np.asarray(
                    plan.heights >= scen.scenarios[k], dtype=bool)
                pos = grid.bus_flood_pos
                zb = np.ones(grid.n_buses, dtype=bool)
                zb[pos >= 0] = z[pos[pos >= 0]]
                sol = solver.solve_topology(zb)
                check_solution_invariants(grid, sol)

    def test_solver_cache_returns_identical_floats(self):
        g = two_bus_grid(susceptance=1.0)
        solver = RecourseSolver(g)
        z1 = operational_topology(g, HardeningPlan(np.array([1])), [1.0])
        z2 = operational_topology(g, HardeningPlan(np.array([2])), [2.0])  # same z
        assert solver.shed_for_topology(z1) == solver.shed_for_topology(z2)


small_grids = st.builds(
    InstanceSpec,
    n_substations=st.integers(2, 6),
    n_flooded=st.just(1),
    buses_per_substation=st.integers(1, 3),
    topology=st.sampled_from(["ring", "tree", "grid"]),
    n_scenarios=st.just(1),
    gen_bus_fraction=st.floats(0.1, 0.9),
    # On grids this small a few components bind a line below ~0.7 and
    # about half at 0.1; bench-sized grids bind only below ~0.15.
    capacity_slack=st.floats(0.05, 1.5),
    seed=st.integers(0, 2 ** 31 - 1),
)


class TestComponentDecomposition:
    """Recourse solved per energized component against one LP over the
    whole grid (the oracle keeps dead buses as columns fixed at 0)."""

    @staticmethod
    def check_against_whole_grid(grid, z):
        sol = RecourseSolver(grid).solve_topology(z)
        assert sol.shed == pytest.approx(whole_pattern_shed(grid, z), abs=1e-9)
        check_solution_invariants(grid, sol)

    @settings(max_examples=60, deadline=None)
    @given(small_grids, st.data())
    def test_matches_whole_grid_lp(self, spec, data):
        grid, _ = generate_instance(spec)
        z = np.array(data.draw(st.lists(st.booleans(), min_size=grid.n_buses,
                                        max_size=grid.n_buses)), dtype=bool)
        self.check_against_whole_grid(grid, z)

    def test_split_patterns_with_binding_lines(self):
        # Tight lines and about 40% of the buses down: many patterns
        # split into several components, each certified or solved by its
        # own LP.
        rng = np.random.default_rng(5)
        split = 0
        for trial in range(25):
            grid, _ = generate_instance(InstanceSpec(
                n_substations=int(rng.integers(3, 7)), n_flooded=1,
                buses_per_substation=int(rng.integers(1, 4)),
                topology=["ring", "tree", "grid"][trial % 3], n_scenarios=1,
                capacity_slack=float(rng.uniform(0.05, 0.9)), seed=trial))
            z = rng.random(grid.n_buses) < 0.6
            self.check_against_whole_grid(grid, z)
            split += len(energized_components(grid, z)) >= 2
        assert split >= 5

    def test_component_without_generator_needs_no_lp(self, monkeypatch):
        # Hub bus 0 holds the only generator; with it down, buses 1 and 2
        # are isolated demand and serve nothing. Spokes of B = 1 cannot
        # carry the 5 MW demand within the angle bounds, so the component
        # {0, 1} is not certified and runs its LP.
        g = star_grid(n_flooded=2, susceptance=1.0)
        calls = []
        real = lp.solve_lp
        monkeypatch.setattr(lp, "solve_lp", lambda prob: calls.append(prob) or real(prob))
        solver = RecourseSolver(g)
        sol = solver.solve_topology(np.array([False, True, True]))
        assert calls == []
        assert sol.shed == g.total_demand
        assert not sol.s.any() and not sol.g.any() and not sol.e.any()
        check_solution_invariants(g, sol)
        # Bus 2 down: one component {0, 1} with an LP, one isolated bus.
        sol = solver.solve_topology(np.array([True, True, False]))
        assert len(calls) == 1 and calls[0].n_vars == 3 * 2 + 1
        assert sol.shed == pytest.approx(whole_pattern_shed(g, sol.z), abs=1e-9)
        check_solution_invariants(g, sol)

    def test_angle_reference_is_the_lowest_id_bus(self):
        # Weak lines (B = 1), so the angle bounds bind. With bus 0 down,
        # component {1, 2, 3} is the chain 2 - 1 - 3 with the generator in
        # the middle (index 1) and its lowest id (0) at index 3, an end.
        # Referenced there, the middle angle reaches pi and the far end
        # -pi: pi + 2 pi is served. A middle reference would serve 2 pi.
        subs = [Substation(i, True, 1.0, 1.0, 5) for i in range(4)]
        buses = [Bus(3, 0, 5.0, 0.0, 0.0), Bus(2, 1, 0.0, 0.0, 30.0),
                 Bus(1, 2, 10.0, 0.0, 0.0), Bus(0, 3, 10.0, 0.0, 0.0)]
        branches = [Branch(0, 3, 1, 1.0, 100.0), Branch(1, 1, 2, 1.0, 100.0),
                    Branch(2, 2, 0, 1.0, 100.0)]
        g = GridInstance(subs, buses, branches, reference_bus=0, budget=10.0)
        z = np.array([False, True, True, True])
        sol = RecourseSolver(g).solve_topology(z)
        assert sol.shed == pytest.approx(25.0 - 3.0 * math.pi, abs=1e-9)
        assert sol.shed == pytest.approx(whole_pattern_shed(g, z), abs=1e-9)
        assert sol.alpha[3] == 0.0
        check_solution_invariants(g, sol)

    def test_component_lp_is_shared_across_patterns(self, monkeypatch):
        # Chain 0-1-2-3-4-5 of weak lines (B = 1, so every component with
        # a line binds an angle and runs its LP) with generators at both
        # ends. Every pattern below has bus 2 down, so component {0, 1} is
        # solved once.
        subs = [Substation(i, True, 1.0, 1.0, 5) for i in range(6)]
        buses = [Bus(i, i, 5.0, 0.0, 20.0 if i in (0, 5) else 0.0) for i in range(6)]
        branches = [Branch(i, i, i + 1, 1.0, 100.0) for i in range(5)]
        g = GridInstance(subs, buses, branches, reference_bus=0, budget=10.0)
        calls = []
        real = lp.solve_lp
        monkeypatch.setattr(lp, "solve_lp", lambda prob: calls.append(prob) or real(prob))
        solver = RecourseSolver(g)
        solved = []
        for z, new_lps in (([1, 1, 0, 1, 1, 1], 2),   # {0, 1} and {3, 4, 5}
                           ([1, 1, 0, 1, 0, 1], 0),   # {3} has no generator, {5}
                                                      # alone is certified
                           ([1, 1, 0, 0, 1, 1], 1)):  # {4, 5}
            before = len(calls)
            sol = solver.solve_topology(np.array(z, dtype=bool))
            assert len(calls) - before == new_lps, z
            assert sol.shed == pytest.approx(whole_pattern_shed(g, sol.z), abs=1e-9)
            check_solution_invariants(g, sol)
            solved.append(sol)
        assert all(np.array_equal(sol.s[:2], solved[0].s[:2]) for sol in solved)


def congested_grid(rng, seed):
    """A small generated grid whose lines often bind (capacity_slack
    0.03-0.3)."""
    grid, _ = generate_instance(InstanceSpec(
        n_substations=int(rng.integers(3, 8)), n_flooded=1,
        buses_per_substation=int(rng.integers(1, 4)),
        topology=["ring", "tree", "grid"][seed % 3], n_scenarios=1,
        capacity_slack=float(rng.uniform(0.03, 0.3)), seed=seed))
    return grid


class TestCopperPlate:
    """The closed-form copper-plate certificate against the component LP
    it stands in for, and the route each component takes."""

    @settings(max_examples=60, deadline=None)
    @given(small_grids, st.data())
    def test_certified_points_are_lp_optimal(self, spec, data):
        grid, _ = generate_instance(spec)
        z = np.array(data.draw(st.lists(st.booleans(), min_size=grid.n_buses,
                                        max_size=grid.n_buses)), dtype=bool)
        solver = RecourseSolver(grid)
        sol = solver.solve_topology(z)
        check_solution_invariants(grid, sol)
        assert sol.shed == pytest.approx(whole_pattern_shed(grid, z), abs=1e-9)
        for buses, branches in energized_components(grid, z):
            x = solver._copper_plate_x(buses, branches)
            if x is None:
                continue
            prob = solver._component_lp(buses, branches)
            assert np.all(prob.lower <= x) and np.all(x <= prob.upper)  # exact
            assert lp._max_infeas(prob, x) <= lp.FEAS_TOL
            served = min(grid.demand[buses].sum(), grid.gen_max[buses].sum())
            assert x[:len(buses)].sum() == pytest.approx(served, rel=1e-12)
            assert prob.objective @ x == pytest.approx(lp.solve_lp(prob).objective, abs=1e-9)

    @pytest.mark.parametrize("susceptance, capacity, certified, shed", [
        (10.0, 10.0, True, 0.0),             # angle spread 0.5, flow 5 of 10
        (1.0, 10.0, False, 5.0 - math.pi),   # 5 MW needs an angle spread of 5 > pi
        (10.0, 3.0, False, 2.0),             # 5 MW over a 3 MW line
    ], ids=["stiff", "angle-binds", "capacity-binds"])
    def test_two_bus_routes(self, monkeypatch, susceptance, capacity, certified, shed):
        g = two_bus_grid(susceptance=susceptance, capacity=capacity)
        calls = []
        real = lp.solve_lp
        monkeypatch.setattr(lp, "solve_lp", lambda prob: calls.append(prob) or real(prob))
        solver = RecourseSolver(g)
        sol = solver.solve_topology(np.array([True, True]))
        assert (solver.certified, solver.lp_solves, len(calls)) == (
            int(certified), int(not certified), int(not certified))
        assert sol.shed == pytest.approx(shed, abs=1e-9)
        check_solution_invariants(g, sol)

    def test_counters_count_component_cache_entries(self):
        rng = np.random.default_rng(11)
        certified = lp_solves = 0
        for seed in range(12):
            grid = congested_grid(rng, seed)
            solver = RecourseSolver(grid)
            for _ in range(6):
                solver.solve_topology(rng.random(grid.n_buses) < 0.7)
            assert solver.certified + solver.lp_solves == len(solver._component_cache)
            certified += solver.certified
            lp_solves += solver.lp_solves
        assert certified > 0 and lp_solves > 0

    def test_lp_never_serves_more_than_copper_plate(self):
        # Summing the balance rows bounds served demand by min(D, G) on
        # every grid, congested or not.
        rng = np.random.default_rng(12)
        below = 0
        for seed in range(30):
            grid = congested_grid(rng, seed)
            solver = RecourseSolver(grid)
            for _ in range(3):
                for buses, branches in energized_components(grid, rng.random(grid.n_buses) < 0.8):
                    sol = lp.solve_lp(solver._component_lp(buses, branches))
                    bound = min(grid.demand[buses].sum(), grid.gen_max[buses].sum())
                    assert -sol.objective <= bound * (1.0 + 1e-12)
                    below += -sol.objective < bound - 1e-6
        assert below >= 30


class TestBatchedPatterns:
    """pattern_sheds solves a call's new patterns in one batch. Each must
    shed what solve_topology sheds for it alone, bit for bit, and the
    component routes must be counted as a one-at-a-time run counts them,
    so the manifests' `work` keeps its values."""

    @staticmethod
    def patterns(grid, rng, size):
        """size substation-survival rows (flooded + 1, the safe bit
        last), repeats and the all-dead and all-alive rows included."""
        nf = len(grid.flooded_ids)
        alive = rng.random((size, nf + 1)) < rng.uniform(0.2, 1.0, size=(size, 1))
        alive[:2, :-1] = [[False], [True]]
        alive[-3:] = alive[:3]
        alive[:, -1] = True
        return alive

    def test_batch_matches_one_at_a_time(self):
        routes = np.zeros(2, dtype=int)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            grid, _ = generate_instance(InstanceSpec(
                n_substations=int(rng.integers(4, 10)),
                n_flooded=int(rng.integers(2, 7)) // 2 * 2,
                buses_per_substation=int(rng.integers(1, 4)),
                topology=["ring", "tree", "grid"][seed % 3], n_scenarios=1,
                # Half the grids are congested, so some components run an LP.
                capacity_slack=float(rng.uniform(0.05, 0.3)) if seed % 2 else 1.2, seed=seed))
            alive = self.patterns(grid, rng, 60)
            batch = RecourseSolver(grid)
            got = batch.pattern_sheds(alive, np.arange(len(alive)))
            one = RecourseSolver(grid)
            want = []
            for row in alive:
                z = row[grid.bus_flood_pos]
                sol = one.solve_topology(z)
                served = 0.0  # left to right in order of lowest bus index
                for buses, _ in energized_components(grid, z):
                    served += float(sol.s[buses].sum())
                assert sol.shed == grid.total_demand - served, seed
                want.append(sol.shed)
            assert got.tolist() == want, seed
            assert (batch.certified, batch.lp_solves) == (one.certified, one.lp_solves), seed
            assert batch._component_cache.keys() == one._component_cache.keys(), seed
            routes += batch.certified, batch.lp_solves
        assert routes.all()  # both routes ran

    def test_batches_of_any_split_agree(self):
        # The same rows in one batch, in batches of one and in halves.
        grid, _ = generate_instance(InstanceSpec(
            n_substations=9, n_flooded=6, buses_per_substation=2, topology="grid",
            capacity_slack=0.1, seed=4))
        alive = self.patterns(grid, np.random.default_rng(2), 40)
        whole = RecourseSolver(grid).pattern_sheds(alive, 0)
        single = RecourseSolver(grid)
        halves = RecourseSolver(grid)
        assert [float(single.pattern_sheds(row, 0)) for row in alive] == whole.tolist()
        assert np.concatenate([halves.pattern_sheds(alive[:20], 0),
                               halves.pattern_sheds(alive[20:], 0)]).tolist() == whole.tolist()
        assert (single.certified, single.lp_solves) == (halves.certified, halves.lp_solves)

    def test_failing_lp_names_the_first_pattern_that_needs_it(self, monkeypatch):
        # Weak spokes: every component with a spoke runs its LP, and each
        # LP with a demand bus down fails. Scenarios 1 and 2 each leave
        # one such component; scenario 1 comes first in the batch.
        g = star_grid(n_flooded=2, susceptance=1.0)
        real = lp.solve_lp
        whole_grid_columns = 3 * g.n_buses + len(g.branches)

        def fail_when_bus_down(prob):
            sol = real(prob)
            if prob.n_vars < whole_grid_columns:
                return lp.LpSolution(lp.ITERATION_LIMIT, None, None, 0.0, sol.iterations)
            return sol

        monkeypatch.setattr(lp, "solve_lp", fail_when_bus_down)
        for deltas, first in (([[0, 0], [0, 3], [3, 0], [0, 3]], 1),
                              ([[0, 0], [0, 0], [3, 0], [0, 3]], 2)):
            with pytest.raises(RecourseError) as info:
                RecourseSolver(g).sheds(np.array([2, 2]), np.array(deltas, dtype=float))
            assert info.value.scenario_index == first
            assert info.value.lp_status == lp.ITERATION_LIMIT


class TestSaaObjective:
    def test_averages_over_scenarios(self):
        g = two_bus_grid(susceptance=10.0)
        scen = uniform_scenarios([[1.0], [0.0]], g.flooded_ids)
        prob = TwoStageProblem(g, scen)
        # plan 0: sheds are 5 (flooded) and 0 -> mean 2.5
        assert saa_objective(prob, HardeningPlan(np.array([0]))) == pytest.approx(2.5)

    def test_zero_flood_scenarios_cost_nothing(self):
        g = two_bus_grid(susceptance=10.0)
        scen = uniform_scenarios([[0.0], [0.0], [0.0]], g.flooded_ids)
        prob = TwoStageProblem(g, scen)
        assert saa_objective(prob, HardeningPlan.zero(g)) == pytest.approx(0.0)

    def test_includes_first_stage_cost(self):
        g = two_bus_grid(susceptance=10.0)
        scen = uniform_scenarios([[1.0]], g.flooded_ids)
        prob = TwoStageProblem(g, scen, first_stage_cost=np.array([2.0]))
        assert saa_objective(prob, HardeningPlan(np.array([3]))) == pytest.approx(6.0)

    def test_probability_weighting(self):
        g = two_bus_grid(susceptance=10.0)
        from nortagrid.norta import ScenarioSet
        scen = ScenarioSet([[1.0], [0.0]], [0.25, 0.75], columns=g.flooded_ids)
        prob = TwoStageProblem(g, scen)
        assert saa_objective(prob, HardeningPlan.zero(g)) == pytest.approx(1.25)


def oracle_pattern_table(problem, solver, plans):
    """{key: shed} of every (plan, scenario) pair, each pattern solved
    alone by shed_for_topology; the key is the flooded substations'
    survival with an always-True safe bit, packed 8 to a byte."""
    table = {}
    for h in plans:
        for delta in problem.scenarios.scenarios:
            key = np.packbits(np.append(np.asarray(h) >= delta, True)).tobytes()
            z = operational_topology(problem.grid, HardeningPlan(np.asarray(h)), delta)
            table[key] = solver.shed_for_topology(z)
    return table


class TestBatchedSaa:
    """The batched mean_shed against the one-scenario-at-a-time loop."""

    @staticmethod
    def assert_matches_oracle(problem, plans):
        oracle_solver = RecourseSolver(problem.grid)
        want = [per_scenario_mean_shed(problem, oracle_solver, h) for h in plans]
        want_table = oracle_pattern_table(problem, oracle_solver, plans)
        # One C x flooded batch, and one one-row batch per plan.
        whole = _SaaEvaluator(problem, RecourseSolver(problem.grid))
        got = whole.mean_shed(np.array(plans)).tolist()
        assert got == want  # bit for bit
        rows = _SaaEvaluator(problem, RecourseSolver(problem.grid))
        for h, w in zip(plans, want):
            got = rows.mean_shed(np.asarray(h)[None])[0]
            assert got == w, (list(h), got, w)
        assert pattern_table(whole.solver) == pattern_table(rows.solver) == want_table

    def test_random_instances(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            grid, scen = small_instance(700 + trial)
            caps = np.array([grid.substation(s).max_height for s in grid.flooded_ids])
            plans = [rng.integers(0, caps + 1) for _ in range(8)]
            self.assert_matches_oracle(TwoStageProblem(grid, scen), plans)

    def test_non_uniform_weights(self):
        rng = np.random.default_rng(18)
        for trial in range(6):
            grid, scen = small_instance(720 + trial)
            probs = rng.dirichlet(np.ones(scen.n_scenarios))
            weighted = ScenarioSet(scen.scenarios, probs / probs.sum(), columns=scen.columns)
            caps = np.array([grid.substation(s).max_height for s in grid.flooded_ids])
            plans = [rng.integers(0, caps + 1) for _ in range(6)]
            self.assert_matches_oracle(TwoStageProblem(grid, weighted), plans)

    def test_many_scenarios(self):
        # Past 8 scenarios a sum or dot would add in another order.
        rng = np.random.default_rng(20)
        for trial in range(6):
            grid, scen = small_instance(740 + trial, n_scenarios=24, capacity_slack=0.3)
            probs = rng.dirichlet(np.ones(scen.n_scenarios))
            weighted = ScenarioSet(scen.scenarios, probs / probs.sum(), columns=scen.columns)
            caps = np.array([grid.substation(s).max_height for s in grid.flooded_ids])
            plans = [rng.integers(0, caps + 1) for _ in range(6)]
            self.assert_matches_oracle(TwoStageProblem(grid, weighted), plans)

    def test_keys_stay_exact_past_64_buses(self):
        # 67 buses; only the last three flooded substations (buses 64-66)
        # ever go down, so patterns differ only past the first 64 bits.
        grid = star_grid(n_flooded=66)
        rng = np.random.default_rng(19)
        deltas = np.zeros((6, 66))
        deltas[:, -3:] = rng.integers(1, 4, size=(6, 3))
        problem = TwoStageProblem(grid, uniform_scenarios(deltas, grid.flooded_ids))
        plans = []
        for _ in range(4):
            h = np.zeros(66, dtype=int)
            h[-3:] = rng.integers(0, 4, size=3)
            plans.append(h)
        self.assert_matches_oracle(problem, plans)
        # 66 flooded substations and the safe bit: 67 bits in 9 bytes.
        alive = np.ones(67, dtype=bool)
        low, high = alive.copy(), alive.copy()
        low[63], high[65] = False, False
        keys = _survival_key(np.stack([alive, low, high]))
        assert keys.dtype.itemsize == 9
        assert len(set(keys.tolist())) == 3
        assert keys.tolist() == [_survival_key(row).tobytes() for row in (alive, low, high)]

    def test_no_flooded_substation_keys_one_byte(self):
        grid, scen = generate_instance(InstanceSpec(n_substations=2, n_flooded=0,
                                                    n_scenarios=3, seed=0))
        solver = RecourseSolver(grid)
        sheds = solver.sheds(np.zeros((2, 0), dtype=int), scen.scenarios)
        assert sheds.shape == (2, 3) and np.all(sheds == sheds[0, 0])
        assert solver._patterns.keys.tolist() == [b"\x80"]


class TestBatchedSearch:
    """solve_first_stage and greedy_first_stage, which score whole
    batches, against the one-vector-at-a-time searches in helpers."""

    @staticmethod
    def instances():
        rng = np.random.default_rng(23)
        for trial in range(24):
            # Every third instance binds lines, every other one has a
            # first-stage cost.
            slack = float(rng.uniform(0.03, 0.3)) if trial % 3 == 0 else 1.2
            grid, scen = small_instance(900 + trial, max_height=3, capacity_slack=slack)
            nf = len(grid.flooded_ids)
            cost = rng.uniform(0.0, 1.5, size=nf) if trial % 2 else None
            budget = float(rng.uniform(0.0, 12.0))
            yield TwoStageProblem(grid, scen, first_stage_cost=cost), budget
        # Symmetric spokes: many tied optima.
        g = star_grid(n_flooded=3)
        scen = uniform_scenarios([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], g.flooded_ids)
        for budget in (2.0, 3.0, 5.0, 7.5):
            yield TwoStageProblem(g, scen), budget

    def test_branch_and_bound_matches_per_node_search(self):
        certified = lp_solves = 0
        nodes_before = nodes_after = 0
        for problem, budget in self.instances():
            want_x, want_val, nodes = per_node_first_stage(problem, budget)
            solver = RecourseSolver(problem.grid)
            plan, val = solve_first_stage(problem, budget, solver=solver)
            assert tuple(plan.heights) == tuple(want_x)
            assert val == want_val  # bit for bit
            # The nodes the search reports are the nodes it needs.
            solve_first_stage(problem, budget, node_budget=solver.bb_nodes)
            if solver.bb_nodes > 1:
                with pytest.raises(ResourceLimitError):
                    solve_first_stage(problem, budget, node_budget=solver.bb_nodes - 1)
            certified += solver.certified
            lp_solves += solver.lp_solves
            nodes_before += nodes
            nodes_after += solver.bb_nodes
        assert certified > 0 and lp_solves > 0
        assert nodes_after < nodes_before

    def test_greedy_matches_per_move_greedy(self):
        for problem, budget in self.instances():
            oracle = RecourseSolver(problem.grid)
            want_x, want_val = per_move_greedy(problem, budget, solver=oracle)
            solver = RecourseSolver(problem.grid)
            plan, val = greedy_first_stage(problem, budget, solver=solver)
            assert tuple(plan.heights) == tuple(want_x)
            assert val == want_val  # bit for bit
            assert pattern_table(solver) == pattern_table(oracle)


class TestTwoStageProblemValidation:
    def test_scenario_width_must_match(self):
        g = two_bus_grid()
        with pytest.raises(ValidationError):
            TwoStageProblem(g, uniform_scenarios([[1.0, 2.0]], (0, 1)))

    @pytest.mark.parametrize("columns", [(2, 1), (1, 3), (7, 8)],
                             ids=["reordered", "one-renamed", "renamed"])
    def test_scenario_column_ids_must_match(self, columns):
        g = star_grid(2)
        good = uniform_scenarios([[1.0, 2.0]], g.flooded_ids)
        bad = uniform_scenarios([[1.0, 2.0]], columns)
        with pytest.raises(ValidationError, match=r"flooded substations \(1, 2\)"):
            TwoStageProblem(g, bad)
        problem = TwoStageProblem(g, good)
        with pytest.raises(ValidationError, match="synthetic columns"):
            evaluate_oos(problem, HardeningPlan.zero(g), bad)
        with pytest.raises(ValidationError, match="synthetic columns"):
            # Checked before the first solve, which would hit the node budget.
            budget_sweep(problem, [100.0], bad, node_budget=1)
        # A set without column ids is checked by width alone.
        unnamed = ScenarioSet.with_uniform_probs([[1.0, 2.0]])
        assert evaluate_oos(TwoStageProblem(g, unnamed), HardeningPlan.zero(g), unnamed).m == 1

    def test_first_stage_cost_shape_and_sign(self):
        g = two_bus_grid()
        scen = uniform_scenarios([[1.0]], g.flooded_ids)
        with pytest.raises(ValidationError):
            TwoStageProblem(g, scen, first_stage_cost=np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            TwoStageProblem(g, scen, first_stage_cost=np.array([-1.0]))


class TestSolveFirstStage:
    def test_zero_budget_returns_zero_plan(self):
        g = star_grid(n_flooded=2)
        scen = uniform_scenarios([[1.0, 1.0]], g.flooded_ids)
        plan, val = solve_first_stage(TwoStageProblem(g, scen), budget=0.0)
        assert np.array_equal(plan.heights, [0, 0])
        assert val == pytest.approx(10.0)

    def test_saturating_budget_clears_all_shed(self):
        g = star_grid(n_flooded=2)
        scen = uniform_scenarios([[2.0, 1.0], [1.0, 2.0]], g.flooded_ids)
        plan, val = solve_first_stage(TwoStageProblem(g, scen), budget=100.0)
        assert np.array_equal(plan.heights, [2, 2])
        assert val == pytest.approx(0.0)

    def test_tie_breaks_to_lexicographically_smallest(self):
        # symmetric substations, budget for exactly one: (0, 1) beats (1, 0)
        g = star_grid(n_flooded=2)
        scen = uniform_scenarios([[1.0, 1.0]], g.flooded_ids)
        plan, val = solve_first_stage(TwoStageProblem(g, scen), budget=2.0)
        assert val == pytest.approx(5.0)
        assert np.array_equal(plan.heights, [0, 1])

    def test_fractional_heights_can_be_protected(self):
        # Height 3 is the least that survives a flood of 2.5; the search
        # used to cap the substation at 2, which never protects it.
        g = two_bus_grid(susceptance=10.0)
        problem = TwoStageProblem(g, uniform_scenarios([[2.5]], g.flooded_ids))
        plan, val = solve_first_stage(problem, budget=100.0)
        best, optima = enumerate_first_stage(problem, 100.0)
        assert np.array_equal(plan.heights, [3]) and val == 0.0
        assert best == 0.0 and min(optima) == (3,)

    def test_budget_is_respected(self):
        rng = np.random.default_rng(5)
        for trial in range(6):
            grid, scen = small_instance(200 + trial)
            budget = float(rng.uniform(0.0, 8.0))
            plan, _ = solve_first_stage(TwoStageProblem(grid, scen), budget=budget)
            assert plan.cost(grid) <= budget + 1e-9

    def test_matches_exhaustive_enumeration(self):
        for trial in range(12):
            grid, scen = small_instance(40 + trial, max_height=3)
            problem = TwoStageProblem(grid, scen)
            solver = RecourseSolver(grid)
            budget = float(np.random.default_rng(trial).uniform(0.0, 10.0))
            plan, val = solve_first_stage(problem, budget, solver=solver)
            best, _ = enumerate_first_stage(problem, budget, solver=solver)
            assert val == pytest.approx(best, abs=1e-9), f"trial {trial}"
            again = saa_objective(problem, plan, solver=solver)
            assert again == pytest.approx(val, abs=1e-12)

    @staticmethod
    def assert_smallest_optimum(problem, budget):
        """The search returns exhaustive enumeration's lexicographically
        smallest optimum, with its value bit for bit."""
        solver = RecourseSolver(problem.grid)
        plan, val = solve_first_stage(problem, budget, solver=solver)
        _, candidates = enumerate_first_stage(problem, budget, solver=solver)
        exact = {c: problem.stage_cost(c) + per_scenario_mean_shed(problem, solver, c)
                 for c in candidates}
        best = min(exact.values())
        assert val == best
        assert tuple(plan.heights) == min(c for c, v in exact.items() if v == best)

    def test_returns_smallest_optimal_plan_where_budget_trims_bound(self):
        # Budgets below the cost of hardening every substation to its
        # cap, so the budget binds.
        rng = np.random.default_rng(8)
        for trial in range(20):
            grid, scen = small_instance(800 + trial, max_height=3)
            caps = np.minimum(scen.scenarios.max(axis=0).astype(int),
                              [s.max_height for s in grid.flooded_substations()])
            budget = float(rng.uniform(0.2, 0.9)) * HardeningPlan(caps).cost(grid)
            self.assert_smallest_optimum(TwoStageProblem(grid, scen), budget)

    def test_matches_enumeration_on_congested_grids(self):
        # Lines bind at these slacks, where shed need not fall as
        # protection rises; the bound does not rely on it.
        rng = np.random.default_rng(31)
        for trial in range(30):
            slack = float(rng.uniform(0.03, 0.3))
            grid, scen = small_instance(1100 + trial, max_height=3, capacity_slack=slack)
            cost = rng.uniform(0.0, 1.5, size=len(grid.flooded_ids)) if trial % 2 else None
            self.assert_smallest_optimum(TwoStageProblem(grid, scen, first_stage_cost=cost),
                                         float(rng.uniform(0.0, 12.0)))
        # Symmetric spokes whose angle bounds bind: many tied optima.
        g = star_grid(n_flooded=3, susceptance=1.0)
        scen = uniform_scenarios([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], g.flooded_ids)
        for cost in (None, np.full(3, 0.5)):
            for budget in (2.0, 3.0, 5.0, 7.5):
                self.assert_smallest_optimum(TwoStageProblem(g, scen, first_stage_cost=cost),
                                             budget)

    def test_exact_where_protection_raises_shed(self):
        g = braess_grid()
        problem = TwoStageProblem(g, uniform_scenarios([[1.0, 2.0]], g.flooded_ids))
        worse, best = (saa_objective(problem, HardeningPlan(np.array(h))) for h in ([1, 2], [0, 2]))
        assert worse > best
        # Hardening every undecided substation to its cap bounds the
        # optimum's node above the first leaf, and prunes it.
        assert per_node_first_stage(problem, 10.0)[1] > best
        self.assert_smallest_optimum(problem, 10.0)

    def test_many_flooded_substations_one_protection(self):
        # 70 flooded substations, so keys run past 64 bits, and a budget
        # for height 1 at one of them: each scenario's affordable subsets
        # are the empty set and its single protections, never 2^70.
        grid = star_grid(n_flooded=70, budget=2.5)
        rng = np.random.default_rng(37)
        deltas = (rng.random((6, 70)) < 0.3).astype(float)
        deltas[:, 67] = 1.0  # the best protection sits past bit 64
        probs = rng.dirichlet(np.ones(6))
        problem = TwoStageProblem(grid, ScenarioSet(deltas, probs / probs.sum(),
                                                    columns=grid.flooded_ids))
        solver = RecourseSolver(grid)
        plan, val = solve_first_stage(problem, solver=solver)
        plans = [np.zeros(70, dtype=int), *np.eye(70, dtype=int)]
        values = [saa_objective(problem, HardeningPlan(h)) for h in plans]
        best = min(values)
        assert val == best
        assert tuple(plan.heights) == min(tuple(h) for h, v in zip(plans, values) if v == best)
        assert plan.heights[67] == 1
        assert solver.bb_nodes < 500

    def test_no_flooded_substations(self):
        grid, scen = generate_instance(InstanceSpec(n_substations=2, n_flooded=0,
                                                    n_scenarios=3, seed=0))
        plan, val = solve_first_stage(TwoStageProblem(grid, scen))
        assert plan.heights.size == 0
        assert val == pytest.approx(0.0)

    def test_negative_budget_rejected(self):
        g = star_grid()
        scen = uniform_scenarios([[1.0, 1.0]], g.flooded_ids)
        with pytest.raises(ValidationError):
            solve_first_stage(TwoStageProblem(g, scen), budget=-1.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, budget):
        g = star_grid()
        problem = TwoStageProblem(g, uniform_scenarios([[1.0, 1.0]], g.flooded_ids))
        with pytest.raises(ValidationError, match="budget"):
            solve_first_stage(problem, budget=budget)
        with pytest.raises(ValidationError, match="budget"):
            greedy_first_stage(problem, budget=budget)
        with pytest.raises(ValidationError, match="budget"):
            budget_sweep(problem, [1.0, budget], problem.scenarios)

    @pytest.mark.parametrize("node_budget", [0, -5, 2.5])
    def test_node_budget_must_be_a_positive_integer(self, node_budget):
        g = star_grid()
        problem = TwoStageProblem(g, uniform_scenarios([[1.0, 1.0]], g.flooded_ids))
        with pytest.raises(ValidationError, match="node_budget"):
            solve_first_stage(problem, budget=4.0, node_budget=node_budget)
        with pytest.raises(ValidationError, match="node_budget"):
            budget_sweep(problem, [4.0], problem.scenarios, node_budget=node_budget)

    def test_node_budget_raises_resource_error(self):
        g = star_grid(n_flooded=3)
        scen = uniform_scenarios([[2.0, 2.0, 2.0]], g.flooded_ids)
        with pytest.raises(ResourceLimitError, match="greedy") as info:
            solve_first_stage(TwoStageProblem(g, scen), budget=50.0, node_budget=2)
        # Stopped before the first leaf: no plan yet, but a bound.
        assert info.value.plan is None and info.value.value is None
        assert info.value.bound == pytest.approx(0.0) and info.value.nodes == 2

    def test_node_budget_stops_with_the_incumbent(self):
        grid, scen = generate_instance(InstanceSpec(
            n_substations=8, n_flooded=6, n_scenarios=12, max_height=4, budget=12.0, seed=3))
        problem = TwoStageProblem(grid, scen)
        solver = RecourseSolver(grid)
        _, optimum = solve_first_stage(problem, solver=solver)
        stop = solver.bb_nodes // 2
        with pytest.raises(ResourceLimitError) as info:
            solve_first_stage(problem, node_budget=stop)
        err = info.value
        assert err.nodes == stop
        err.plan.check_feasible(grid)
        assert err.value == saa_objective(problem, err.plan)
        assert err.bound <= optimum < err.value


class TestGreedyFirstStage:
    def test_zero_budget(self):
        g = star_grid(n_flooded=2)
        scen = uniform_scenarios([[1.0, 1.0]], g.flooded_ids)
        plan, val = greedy_first_stage(TwoStageProblem(g, scen), budget=0.0)
        assert np.array_equal(plan.heights, [0, 0])
        assert val == pytest.approx(10.0)

    def test_single_substation_matches_exact_across_plateau(self):
        # shed is flat until height 4, so unit steps see no gradient;
        # the any-level move finds the jump
        g = two_bus_grid(susceptance=10.0)
        scen = uniform_scenarios([[4.0], [0.0]], g.flooded_ids)
        problem = TwoStageProblem(g, scen)
        gplan, gval = greedy_first_stage(problem, budget=5.0)
        eplan, eval_ = solve_first_stage(problem, budget=5.0)
        assert np.array_equal(gplan.heights, eplan.heights)
        assert gval == pytest.approx(eval_, abs=1e-12)
        assert np.array_equal(gplan.heights, [4])

    def test_single_substation_always_matches_exact(self):
        rng = np.random.default_rng(13)
        for trial in range(8):
            grid, scen = small_instance(300 + trial, n_substations=3, n_flooded=1)
            problem = TwoStageProblem(grid, scen)
            budget = float(rng.uniform(0.0, 8.0))
            _, gval = greedy_first_stage(problem, budget=budget)
            _, eval_ = solve_first_stage(problem, budget=budget)
            assert gval == pytest.approx(eval_, abs=1e-9), f"trial {trial}"

    def test_never_beats_exact_and_stays_feasible(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            grid, scen = small_instance(400 + trial, max_height=3)
            problem = TwoStageProblem(grid, scen)
            solver = RecourseSolver(grid)
            budget = float(rng.uniform(0.0, 10.0))
            gplan, gval = greedy_first_stage(problem, budget=budget, solver=solver)
            _, eval_ = solve_first_stage(problem, budget=budget, solver=solver)
            assert gval >= eval_ - 1e-9
            assert gplan.cost(grid) <= budget + 1e-9
            assert saa_objective(problem, gplan, solver=solver) == pytest.approx(gval, abs=1e-12)


class TestEvaluateOos:
    def test_in_sample_evaluation_matches_saa(self):
        grid, scen = small_instance(77)
        problem = TwoStageProblem(grid, scen)
        solver = RecourseSolver(grid)
        rng = np.random.default_rng(7)
        caps = np.array([grid.substation(s).max_height for s in grid.flooded_ids])
        for _ in range(5):
            plan = HardeningPlan(rng.integers(0, caps + 1))
            rep = evaluate_oos(problem, plan, scen, solver=solver)
            assert rep.v_oos == pytest.approx(saa_objective(problem, plan, solver=solver),
                                             abs=1e-9)

    def test_single_scenario_conventions(self):
        g = two_bus_grid(susceptance=10.0)
        scen = uniform_scenarios([[1.0]], g.flooded_ids)
        rep = evaluate_oos(TwoStageProblem(g, scen), HardeningPlan.zero(g), scen)
        assert rep.m == 1
        assert rep.std == 0.0
        assert rep.mean == rep.min == rep.max == pytest.approx(5.0)
        assert rep.q25 == rep.q50 == rep.q75 == pytest.approx(5.0)

    def test_quantile_ordering(self):
        grid, scen = small_instance(88, n_scenarios=8)
        problem = TwoStageProblem(grid, scen)
        rep = evaluate_oos(problem, HardeningPlan.zero(grid), scen)
        assert rep.min <= rep.q25 <= rep.q50 <= rep.q75 <= rep.max
        assert rep.min <= rep.mean <= rep.max
        assert rep.std >= 0.0

    def test_weighted_mean(self):
        g = two_bus_grid(susceptance=10.0)
        from nortagrid.norta import ScenarioSet
        synth = ScenarioSet([[1.0], [0.0]], [0.25, 0.75], columns=g.flooded_ids)
        scen = uniform_scenarios([[1.0]], g.flooded_ids)
        rep = evaluate_oos(TwoStageProblem(g, scen), HardeningPlan.zero(g), synth)
        assert rep.mean == pytest.approx(1.25)

    def test_first_stage_cost_lands_in_v_oos(self):
        g = two_bus_grid(susceptance=10.0)
        scen = uniform_scenarios([[1.0]], g.flooded_ids)
        problem = TwoStageProblem(g, scen, first_stage_cost=np.array([3.0]))
        rep = evaluate_oos(problem, HardeningPlan(np.array([1])), scen)
        assert rep.first_stage_cost == pytest.approx(3.0)
        assert rep.v_oos == pytest.approx(3.0 + rep.mean)

    def test_report_dict_shape(self):
        g = two_bus_grid(susceptance=10.0)
        scen = uniform_scenarios([[1.0], [0.0]], g.flooded_ids)
        rep = evaluate_oos(TwoStageProblem(g, scen), HardeningPlan(np.array([2])), scen)
        d = rep.to_dict()
        assert d["m"] == 2
        assert d["heights"] == [2]
        assert "so_estimate" not in d  # not set by a bare evaluation
        stats = rep.stat_values()
        assert len(stats) == len(STAT_ROWS) == 8
        assert stats[0] is None

    def test_failing_lp_names_its_scenario(self, monkeypatch):
        # Hub bus 0 feeds demand buses 1 and 2 over weak spokes (B = 1,
        # so every component with a spoke runs its LP); only scenario 3
        # floods substation 1, which leaves the LP of component {0, 2} alone.
        g = star_grid(n_flooded=2, susceptance=1.0)
        synth = uniform_scenarios([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [3.0, 0.0], [2.0, 1.0]],
                                  g.flooded_ids)
        problem = TwoStageProblem(g, uniform_scenarios([[1.0, 1.0]], g.flooded_ids))
        solver = RecourseSolver(g)
        real = lp.solve_lp
        whole_grid_columns = 3 * g.n_buses + len(g.branches)

        def fail_when_bus_down(prob):
            sol = real(prob)
            if prob.n_vars < whole_grid_columns:  # bus 1 is down
                return lp.LpSolution(lp.ITERATION_LIMIT, None, None, 0.0, sol.iterations)
            return sol

        monkeypatch.setattr(lp, "solve_lp", fail_when_bus_down)
        with pytest.raises(RecourseError) as info:
            evaluate_oos(problem, HardeningPlan(np.array([2, 2])), synth, solver=solver)
        assert info.value.scenario_index == 3
        assert info.value.lp_status == lp.ITERATION_LIMIT

    def test_width_mismatch(self):
        g = two_bus_grid()
        scen = uniform_scenarios([[1.0]], g.flooded_ids)
        with pytest.raises(ValidationError):
            evaluate_oos(TwoStageProblem(g, scen), HardeningPlan.zero(g),
                         uniform_scenarios([[1.0, 2.0]], (0, 1)))


class TestBudgetSweep:
    def test_single_budget(self):
        grid, scen = small_instance(55)
        problem = TwoStageProblem(grid, scen)
        reports = budget_sweep(problem, [4.0], scen)
        assert len(reports) == 1
        assert reports[0].budget == 4.0
        assert reports[0].so_estimate is not None

    def test_so_estimate_non_increasing_in_budget(self):
        grid, scen = small_instance(66, max_height=3)
        problem = TwoStageProblem(grid, scen)
        budgets = [0.0, 2.0, 4.0, 8.0, 16.0]
        reports = budget_sweep(problem, budgets, scen)
        so = [r.so_estimate for r in reports]
        assert all(a >= b - 1e-9 for a, b in zip(so, so[1:]))
        assert [r.budget for r in reports] == sorted(budgets)

    def test_matches_enumeration_per_budget(self):
        grid, scen = small_instance(99, max_height=2)
        problem = TwoStageProblem(grid, scen)
        solver = RecourseSolver(grid)
        reports = budget_sweep(problem, [0.0, 3.0, 9.0], scen)
        for rep in reports:
            best, _ = enumerate_first_stage(problem, rep.budget, solver=solver)
            assert rep.so_estimate == pytest.approx(best, abs=1e-9)

    def test_unsorted_budgets_are_sorted(self):
        grid, scen = small_instance(44)
        problem = TwoStageProblem(grid, scen)
        reports = budget_sweep(problem, [5.0, 1.0], scen)
        assert [r.budget for r in reports] == [1.0, 5.0]

    def test_node_limit_keeps_the_finished_budgets(self):
        grid, scen = generate_instance(InstanceSpec(
            n_substations=12, n_flooded=8, buses_per_substation=2, topology="grid",
            n_scenarios=24, max_height=5, budget=50.0, seed=3))
        problem = TwoStageProblem(grid, scen)
        with pytest.raises(ResourceLimitError) as exc:
            budget_sweep(problem, [20.0, 0.0, 10.0, 5.0], scen, node_budget=1000)
        assert exc.value.plan is not None
        want = budget_sweep(problem, [0.0, 5.0, 10.0], scen)
        assert [r.to_dict() for r in exc.value.reports] == [r.to_dict() for r in want]

    def test_empty_and_negative_budget_lists(self):
        grid, scen = small_instance(33)
        problem = TwoStageProblem(grid, scen)
        with pytest.raises(ValidationError):
            budget_sweep(problem, [], scen)
        with pytest.raises(ValidationError):
            budget_sweep(problem, [-2.0], scen)


class TestShedMonotonicity:
    def test_more_protection_never_sheds_more(self):
        rng = np.random.default_rng(123)
        for trial in range(10):
            grid, scen = small_instance(600 + trial)
            solver = RecourseSolver(grid)
            nf = len(grid.flooded_ids)
            caps = np.array([grid.substation(s).max_height for s in grid.flooded_ids])
            for _ in range(5):
                x = rng.integers(0, caps + 1)
                k = int(rng.integers(0, scen.n_scenarios))
                before = solver.shed_for_topology(
                    operational_topology(grid, HardeningPlan(x), scen.scenarios[k]))
                bump = x.copy()
                j = int(rng.integers(0, nf))
                bump[j] = min(bump[j] + 1, caps[j] + 2)
                after = solver.shed_for_topology(
                    operational_topology(grid, HardeningPlan(bump), scen.scenarios[k]))
                assert after <= before + 1e-9
