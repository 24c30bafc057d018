"""Grid data model, survival topology, instance generator, file formats."""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_big_m_z, braess_grid, dfs_components, save_scenarios_per_row,
                     two_bus_grid)
from nortagrid.errors import ValidationError
from nortagrid.grid import (
    Branch,
    Bus,
    GridInstance,
    HardeningPlan,
    InstanceSpec,
    Substation,
    _components,
    generate_instance,
    load_grid,
    load_scenarios,
    operational_topology,
    save_grid,
    save_scenarios,
)
from nortagrid.norta import ScenarioSet


ids = st.integers(-10 ** 9, 10 ** 9)
costs = st.floats(0.0, 1e12)
positive = st.floats(0.0, 1e12, exclude_min=True)


@st.composite
def grids(draw):
    """Valid grids with arbitrary ids and finite field values."""
    sub_ids = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    subs = [Substation(i, draw(st.booleans()), draw(costs), draw(costs),
                       draw(st.integers(0, 50))) for i in sub_ids]
    bus_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    buses = [Bus(i, draw(st.sampled_from(sub_ids)), draw(costs), 0.0, draw(costs))
             for i in bus_ids]
    branches = []
    if len(bus_ids) >= 2:
        for i in draw(st.lists(ids, max_size=6, unique=True)):
            head, tail = draw(st.permutations(bus_ids))[:2]
            branches.append(Branch(i, head, tail, draw(positive), draw(positive)))
    return GridInstance(subs, buses, branches, draw(st.sampled_from(bus_ids)), draw(costs))


@st.composite
def scenario_sets(draw, uniform):
    """Integer heights under distinct column ids, with uniform or drawn
    probabilities."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    heights = np.array(draw(st.lists(st.integers(0, 10 ** 6), min_size=k * n,
                                     max_size=k * n)), dtype=float).reshape(k, n)
    columns = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    if uniform:
        return ScenarioSet.with_uniform_probs(heights, columns=columns)
    weights = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)))
    return ScenarioSet(heights, weights / weights.sum(), columns=columns)


def components(grid, z):
    """Operational components of one pattern as sorted lists of bus ids."""
    return [sorted(int(grid.bus_ids[i]) for i in buses) for buses in _components(grid, [z])[1]]


def path_grid(n=3, alive_demand=4.0):
    """n flooded substations in a line, one bus each."""
    subs = [Substation(i, True, 1.0, 1.0, 6) for i in range(n)]
    buses = [Bus(i, i, alive_demand, 0.0, 10.0) for i in range(n)]
    branches = [Branch(i, i, i + 1, 1.0, 5.0) for i in range(n - 1)]
    return GridInstance(subs, buses, branches, reference_bus=0, budget=50.0)


class TestGridValidation:
    def test_valid_roundtrip_of_fields(self):
        g = two_bus_grid()
        assert g.n_buses == 2
        assert g.flooded_ids == (1,)
        assert g.total_demand == 5.0
        assert g.substation(1).flooded_flag

    def test_duplicate_ids(self):
        s = [Substation(0, False, 1.0, 1.0, 2), Substation(0, True, 1.0, 1.0, 2)]
        with pytest.raises(ValidationError):
            GridInstance(s, [Bus(0, 0, 1.0, 0.0, 2.0)], [], 0, 1.0)

    def test_unknown_substation(self):
        with pytest.raises(ValidationError):
            GridInstance([Substation(0, False, 1.0, 1.0, 2)],
                         [Bus(0, 9, 1.0, 0.0, 2.0)], [], 0, 1.0)

    def test_nonzero_gen_min_rejected(self):
        with pytest.raises(ValidationError, match="gen_min"):
            GridInstance([Substation(0, False, 1.0, 1.0, 2)],
                         [Bus(0, 0, 1.0, 0.5, 2.0)], [], 0, 1.0)

    def test_self_loop_rejected(self):
        subs = [Substation(0, False, 1.0, 1.0, 2)]
        buses = [Bus(0, 0, 1.0, 0.0, 2.0)]
        with pytest.raises(ValidationError, match="self-loop"):
            GridInstance(subs, buses, [Branch(0, 0, 0, 1.0, 1.0)], 0, 1.0)

    def test_branch_to_unknown_bus(self):
        subs = [Substation(0, False, 1.0, 1.0, 2)]
        buses = [Bus(0, 0, 1.0, 0.0, 2.0)]
        with pytest.raises(ValidationError):
            GridInstance(subs, buses, [Branch(0, 0, 7, 1.0, 1.0)], 0, 1.0)

    def test_nonpositive_branch_data_rejected(self):
        subs = [Substation(0, False, 1.0, 1.0, 2), Substation(1, False, 1.0, 1.0, 2)]
        buses = [Bus(0, 0, 1.0, 0.0, 2.0), Bus(1, 1, 1.0, 0.0, 2.0)]
        with pytest.raises(ValidationError):
            GridInstance(subs, buses, [Branch(0, 0, 1, 1.0, 0.0)], 0, 1.0)
        with pytest.raises(ValidationError):
            GridInstance(subs, buses, [Branch(0, 0, 1, -2.0, 1.0)], 0, 1.0)

    def test_bad_reference_bus(self):
        with pytest.raises(ValidationError):
            GridInstance([Substation(0, False, 1.0, 1.0, 2)],
                         [Bus(0, 0, 1.0, 0.0, 2.0)], [], 5, 1.0)

    def test_negative_budget_and_costs(self):
        with pytest.raises(ValidationError):
            GridInstance([Substation(0, False, 1.0, 1.0, 2)],
                         [Bus(0, 0, 1.0, 0.0, 2.0)], [], 0, -1.0)
        with pytest.raises(ValidationError):
            GridInstance([Substation(0, False, -1.0, 1.0, 2)],
                         [Bus(0, 0, 1.0, 0.0, 2.0)], [], 0, 1.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget(self, budget):
        with pytest.raises(ValidationError, match="budget"):
            GridInstance([Substation(0, False, 1.0, 1.0, 2)],
                         [Bus(0, 0, 1.0, 0.0, 2.0)], [], 0, budget)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValidationError):
            GridInstance([Substation(0, False, 1.0, 1.0, 2)],
                         [Bus(0, 0, -1.0, 0.0, 2.0)], [], 0, 1.0)


class TestHardeningPlan:
    def test_protect_is_derived_from_height(self):
        p = HardeningPlan(np.array([0, 1, 4]))
        assert np.array_equal(p.protect, [False, True, True])

    def test_cost_charges_fixed_only_when_protecting(self):
        g = path_grid(3)  # fixed 1, var 1 each
        assert HardeningPlan(np.array([0, 0, 0])).cost(g) == 0.0
        assert HardeningPlan(np.array([2, 0, 0])).cost(g) == 3.0
        assert HardeningPlan(np.array([1, 1, 1])).cost(g) == 6.0

    def test_zero_constructor(self):
        g = path_grid(3)
        assert np.array_equal(HardeningPlan.zero(g).heights, [0, 0, 0])

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValidationError):
            HardeningPlan(np.array([-1, 0]))
        with pytest.raises(ValidationError):
            HardeningPlan(np.array([0.5, 0.0]))

    def test_accepts_integral_floats(self):
        p = HardeningPlan(np.array([2.0, 0.0]))
        assert p.heights.dtype.kind == "i"

    def test_check_feasible_max_height(self):
        g = path_grid(2)
        with pytest.raises(ValidationError, match="exceeds max"):
            HardeningPlan(np.array([7, 0])).check_feasible(g)

    def test_check_feasible_budget(self):
        g = path_grid(2)
        with pytest.raises(ValidationError, match="budget"):
            HardeningPlan(np.array([6, 6])).check_feasible(g, budget=3.0)
        # cost exactly at budget passes, and the slack absorbs rounding
        HardeningPlan(np.array([2, 0])).check_feasible(g, budget=3.0)
        HardeningPlan(np.array([2, 0])).check_feasible(g, budget=3.0 - 1e-12)

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            HardeningPlan(np.array([1])).check_feasible(path_grid(3))


class TestOperationalTopology:
    def test_survives_when_protection_meets_water(self):
        g = two_bus_grid()
        z = operational_topology(g, HardeningPlan(np.array([3])), [2.0])
        assert z.tolist() == [True, True]

    def test_equality_keeps_the_bus_up(self):
        g = two_bus_grid()
        z = operational_topology(g, HardeningPlan(np.array([2])), [2.0])
        assert z.tolist() == [True, True]

    def test_fails_when_water_tops_protection(self):
        g = two_bus_grid()
        z = operational_topology(g, HardeningPlan(np.array([0])), [1.0])
        assert z.tolist() == [True, False]

    def test_zero_height_scenario_floods_nothing(self):
        g = path_grid(3)
        z = operational_topology(g, HardeningPlan.zero(g), [0.0, 0.0, 0.0])
        assert z.all()

    def test_safe_substations_never_fail(self):
        g = two_bus_grid()
        for h, d in ((0, 5.0), (5, 5.0), (0, 0.0)):
            z = operational_topology(g, HardeningPlan(np.array([h])), [d])
            assert z[0]

    def test_monotone_in_protection(self):
        g = path_grid(4)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.integers(0, 6, size=4)
            d = rng.integers(0, 6, size=4).astype(float)
            z_lo = operational_topology(g, HardeningPlan(x), d)
            bump = x.copy()
            j = rng.integers(0, 4)
            bump[j] += 1
            z_hi = operational_topology(g, HardeningPlan(bump), d)
            assert np.all(z_hi >= z_lo)

    def test_matches_big_m_linking_rows(self):
        # The closed form must agree with the unique binary satisfying
        # the big-M linking inequalities, for every integer (x, delta).
        g = path_grid(3)
        rng = np.random.default_rng(17)
        big_m = 6 + 6 + 1
        for _ in range(200):
            x = rng.integers(0, 7, size=3)
            d = rng.integers(0, 7, size=3).astype(float)
            z = operational_topology(g, HardeningPlan(x), d)
            for i in range(3):
                assert int(z[i]) == brute_force_big_m_z(int(x[i]), int(d[i]), big_m)

    def test_wrong_scenario_width(self):
        g = path_grid(3)
        with pytest.raises(ValidationError):
            operational_topology(g, HardeningPlan.zero(g), [1.0])


class TestConnectedComponents:
    def test_fully_alive_path_is_one_component(self):
        g = path_grid(3)
        comps = components(g, [True, True, True])
        assert comps == [[0, 1, 2]]

    def test_dead_middle_splits_into_singletons(self):
        g = path_grid(3)
        comps = components(g, [True, False, True])
        assert comps == [[0], [2]]

    def test_all_dead_means_no_components(self):
        g = path_grid(3)
        assert components(g, [False, False, False]) == []

    def test_components_partition_the_alive_set(self):
        rng = np.random.default_rng(3)
        g = path_grid(6)
        for _ in range(20):
            z = rng.random(6) < 0.6
            comps = components(g, z)
            flat = [b for c in comps for b in c]
            assert sorted(flat) == sorted(np.flatnonzero(z).tolist())
            assert len(flat) == len(set(flat))

    @staticmethod
    def check_batch(grid, z):
        """_components of the batch z against depth-first search on each
        row alone: the same components in the same order, each with its
        row, its ascending bus indices and the ascending live branches
        whose head is in it."""
        rows, buses, branches = _components(grid, z)
        assert len(rows) == len(buses) == len(branches)
        want_rows, want_buses, want_branches = [], [], []
        for p, zp in enumerate(z):
            on = zp[grid.head_idx] & zp[grid.tail_idx]
            for comp in dfs_components(grid, zp):
                want_rows.append(p)
                want_buses.append(comp)
                want_branches.append(np.flatnonzero(on & np.isin(grid.head_idx, comp)).tolist())
        assert rows.tolist() == want_rows
        assert [b.tolist() for b in buses] == want_buses
        assert [r.tolist() for r in branches] == want_branches

    @pytest.mark.parametrize("topology", ["ring", "tree", "grid"])
    def test_labels_agree_with_depth_first_search(self, topology):
        spec = InstanceSpec(n_substations=9, n_flooded=6, buses_per_substation=2,
                            topology=topology, seed=11)
        grid, _ = generate_instance(spec)
        rng = np.random.default_rng(4)
        for p_alive in (0.3, 0.6, 0.9, 1.0):
            for _ in range(15):
                self.check_batch(grid, (rng.random(grid.n_buses) < p_alive)[None])

    @pytest.mark.parametrize("grid", [
        *(generate_instance(InstanceSpec(n_substations=n, n_flooded=n // 2,
                                         buses_per_substation=bp, topology=topology,
                                         seed=seed))[0]
          for n, bp, topology, seed in ((7, 1, "ring", 1), (10, 2, "tree", 2),
                                        (9, 3, "grid", 3), (16, 2, "grid", 4))),
        braess_grid(),
    ], ids=["ring", "tree", "grid", "grid-16", "braess"])
    def test_batch_agrees_with_depth_first_search_per_row(self, grid):
        # One labeling over many rows must not let components of different
        # rows meet: all-dead rows, fully alive rows, isolated live buses
        # and P = 1 batches included.
        rng = np.random.default_rng(7)
        nb = grid.n_buses
        isolated = np.zeros(nb, dtype=bool)
        isolated[::3] = True
        fixed = np.array([np.zeros(nb, dtype=bool), np.ones(nb, dtype=bool), isolated])
        for size in (1, 2, 5, 40):
            z = rng.random((size, nb)) < rng.uniform(0.1, 1.0, size=(size, 1))
            self.check_batch(grid, z)
            self.check_batch(grid, np.concatenate([fixed, z])[rng.permutation(size + 3)])
        for row in fixed:
            self.check_batch(grid, row[None])
        rows, buses, branches = _components(grid, np.zeros((4, nb), dtype=bool))
        assert rows.size == 0 and buses == [] and branches == []


class TestInstanceSpec:
    def test_validate_catches_bad_fields(self):
        with pytest.raises(ValidationError):
            InstanceSpec(n_substations=0, n_flooded=0).validate()
        with pytest.raises(ValidationError):
            InstanceSpec(n_substations=2, n_flooded=3).validate()
        with pytest.raises(ValidationError):
            InstanceSpec(n_substations=2, n_flooded=1, topology="mesh").validate()
        with pytest.raises(ValidationError):
            InstanceSpec(n_substations=2, n_flooded=1, max_height=0).validate()
        with pytest.raises(ValidationError):
            InstanceSpec(n_substations=2, n_flooded=1, demand_low=0.0).validate()

    def test_dict_roundtrip(self):
        spec = InstanceSpec(n_substations=4, n_flooded=2, seed=9)
        again = InstanceSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown"):
            InstanceSpec.from_dict({"n_substations": 2, "n_flooded": 1, "bogus": 3})

    @pytest.mark.parametrize("field, value", [
        ("n_substations", 2.5), ("n_substations", True), ("n_flooded", -1),
        ("buses_per_substation", 0), ("n_scenarios", "4"), ("max_height", 2.0),
        ("topology", "mesh"), ("seed", -1), ("seed", 1.5), ("budget", -1.0),
        ("budget", math.nan), ("demand_low", 0.0), ("demand_high", math.inf),
        ("demand_high", 1.0), ("gen_bus_fraction", "x"), ("gen_bus_fraction", -0.1),
        ("capacity_slack", 0.0), ("corr_length", 0), ("corr_length", -2.0),
        ("corr_length", math.nan),
    ])
    def test_validate_names_the_bad_field(self, field, value):
        spec = InstanceSpec(**{"n_substations": 4, "n_flooded": 2, field: value})
        with pytest.raises(ValidationError, match=f"^{field} must be"):
            spec.validate()

    def test_a_spec_that_overflows_the_grid_is_rejected(self):
        # capacity_slack * total demand overflows to inf, which no grid file can hold.
        with pytest.raises(ValidationError, match="capacity must be finite"):
            generate_instance(InstanceSpec(n_substations=3, n_flooded=2, capacity_slack=1e308))

    def test_validate_accepts_the_range_ends(self):
        InstanceSpec(n_substations=2, n_flooded=0, seed=0, budget=0, gen_bus_fraction=0,
                     demand_low=3, demand_high=3).validate()
        InstanceSpec(n_substations=2, n_flooded=2, gen_bus_fraction=1.0,
                     corr_length=0.5).validate()


class TestGenerateInstance:
    def test_shapes_and_columns(self):
        spec = InstanceSpec(n_substations=72, n_flooded=72, buses_per_substation=1,
                            n_scenarios=16, max_height=12, seed=42)
        grid, scen = generate_instance(spec)
        assert scen.scenarios.shape == (16, 72)
        assert scen.columns == grid.flooded_ids
        assert grid.n_buses == 72

    def test_heights_are_integers_in_range(self):
        spec = InstanceSpec(n_substations=8, n_flooded=6, n_scenarios=32,
                            max_height=4, seed=3)
        _, scen = generate_instance(spec)
        s = scen.scenarios
        assert np.array_equal(s, np.round(s))
        assert s.min() >= 0 and s.max() <= 4

    def test_deterministic_in_seed(self):
        spec = InstanceSpec(n_substations=5, n_flooded=3, seed=11)
        g1, s1 = generate_instance(spec)
        g2, s2 = generate_instance(spec)
        assert np.array_equal(s1.scenarios, s2.scenarios)
        assert g1.to_dict() == g2.to_dict()
        _, s3 = generate_instance(InstanceSpec(n_substations=5, n_flooded=3, seed=12))
        assert not np.array_equal(s1.scenarios, s3.scenarios)

    def test_columns_are_cross_correlated(self):
        spec = InstanceSpec(n_substations=12, n_flooded=12, n_scenarios=400,
                            max_height=6, seed=0)
        _, scen = generate_instance(spec)
        r = np.corrcoef(scen.scenarios[:, 0], scen.scenarios[:, 1])[0, 1]
        assert r > 0.25  # neighbours share the severity field

    def test_generation_covers_demand(self):
        for seed in range(4):
            grid, _ = generate_instance(InstanceSpec(n_substations=4, n_flooded=2,
                                                     seed=seed))
            assert grid.gen_max.sum() >= grid.total_demand

    def test_no_flooded_substations(self):
        grid, scen = generate_instance(InstanceSpec(n_substations=3, n_flooded=0,
                                                    n_scenarios=5, seed=1))
        assert scen.scenarios.shape == (5, 0)
        assert grid.flooded_ids == ()

    @pytest.mark.parametrize("topology", ["ring", "tree", "grid"])
    def test_topologies_connect_every_bus(self, topology):
        spec = InstanceSpec(n_substations=7, n_flooded=3, buses_per_substation=2,
                            topology=topology, seed=5)
        grid, _ = generate_instance(spec)
        comps = components(grid, np.ones(grid.n_buses, dtype=bool))
        assert len(comps) == 1


class TestGridFiles:
    def test_roundtrip(self, tmp_path):
        g = two_bus_grid()
        p = tmp_path / "grid.json"
        save_grid(g, p)
        again = load_grid(p)
        assert again.to_dict() == g.to_dict()

    def test_extra_metadata_is_ignored(self, tmp_path):
        g = two_bus_grid()
        p = tmp_path / "grid.json"
        save_grid(g, p, extra={"manifest": {"note": "anything"}})
        assert load_grid(p).to_dict() == g.to_dict()

    def test_generated_grid_roundtrip(self, tmp_path):
        grid, _ = generate_instance(InstanceSpec(n_substations=5, n_flooded=3, seed=2))
        p = tmp_path / "grid.json"
        save_grid(grid, p, extra={"manifest": {"seed": 2}})
        assert load_grid(p).to_dict() == grid.to_dict()

    @pytest.mark.parametrize("section, field, value", [
        ("substations", "flooded_flag", "false"), ("substations", "flooded_flag", 0),
        ("substations", "max_height", 2.5), ("branches", "tail", "1"),
        ("branches", "capacity", True), ("buses", "gen_max", None),
    ])
    def test_json_types_are_checked(self, tmp_path, section, field, value):
        data = two_bus_grid().to_dict()
        data[section][-1][field] = value
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(data))
        k = len(data[section]) - 1
        with pytest.raises(ValidationError, match=rf"^{section}\[{k}\]: {field} must be"):
            load_grid(p)

    def test_missing_key_is_a_validation_error(self, tmp_path):
        p = tmp_path / "grid.json"
        p.write_text(json.dumps({"buses": []}))
        with pytest.raises(ValidationError, match="malformed"):
            load_grid(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "grid.json"
        p.write_text("not json at all {")
        with pytest.raises(ValidationError):
            load_grid(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_grid(tmp_path / "nope.json")

    @settings(max_examples=80, deadline=None)
    @given(grids())
    def test_any_grid_survives_the_round_trip(self, grid):
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "grid.json"
            save_grid(grid, p)
            assert load_grid(p).to_dict() == grid.to_dict()


class TestScenarioFiles:
    def test_uniform_roundtrip_omits_probs(self, tmp_path):
        s = ScenarioSet.with_uniform_probs([[1.0, 0.0], [3.0, 2.0]], columns=(4, 9))
        p = tmp_path / "scen.csv"
        save_scenarios(s, p)
        text = p.read_text()
        assert "#prob" not in text
        assert text.splitlines()[0] == "4,9"
        again = load_scenarios(p)
        assert np.array_equal(again.scenarios, s.scenarios)
        assert np.array_equal(again.probs, s.probs)
        assert again.columns == (4, 9)

    def test_nonuniform_roundtrip_keeps_probs(self, tmp_path):
        s = ScenarioSet([[1.0], [0.0]], [0.25, 0.75], columns=(0,))
        p = tmp_path / "scen.csv"
        save_scenarios(s, p)
        assert "#prob" in p.read_text().splitlines()[0]
        again = load_scenarios(p)
        assert np.array_equal(again.probs, [0.25, 0.75])

    def test_heights_written_as_integers(self, tmp_path):
        s = ScenarioSet.with_uniform_probs([[1.0, 2.0]], columns=(0, 1))
        p = tmp_path / "scen.csv"
        save_scenarios(s, p)
        assert p.read_text().splitlines()[1] == "1,2"

    def test_malformed_cell_names_the_location(self, tmp_path):
        p = tmp_path / "scen.csv"
        p.write_text("0,1\n1,x\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_scenarios(p)

    def test_negative_height_rejected(self, tmp_path):
        p = tmp_path / "scen.csv"
        p.write_text("0,1\n-1,2\n")
        with pytest.raises(ValidationError):
            load_scenarios(p)

    def test_fractional_height_rejected(self, tmp_path):
        p = tmp_path / "scen.csv"
        p.write_text("0,1\n0.5,2\n")
        with pytest.raises(ValidationError):
            load_scenarios(p)

    def test_bad_probability_sum_rejected(self, tmp_path):
        p = tmp_path / "scen.csv"
        p.write_text("0,#prob\n1,0.4\n2,0.4\n")
        with pytest.raises(ValidationError):
            load_scenarios(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "scen.csv"
        p.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            load_scenarios(p)

    def test_header_only_file_rejected(self, tmp_path):
        p = tmp_path / "scen.csv"
        p.write_text("0,1\n")
        with pytest.raises(ValidationError):
            load_scenarios(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "scen.csv"
        p.write_text("0,1\n1,2\n3\n")
        with pytest.raises(ValidationError):
            load_scenarios(p)

    def test_repeated_column_ids_never_reach_a_file(self, tmp_path):
        # A set that save_scenarios could write under a header that
        # load_scenarios rejects cannot be built in the first place.
        with pytest.raises(ValidationError,
                           match=r"scenario columns: substation id 1 repeats \(columns 1 and 2\)"):
            ScenarioSet.with_uniform_probs([[1, 2], [0, 1]], columns=(1, 1))
        with pytest.raises(ValidationError, match="substation id 7 repeats"):
            ScenarioSet([[1.0, 2.0, 3.0]], [1.0], columns=(7, 3, 7))
        p = tmp_path / "scen.csv"
        p.write_text("1,1\n1,2\n0,1\n")
        with pytest.raises(ValidationError, match="line 1: substation id 1 repeats"):
            load_scenarios(p)

    @settings(max_examples=80, deadline=None)
    @given(st.booleans().flatmap(scenario_sets))
    def test_any_set_survives_the_round_trip(self, s):
        # Heights and ids come back exactly, probabilities up to the
        # reader's renormalization; the bytes are those of the per-row
        # writer.
        with tempfile.TemporaryDirectory() as d:
            p, oracle = Path(d) / "scen.csv", Path(d) / "oracle.csv"
            save_scenarios(s, p)
            save_scenarios_per_row(s, oracle)
            assert p.read_bytes() == oracle.read_bytes()
            again = load_scenarios(p)
        assert np.array_equal(again.scenarios, s.scenarios)
        assert again.columns == s.columns
        assert np.max(np.abs(again.probs - s.probs)) <= 1e-12

    def test_save_requires_column_ids(self, tmp_path):
        s = ScenarioSet.with_uniform_probs([[1.0]])
        with pytest.raises(ValidationError):
            save_scenarios(s, tmp_path / "scen.csv")
