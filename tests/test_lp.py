"""LP solver tests against a vertex-enumeration oracle.

The random problems use integer data and finite boxes, so the feasible
region is a bounded polytope: every nonempty instance has an optimal
vertex the oracle can find by enumerating basic solutions, and basis
determinants are exact integers, which makes the singular filter safe.
"""
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dict_row_component_lp,
    energized_components,
    lp_vertex_oracle,
    max_infeasibility_by_rows,
    random_lp,
    small_instance,
    whole_pattern_shed,
)
import nortagrid
from nortagrid import lp
from nortagrid.errors import ValidationError
from nortagrid.grid import save_grid, save_scenarios
from nortagrid.lp import LpProblem, solve_lp
from nortagrid.twostage import RecourseSolver


class TestExamples:
    def test_minimize_negative_x_hits_upper_bound(self):
        prob = LpProblem.with_bounds([-1.0], [0.0], [1.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_contradictory_rows_are_infeasible(self):
        prob = LpProblem.with_bounds([0.0], [0.0], [10.0])
        prob.add_row({0: 1.0}, ">=", 2.0)
        prob.add_row({0: 1.0}, "<=", 1.0)
        sol = solve_lp(prob)
        assert sol.status == "infeasible"
        assert sol.x is None

    def test_unbounded_below(self):
        prob = LpProblem.with_bounds([-1.0], [0.0], [np.inf])
        assert solve_lp(prob).status == "unbounded"

    def test_unbounded_via_free_variable(self):
        prob = LpProblem.with_bounds([1.0, 0.0], [-np.inf, 0.0], [np.inf, 1.0])
        assert solve_lp(prob).status == "unbounded"

    def test_pure_bounds_no_rows(self):
        prob = LpProblem.with_bounds([3.0, -2.0, 0.0], [0.0, 0.0, 1.0],
                                     [4.0, 5.0, 2.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-10.0)
        assert sol.x.tolist() == [0.0, 5.0, 1.0]

    def test_no_row_lp_runs_the_simplex_by_bound_flips(self):
        # Each variable sits at its better bound (the lower one at zero
        # cost); a free-below variable with negative cost takes its upper.
        prob = LpProblem.with_bounds([3.0, -2.0, 0.0, -1.0], [0.0, 0.0, 1.0, -np.inf],
                                     [4.0, 5.0, 2.0, 7.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.x.tolist() == [0.0, 5.0, 1.0, 7.0]
        empty = solve_lp(LpProblem.with_bounds([], [], []))
        assert (empty.status, empty.x.size, empty.objective) == ("optimal", 0, 0.0)

    def test_no_variable_lp_checks_its_rows(self):
        # 0 >= 1 cannot hold; 0 <= 1 and 0 == 0 do.
        for sense, rhs, status in ((">=", 1.0, "infeasible"), ("<=", 1.0, "optimal"),
                                   ("==", 0.0, "optimal")):
            prob = LpProblem(0, np.zeros(0), np.zeros(0), np.zeros(0), np.zeros((1, 0)),
                             np.array([sense]), np.array([rhs]))
            assert solve_lp(prob).status == status, sense

    def test_equality_row(self):
        prob = LpProblem.with_bounds([1.0, 1.0], [0.0, 0.0], [5.0, 5.0])
        prob.add_row({0: 1.0, 1: 1.0}, "==", 3.0)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[0] + sol.x[1] == pytest.approx(3.0, abs=1e-9)

    def test_iteration_limit_status(self):
        prob = LpProblem.with_bounds([-1.0, -1.0], [0.0, 0.0], [10.0, 10.0])
        prob.add_row({0: 1.0, 1: 1.0}, "<=", 1.0)
        prob.add_row({0: 1.0, 1: 2.0}, "<=", 2.0)
        sol = solve_lp(prob, max_iter=1)
        assert sol.status == "iteration_limit"


class TestRandomAgainstVertexOracle:
    def test_forty_mixed_instances(self):
        rng = np.random.default_rng(2024)
        n_optimal = n_infeasible = 0
        for k in range(40):
            prob, (status, obj, verts) = random_lp(rng, m=3, with_eq=k % 3 == 0)
            sol = solve_lp(prob)
            assert sol.status == status, f"instance {k}"
            if status == "optimal":
                n_optimal += 1
                assert sol.objective == pytest.approx(obj, abs=1e-6), f"instance {k}"
                assert sol.max_infeasibility <= 1e-7
                # weak duality: no feasible vertex beats the reported opt
                assert np.all(verts @ prob.objective >= sol.objective - 1e-9)
            else:
                n_infeasible += 1
        assert n_optimal >= 10 and n_infeasible >= 3  # generator sanity

    def test_degenerate_rows_still_solve(self):
        # stacked duplicates force degenerate pivots, which must not cycle
        prob = LpProblem.with_bounds([-1.0, -2.0, -1.0], np.zeros(3),
                                     np.full(3, 10.0))
        for _ in range(6):
            prob.add_row({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 4.0)
            prob.add_row({0: 1.0, 1: 1.0}, "<=", 4.0)
        prob.add_row({1: 1.0}, "<=", 2.0)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        # y = 2 (best rate), then x + z <= 2 fills the pooled row: -6
        assert sol.objective == pytest.approx(-6.0, abs=1e-9)
        assert sol.max_infeasibility <= 1e-7

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        prob, _ = random_lp(rng)
        a = solve_lp(prob)
        b = solve_lp(prob)
        assert a.status == b.status
        if a.x is not None:
            assert np.array_equal(a.x, b.x)
            assert a.iterations == b.iterations


def degenerate_lp(rng, n=5, m=4):
    """Small boxes, zero right-hand sides and rows repeated at twice the
    scale: degenerate vertices and exact ratio-test ties."""
    c = rng.integers(-9, 10, size=n).astype(float)
    prob = LpProblem.with_bounds(c, np.zeros(n), rng.integers(1, 4, size=n).astype(float))
    for _ in range(m):
        coefs = rng.integers(-3, 4, size=n).astype(float)
        sense = str(rng.choice(["<=", ">=", "=="], p=[0.6, 0.3, 0.1]))
        rhs = float(rng.integers(0, 3))
        for scale in (1.0, 2.0)[:int(rng.integers(1, 3))]:
            prob.add_row({j: scale * coefs[j] for j in range(n)}, sense, scale * rhs)
    return prob


@st.composite
def bounded_lps(draw):
    """Integer data on finite boxes, some variables fixed."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 6))

    def ints(lo, hi, size):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                        dtype=float)

    lower = ints(-3, 0, n)
    prob = LpProblem.with_bounds(ints(-9, 9, n), lower, lower + ints(0, 6, n))
    for _ in range(m):
        prob.add_row(dict(enumerate(ints(-4, 4, n))), draw(st.sampled_from(lp._SENSES)),
                     draw(st.integers(-6, 6)))
    return prob


def oracle_answer(prob):
    """lp_vertex_oracle on an LpProblem: ">=" rows negated into "<="."""
    sign = np.where(prob.senses == ">=", -1.0, 1.0)
    ub, eq = prob.senses != "==", prob.senses == "=="
    return lp_vertex_oracle(prob.objective, sign[ub, None] * prob.a[ub], sign[ub] * prob.rhs[ub],
                            prob.a[eq], prob.rhs[eq], prob.lower, prob.upper)


class TestInverseMatchesFreshSolves:
    """Random bounded LPs and whole-grid recourse against independent
    oracles: vertex enumeration and one LP over the whole grid."""

    @settings(max_examples=300, deadline=None)
    @given(bounded_lps())
    def test_random_bounded_lps(self, prob):
        status, objective, _ = oracle_answer(prob)
        sol = solve_lp(prob)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
            assert sol.max_infeasibility <= 1e-7

    def test_degenerate_lps(self):
        rng = np.random.default_rng(11)
        statuses = set()
        for k in range(200):
            prob = degenerate_lp(rng, n=int(rng.integers(2, 7)), m=int(rng.integers(1, 5)))
            status, objective, _ = oracle_answer(prob)
            sol = solve_lp(prob)
            assert sol.status == status, k
            if status == "optimal":
                assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-9), k
            statuses.add(status)
        assert statuses == {"optimal", "infeasible"}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.data())
    def test_recourse_matches_whole_grid_lp(self, seed, data):
        grid, _ = small_instance(seed)
        solver = RecourseSolver(grid)
        for _ in range(3):
            z = np.array(data.draw(st.lists(st.booleans(), min_size=grid.n_buses,
                                            max_size=grid.n_buses)), dtype=bool)
            want = whole_pattern_shed(grid, z)
            assert solver.shed_for_topology(z) == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestScipyOptimizeLoadedAtFirstLp:
    """solve_lp imports scipy.optimize at its first call, so `solve` and
    `evaluate` on a grid whose every component copper-plate dispatch
    certifies never load it (it is ~20 MB of a process's peak RSS)."""

    CODE = """
import json, sys
from nortagrid import cli
grid, scenarios, plans, report = sys.argv[1:]
assert cli.main(["solve", grid, scenarios, "--out", plans, "--quiet"]) == 0
assert cli.main(["evaluate", grid, plans, scenarios, "--out", report, "--quiet"]) == 0
lps = sum(json.load(open(p))["manifest"]["work"]["component_lps"] for p in (plans, report))
print(lps, "scipy.optimize" in sys.modules)
"""

    @pytest.mark.parametrize("capacity_slack, loaded", [(1.2, False), (0.1, True)],
                             ids=["uncongested", "congested"])
    def test_loaded_only_where_an_lp_runs(self, tmp_path, capacity_slack, loaded):
        grid, scenarios = small_instance(0, capacity_slack=capacity_slack)
        save_grid(grid, tmp_path / "grid.json")
        save_scenarios(scenarios, tmp_path / "scen.csv")
        root = str(Path(nortagrid.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        files = [tmp_path / name for name in ("grid.json", "scen.csv", "plans.json", "r.json")]
        done = subprocess.run([sys.executable, "-c", self.CODE, *map(str, files)],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        lps, in_modules = done.stdout.split()
        assert (int(lps) > 0, in_modules) == (loaded, str(loaded))


class TestValidation:
    def test_mismatched_bound_shapes(self):
        with pytest.raises(ValidationError):
            LpProblem.with_bounds([1.0, 2.0], [0.0], [1.0])

    def test_nan_objective(self):
        prob = LpProblem.with_bounds([np.nan], [0.0], [1.0])
        with pytest.raises(ValidationError):
            solve_lp(prob)

    def test_crossed_bounds(self):
        prob = LpProblem.with_bounds([1.0], [2.0], [1.0])
        with pytest.raises(ValidationError):
            solve_lp(prob)

    def test_bad_sense(self):
        prob = LpProblem.with_bounds([1.0], [0.0], [1.0])
        with pytest.raises(ValidationError):
            prob.add_row({0: 1.0}, "<", 1.0)

    def test_unknown_column(self):
        prob = LpProblem.with_bounds([1.0], [0.0], [1.0])
        with pytest.raises(ValidationError):
            prob.add_row({3: 1.0}, "<=", 1.0)

    def test_infinite_rhs(self):
        prob = LpProblem.with_bounds([1.0], [0.0], [1.0])
        with pytest.raises(ValidationError):
            prob.add_row({0: 1.0}, "<=", np.inf)


def block_lp():
    """min -x0 - x1 on [0, 4]^2 with x0 + x1 <= 3 and x0 - x1 == 1,
    passed as one block."""
    return LpProblem(2, np.array([-1.0, -1.0]), np.zeros(2), np.full(2, 4.0),
                     np.array([[1.0, 1.0], [1.0, -1.0]]), np.array(["<=", "=="]),
                     np.array([3.0, 1.0]))


class TestDenseBlock:
    def test_block_built_whole_solves_like_rows_added(self):
        whole = solve_lp(block_lp())
        prob = LpProblem.with_bounds([-1.0, -1.0], np.zeros(2), np.full(2, 4.0))
        prob.add_row({0: 1.0, 1: 1.0}, "<=", 3.0)
        prob.add_row({0: 1.0, 1: -1.0}, "==", 1.0)
        rows = solve_lp(prob)
        assert whole.status == rows.status == "optimal" and whole.objective == -3.0
        assert whole.x.tobytes() == rows.x.tobytes()
        assert [str(s) for s in prob.senses] == ["<=", "=="]

    @pytest.mark.parametrize("change", [
        {"a": np.ones((2, 3))}, {"a": np.ones(4)}, {"a": np.ones((3, 2))},
        {"senses": np.array(["<="])}, {"rhs": np.array([3.0, 1.0, 0.0])},
        {"senses": np.array(["<=", "="])}, {"senses": np.array(["<=", 1])},
        {"a": np.array([[1.0, np.nan], [1.0, -1.0]])},
        {"a": np.array([[1.0, 1.0], [-np.inf, -1.0]])},
        {"rhs": np.array([3.0, np.inf])},
    ], ids=["too-many-columns", "one-dimensional", "too-many-rows", "short-senses",
            "long-rhs", "unknown-sense", "non-string-sense", "nan-entry", "inf-entry",
            "inf-rhs"])
    def test_directly_built_block_is_validated(self, change):
        with pytest.raises(ValidationError):
            solve_lp(dataclasses.replace(block_lp(), **change))

    def test_rejected_row_leaves_the_block_unchanged(self):
        prob = LpProblem.with_bounds([1.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        prob.add_row({0: -0.0, 1: 2.0}, ">=", 1.0)
        assert not np.signbit(prob.a).any()  # a zero coefficient is stored as +0.0
        before = (prob.a.tobytes(), prob.senses.tobytes(), prob.rhs.tobytes())
        for coeffs, sense, rhs in [({0: 1.0}, "<", 1.0), ({2: 1.0}, "<=", 1.0),
                                   ({-1: 1.0}, "<=", 1.0), ({0: np.nan}, "<=", 1.0),
                                   ({0: 1.0, 1: np.inf}, "==", 1.0), ({0: 1.0}, "<=", np.nan)]:
            with pytest.raises(ValidationError):
                prob.add_row(coeffs, sense, rhs)
            assert (prob.a.tobytes(), prob.senses.tobytes(), prob.rhs.tobytes()) == before
        assert prob.a.shape == (1, 2)

    def test_tolerances_are_constants(self):
        assert list(inspect.signature(solve_lp).parameters) == ["prob", "max_iter"]
        assert lp.FEAS_TOL == lp.OPT_TOL == 1e-9

    def test_max_infeasibility_matches_a_row_loop(self):
        rng = np.random.default_rng(11)
        checked = 0
        for k in range(100):
            prob, _ = random_lp(rng, n=int(rng.integers(2, 9)), m=int(rng.integers(1, 6)),
                                with_eq=k % 2 == 0)
            sol = solve_lp(prob)
            if sol.status == "optimal":
                assert sol.max_infeasibility == pytest.approx(
                    max_infeasibility_by_rows(prob, sol.x), rel=0.0, abs=1e-12)
            x = rng.uniform(-3.0, 12.0, prob.n_vars)  # violates rows and bounds alike
            want = max_infeasibility_by_rows(prob, x)
            assert lp._max_infeas(prob, x) == pytest.approx(want, rel=0.0, abs=1e-12)
            checked += want > 0.0
        assert checked >= 90

    def test_component_block_matches_dict_rows(self):
        # Every energized component's LP, built directly (see above).
        built = []
        rng = np.random.default_rng(5)
        for seed in range(30):
            grid, _ = small_instance(seed)
            solver = RecourseSolver(grid)
            for _ in range(4):
                for buses, branches in energized_components(grid, rng.random(grid.n_buses) < 0.8):
                    built.append((solver, buses, branches, solver._component_lp(buses, branches)))
        assert len(built) >= 60
        assert any(len(branches) > 0 for _, _, branches, _ in built)
        for solver, buses, branches, new in built:
            old = dict_row_component_lp(solver, buses, branches)
            for name in ("a", "senses", "rhs", "lower", "upper", "objective"):
                assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name
            assert new.a.shape == old.a.shape
            assert solve_lp(old).x.tobytes() == solve_lp(new).x.tobytes()
