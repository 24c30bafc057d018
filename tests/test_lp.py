"""Simplex solver tests against a vertex-enumeration oracle.

The random problems use integer data and finite boxes, so the feasible
region is a bounded polytope: every nonempty instance has an optimal
vertex the oracle can find by enumerating basic solutions, and basis
determinants are exact integers, which makes the singular filter safe.
"""
import numpy as np
import pytest

from helpers import LoopRatioSimplex, random_lp, small_instance, whole_pattern_lp
from nortagrid import lp
from nortagrid.errors import ValidationError
from nortagrid.lp import LpProblem, solve_lp


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
        # One flip (x1 to its upper bound); the others start at their optimum.
        prob = LpProblem.with_bounds([3.0, -2.0, 0.0, -1.0], [0.0, 0.0, 1.0, -np.inf],
                                     [4.0, 5.0, 2.0, 7.0])
        sol = solve_lp(prob)
        assert sol.status == "optimal" and sol.iterations == 1
        assert sol.x.tolist() == [0.0, 5.0, 1.0, 7.0]
        empty = solve_lp(LpProblem.with_bounds([], [], []))
        assert (empty.status, empty.x.size, empty.objective) == ("optimal", 0, 0.0)

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
        # stacked duplicates force degenerate pivots; Bland's rule must
        # get through without cycling
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


class TestRatioTestMatchesRowLoop:
    """The candidate-row ratio test against the per-row loop it replaced:
    same status, bit-identical point, same pivots and objective."""

    def test_bit_identical_on_random_lps(self, monkeypatch):
        rng = np.random.default_rng(11)
        problems = [random_lp(rng, n=int(rng.integers(2, 9)), m=int(rng.integers(1, 6)),
                              with_eq=k % 2 == 0)[0] for k in range(100)]
        problems += [degenerate_lp(rng, n=int(rng.integers(2, 7)), m=int(rng.integers(1, 5)))
                     for _ in range(100)]
        for trial in range(40):
            grid, _ = small_instance(900 + trial)
            problems.append(whole_pattern_lp(grid, rng.random(grid.n_buses) < 0.7)[0])
        made = []

        class Recording(LoopRatioSimplex):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        statuses = set()
        for k, prob in enumerate(problems):
            new = solve_lp(prob)
            with monkeypatch.context() as m:
                m.setattr(lp, "_Simplex", Recording)
                old = solve_lp(prob)
            assert new.status == old.status, k
            assert new.iterations == old.iterations, k
            assert new.objective == old.objective, k
            if old.x is None:
                assert new.x is None, k
            else:
                assert new.x.tobytes() == old.x.tobytes(), k
            statuses.add(old.status)
        assert len(made) == len(problems)
        assert sum(s.ties for s in made) > 0  # the tie-break was exercised
        assert {"optimal", "infeasible"} <= statuses


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
