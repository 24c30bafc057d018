"""Simplex solver tests against a vertex-enumeration oracle.

The random problems use integer data and finite boxes, so the feasible
region is a bounded polytope: every nonempty instance has an optimal
vertex the oracle can find by enumerating basic solutions, and basis
determinants are exact integers, which makes the singular filter safe.
"""
import dataclasses
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FreshSolveSimplex,
    LoopRatioSimplex,
    dict_row_component_lp,
    energized_components,
    max_infeasibility_by_rows,
    random_lp,
    small_instance,
    whole_pattern_lp,
    whole_pattern_shed,
)
from nortagrid import lp
from nortagrid.errors import ValidationError
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


def solve_with(simplex, prob):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "_Simplex", simplex)
        return solve_lp(prob)


@pytest.fixture
def crash_spy(monkeypatch):
    """Every simplex made while the test runs, with `accepted` (the crash
    result) and `phases` (how many times the simplex loop ran)."""
    made = []

    class Spy(lp._Simplex):
        def crash(self, basis):
            self.accepted = super().crash(basis)
            self.phases = 0
            made.append(self)
            return self.accepted

        def _run(self, c, max_iter):
            self.phases += 1
            return super()._run(c, max_iter)

    monkeypatch.setattr(lp, "_Simplex", Spy)
    return made


def crash_lp(basis=None):
    """min -x0 - 2 x1 + x2 on [0, 10]^3 with x0 + x1 <= 4 (slack column
    3) and x1 + x2 >= 1 (slack column 4); optimum -8 at x1 = 4. From the
    start point x = 0, basis [3, 1] is feasible (s0 = 3, x1 = 1), [3, 4]
    is not (s1 = 1 above its bound 0), and x0 and s0 are equal columns."""
    prob = LpProblem.with_bounds([-1.0, -2.0, 1.0], np.zeros(3), np.full(3, 10.0))
    prob.add_row({0: 1.0, 1: 1.0}, "<=", 4.0)
    prob.add_row({1: 1.0, 2: 1.0}, ">=", 1.0)
    prob.basis = basis
    return prob


class TestCrashBasis:
    def test_feasible_basis_skips_phase_1(self, crash_spy):
        sol = solve_lp(crash_lp([3, 1]))
        assert [(s.accepted, s.phases) for s in crash_spy] == [(True, 1)]
        assert sol.status == "optimal" and sol.objective == -8.0

    @pytest.mark.parametrize("basis", [
        [3], [3, 1, 4], [3, 3], [-1, 3], [3, 7], [3, 5], [0, 3], [3, 4], [3.0, 1.0],
    ], ids=["short", "long", "duplicate", "negative", "out-of-range", "artificial",
            "singular", "infeasible", "not-integer"])
    def test_bad_basis_falls_back_to_phase_1(self, crash_spy, basis):
        plain = solve_lp(crash_lp())
        sol = solve_lp(crash_lp(basis))
        assert [(s.accepted, s.phases) for s in crash_spy] == [(False, 2), (False, 2)]
        assert (sol.status, sol.objective, sol.iterations) == (
            plain.status, plain.objective, plain.iterations)
        assert sol.x.tobytes() == plain.x.tobytes()

    def test_numerically_singular_basis_falls_back(self, crash_spy):
        # Column 2 is 0.3 a + 0.7 b rounded: inv succeeds, but its B^-1
        # holds entries near 2^53 and B^-1 B is far from the identity.
        # With rhs 0 the basic values are 0, so only that check rejects it.
        a, b = np.array([0.64, 0.27, 0.04]), np.array([0.02, 0.81, 0.91])
        cols = np.column_stack([a, b, 0.3 * a + 0.7 * b])
        prob = LpProblem.with_bounds([-1.0, -1.0, -1.0], np.zeros(3), np.ones(3))
        for row in cols:
            prob.add_row(dict(enumerate(row)), "<=", 0.0)
        plain = solve_lp(prob)
        prob.basis = [0, 1, 2]
        sol = solve_lp(prob)
        assert [s.accepted for s in crash_spy] == [False, False]
        assert sol.status == "optimal" and sol.objective == plain.objective

    def test_infeasible_lp_stays_infeasible_from_any_basis(self, crash_spy):
        for basis in itertools.permutations(range(5), 2):  # artificials included
            prob = LpProblem.with_bounds([0.0], [0.0], [10.0])
            prob.add_row({0: 1.0}, ">=", 2.0)
            prob.add_row({0: 1.0}, "<=", 1.0)
            prob.basis = list(basis)
            assert solve_lp(prob).status == "infeasible", basis
        assert len(crash_spy) == 20 and not any(s.accepted for s in crash_spy)

    def test_recourse_component_lps_start_at_their_crash_basis(self, crash_spy):
        # Every energized component's LP, built directly: the solver
        # certifies these uncongested components without running them.
        probs = []
        rng = np.random.default_rng(3)
        for seed in range(20):
            grid, _ = small_instance(seed)
            solver = RecourseSolver(grid)
            for _ in range(4):
                for buses, branches in energized_components(grid, rng.random(grid.n_buses) < 0.8):
                    probs.append(solver._component_lp(buses, branches))
                    solve_lp(probs[-1])
        assert len(probs) == len(crash_spy) >= 40
        assert all(s.accepted and s.phases == 1 for s in crash_spy)
        for prob in probs:
            phase1 = solve_lp(dataclasses.replace(prob, basis=None))
            assert solve_lp(prob).objective == pytest.approx(phase1.objective, rel=1e-9)


@st.composite
def bounded_lps(draw):
    """Integer data on finite boxes (some variables fixed), with either
    no start basis or m distinct non-artificial columns, which the crash
    may accept or reject."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 6))

    def ints(lo, hi, size):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                        dtype=float)

    lower = ints(-3, 0, n)
    prob = LpProblem.with_bounds(ints(-9, 9, n), lower, lower + ints(0, 6, n))
    for _ in range(m):
        prob.add_row(dict(enumerate(ints(-4, 4, n))), draw(st.sampled_from(lp._SENSES)),
                     draw(st.integers(-6, 6)))
    prob.basis = draw(st.none() | st.permutations(range(n + m)).map(lambda p: p[:m]))
    return prob


class TestInverseMatchesFreshSolves:
    """The kept, eta-updated B^-1 against a simplex that solves with the
    basis columns afresh at every step."""

    @staticmethod
    def check(prob, kept_simplex=lp._Simplex):
        kept = solve_with(kept_simplex, prob)
        fresh = solve_with(FreshSolveSimplex, prob)
        assert kept.status == fresh.status
        if fresh.status == "optimal":
            assert kept.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(bounded_lps())
    def test_random_bounded_lps(self, prob):
        self.check(prob)

    def test_runs_past_the_refactor_interval(self):
        interval_refactors = []

        class Counting(lp._Simplex):
            def _refactor(self):
                interval_refactors.append(self.updates >= 2 * self.m)
                super()._refactor()

        rng = np.random.default_rng(17)
        for _ in range(30):
            self.check(degenerate_lp(rng, n=12, m=int(rng.integers(1, 3))), Counting)
        assert sum(interval_refactors) >= 10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.data())
    def test_recourse_matches_whole_grid_lp(self, seed, data):
        grid, _ = small_instance(seed)
        solver = RecourseSolver(grid)
        for _ in range(3):
            z = np.array(data.draw(st.lists(st.booleans(), min_size=grid.n_buses,
                                            max_size=grid.n_buses)), dtype=bool)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(lp, "_Simplex", FreshSolveSimplex)
                want = whole_pattern_shed(grid, z)
            assert solver.shed_for_topology(z) == pytest.approx(want, rel=1e-9, abs=1e-9)


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
            assert np.asarray(new.basis).tobytes() == np.asarray(old.basis).tobytes()
            assert solve_lp(old).x.tobytes() == solve_lp(new).x.tobytes()
