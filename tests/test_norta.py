"""Tests for correlation matching, the PSD repair, and sampling.

Closed-form oracles used below:
  * normal marginals: c(rho_z) = rho_z exactly;
  * Bernoulli(1/2) pairs: c(rho_z) = (2/pi) asin(rho_z);
  * comonotone Bernoulli(1/2) vs 0.9/0.1 two-pointer: corr = 1/3, the
    Frechet upper bound, so larger targets must clamp;
  * 3x3 equicorrelation: PSD iff the common entry is >= -1/2, and by
    permutation symmetry the nearest correlation matrix to
    equicorr(t < -1/2) is exactly equicorr(-1/2).
"""
import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ar1_height_panel, per_pair_estimate_inputs, per_pair_fit
from nortagrid import norta
from nortagrid.errors import ValidationError
from nortagrid.norta import (
    FitReport,
    NortaModel,
    ScenarioSet,
    c_of_rho,
    estimate_inputs,
    fit,
    nearest_correlation,
    sample,
    solve_rho_z,
)
from nortagrid.stats import (
    EmpiricalMarginal,
    normal_quantile,
    normal_score_thresholds,
    pearson_corr,
)


class NormalMarginal:
    """Analytic standard normal stand-in; quantile is all c_of_rho needs.

    Empirical marginals accept u = 1 (it maps to the sample maximum), so
    the clamp keeps this duck on the same interface without overflowing
    the normal quantile.
    """

    def quantile(self, u):
        u = np.clip(np.asarray(u, dtype=float), 2.0 ** -54, np.nextafter(1.0, 0.0))
        return normal_quantile(u)


class QuantileOnly:
    """Exposes only ``quantile``, which sends c_of_rho down the generic
    quantile(normal_cdf(z)) path: the oracle for the threshold lookup."""

    def __init__(self, marginal):
        self._marginal = marginal

    def quantile(self, u):
        return self._marginal.quantile(u)


def equicorr(n, r):
    return np.full((n, n), float(r)) + (1.0 - float(r)) * np.eye(n)


def bernoulli():
    return EmpiricalMarginal([0.0, 1.0])


def make_model(marginals, rho):
    """Assemble a model directly around a 2x2 base correlation."""
    y = equicorr(2, rho)
    return NortaModel(marginals=list(marginals), sigma_x=y.copy(), sigma_z=y.copy(),
                      y=y, chol=np.linalg.cholesky(y), report=FitReport())


class TestCOfRho:
    def test_normal_marginals_identity(self):
        m = NormalMarginal()
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            assert c_of_rho(m, m, rho) == pytest.approx(rho, abs=1e-3)

    def test_zero_maps_to_zero_for_any_marginals(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            a = EmpiricalMarginal(rng.integers(0, 7, size=int(rng.integers(2, 20))))
            b = EmpiricalMarginal(rng.integers(0, 4, size=int(rng.integers(2, 20))))
            assert abs(c_of_rho(a, b, 0.0)) <= 1e-6

    def test_comonotone_bernoulli(self):
        b = bernoulli()
        assert c_of_rho(b, b, 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_bernoulli_arcsine_bracket(self):
        # Exact law for half-half indicators. Polynomial quadrature on a
        # discontinuous integrand is the weak spot of the whole scheme;
        # 0.11 is the honest degree-64 envelope, not a typical error.
        b = bernoulli()
        for rho in np.linspace(-0.95, 0.95, 21):
            exact = 2.0 / np.pi * np.arcsin(rho)
            got = c_of_rho(b, b, float(rho))
            assert abs(got - exact) <= 0.11
            if abs(rho) > 0.2:
                assert np.sign(got) == np.sign(exact)

    def test_odd_symmetry_for_symmetric_marginals(self):
        b = bernoulli()
        for rho in (0.2, 0.55, 0.9):
            assert c_of_rho(b, b, -rho) == pytest.approx(-c_of_rho(b, b, rho), abs=1e-9)

    def test_nondecreasing_in_rho(self):
        rng = np.random.default_rng(1234)
        grid = np.linspace(-1.0, 1.0, 21)
        for _ in range(6):
            a = EmpiricalMarginal(rng.integers(0, 6, size=int(rng.integers(4, 24))))
            b = EmpiricalMarginal(rng.integers(0, 9, size=int(rng.integers(4, 24))))
            vals = np.array([c_of_rho(a, b, float(r)) for r in grid])
            assert np.all(np.diff(vals) >= -1e-9)
            assert np.all(np.abs(vals) <= 1.0)

    def test_degenerate_marginal_gives_zero(self):
        flat = EmpiricalMarginal([3.0, 3.0])
        assert c_of_rho(flat, bernoulli(), 0.8) == 0.0

    def test_rho_domain(self):
        b = bernoulli()
        c_of_rho(b, b, -1.0)  # closed endpoints are fine
        with pytest.raises(ValidationError):
            c_of_rho(b, b, 1.0001)

    def test_higher_degree_refines_the_bernoulli_answer(self, monkeypatch):
        b = bernoulli()
        exact = 2.0 / np.pi * np.arcsin(0.6)
        err64 = abs(c_of_rho(b, b, 0.6) - exact)
        monkeypatch.setattr(norta, "GH_DEGREE", 128)
        err128 = abs(c_of_rho(b, b, 0.6) - exact)
        assert err128 < err64


class TestSolveRhoZ:
    def test_zero_target_is_exact(self):
        m = solve_rho_z(bernoulli(), bernoulli(), 0.0)
        assert m.rho_z == 0.0
        assert m.residual <= 1e-6
        assert not m.clamped

    def test_normal_target(self):
        n = NormalMarginal()
        m = solve_rho_z(n, n, 0.7)
        assert m.rho_z == pytest.approx(0.7, abs=1e-3)
        assert m.residual <= 1e-4
        assert not m.clamped

    def test_clamp_at_the_frechet_bound(self):
        # corr of comonotone (Bern(1/2), 0.9/0.1 scaled) is exactly 1/3;
        # a 0.9 target is unattainable and must clamp to the top.
        x = bernoulli()
        y = EmpiricalMarginal([0.0] * 9 + [5.0])
        m = solve_rho_z(x, y, 0.9)
        assert m.clamped
        assert m.rho_z == 1.0 - 1e-6
        c_hi = c_of_rho(x, y, m.rho_z)
        assert 0.30 <= c_hi <= 0.40
        assert m.residual == pytest.approx(0.9 - c_hi, abs=1e-12)

    def test_clamp_at_the_bottom(self):
        x = bernoulli()
        y = EmpiricalMarginal([0.0] * 9 + [5.0])
        m = solve_rho_z(x, y, -0.9)
        assert m.clamped
        assert m.rho_z == -1.0 + 1e-6

    def test_flat_map_returns_zero_with_target_residual(self):
        flat = EmpiricalMarginal([2.0, 2.0, 2.0])
        m = solve_rho_z(flat, bernoulli(), 0.4)
        assert m.rho_z == 0.0
        assert m.residual == pytest.approx(0.4)
        assert not m.clamped

    def test_residual_is_what_it_claims(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            a = EmpiricalMarginal(rng.integers(0, 5, size=12))
            b = EmpiricalMarginal(rng.integers(0, 5, size=12))
            target = float(rng.uniform(-0.8, 0.8))
            m = solve_rho_z(a, b, target)
            if not m.clamped:
                back = c_of_rho(a, b, m.rho_z)
                assert m.residual == pytest.approx(abs(back - target), abs=1e-12)

    def test_target_domain(self):
        with pytest.raises(ValidationError):
            solve_rho_z(bernoulli(), bernoulli(), 1.2)


class TestThresholdPathOracle:
    """Empirical marginals skip normal_cdf through their normal-score
    thresholds and sum the second axis through slot weights. Every node
    lands on the sample the generic quantile(normal_cdf(.)) path gives,
    so only the order of the sums differs: c agrees to rounding, and
    the fit of the acceptance panel bit for bit."""

    # Largest |fast - slow| measured over the grid below: 4.2e-14.
    C_TOL = 1e-12

    @pytest.mark.parametrize("degree", [64, 128])
    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_c_of_rho_bit_identical(self, n, degree, monkeypatch):
        monkeypatch.setattr(norta, "GH_DEGREE", degree)
        rng = np.random.default_rng(100 + n)
        ties = EmpiricalMarginal(rng.integers(0, 3, size=n))
        spread = EmpiricalMarginal(rng.integers(0, 9, size=n))
        flat = EmpiricalMarginal(np.full(n, 4.0))
        rhos = np.linspace(-1.0, 1.0, 201)
        for a, b in ((ties, spread), (spread, ties), (spread, spread), (ties, flat),
                     (flat, spread)):
            for rho in rhos:
                fast = c_of_rho(a, b, float(rho))
                slow = c_of_rho(QuantileOnly(a), QuantileOnly(b), float(rho))
                assert abs(fast - slow) <= self.C_TOL, (n, degree, float(rho))

    def test_fit_bit_identical_on_the_acceptance_panel(self, monkeypatch):
        panel = ar1_height_panel()
        fast = fit(panel)

        def generic_inputs(s):
            marginals, sigma = estimate_inputs(s)
            return [QuantileOnly(m) for m in marginals], sigma

        monkeypatch.setattr(norta, "estimate_inputs", generic_inputs)
        slow = fit(panel)
        assert np.array_equal(fast.sigma_z, slow.sigma_z)
        assert np.array_equal(fast.chol, slow.chol)
        assert np.array_equal(fast.sigma_x, slow.sigma_x)
        assert np.array_equal(fast.report.clamped, slow.report.clamped)
        assert fast.report.residual.shape == slow.report.residual.shape
        assert np.max(np.abs(fast.report.residual - slow.report.residual)) <= self.C_TOL
        fast_rest, slow_rest = fast.report.to_dict(), slow.report.to_dict()
        for d in (fast_rest, slow_rest):
            # Only empirical second columns settle from watched nodes.
            del d["pairs"], d["max_residual"], d["settled_evaluations"]
        assert fast_rest == slow_rest

    def test_panel_fit_golden(self):
        # sha256 of sigma_z as fitted before the slot weights replaced
        # the per-column gather of node values.
        model = fit(ar1_height_panel())
        digest = hashlib.sha256(model.sigma_z.tobytes()).hexdigest()
        assert digest == "3978270dac067ad4ef859a30e394ceff24952996cc446ddcc959d3c4b612601a"
        assert model.report.clamp_count == 1
        assert (model.report.rho_evaluations, model.report.pair_evaluations) == (12157, 81811)
        # 39,451 of them settle from watched nodes; a change that silently
        # stops settling fails here, without any timing.
        assert model.report.settled_evaluations >= 35_000
        assert fit(ar1_height_panel()).report.to_dict() == model.report.to_dict()


class TestLockstepAgainstPerPair:
    """fit matches all pairs in lockstep rounds and settles late rounds
    from watched nodes; helpers.per_pair_fit matches one pair at a
    time, each evaluation on its own over every node. Every sigma_z
    entry and every report field but settled_evaluations must agree
    exactly, under every setting of norta's matching constants."""

    @staticmethod
    def assert_same_fit(s, degree=64, match_tol=1e-4, bisect_max_iter=200):
        # A context rather than the monkeypatch fixture: hypothesis runs
        # one test function many times.
        with pytest.MonkeyPatch.context() as mp:
            for name, value in (("GH_DEGREE", degree), ("MATCH_TOL", match_tol),
                                ("BISECT_MAX_ITER", bisect_max_iter)):
                mp.setattr(norta, name, value)
            model = fit(s)
        sigma_z, report = per_pair_fit(s, degree=degree, match_tol=match_tol,
                                       bisect_max_iter=bisect_max_iter)
        assert np.array_equal(model.sigma_z, sigma_z)
        got, want = model.report.to_dict(), report.to_dict()
        # The oracle evaluates every node each time; only fit settles.
        del got["settled_evaluations"], want["settled_evaluations"]
        assert got == want
        return model

    def test_acceptance_panel(self):
        self.assert_same_fit(ar1_height_panel())

    @pytest.mark.parametrize("match_tol, bisect_max_iter", [(0.0, 1), (0.0, 3), (1e-4, 2),
                                                            (0.0, 200)])
    def test_clamps_ties_and_a_constant_column(self, match_tol, bisect_max_iter):
        rng = np.random.default_rng(31)
        a = rng.integers(0, 4, size=12).astype(float)
        cols = [a, a, 3.0 - a, np.full(12, 2.0), rng.integers(0, 3, size=12), (a > 1) * 5.0]
        s = ScenarioSet.with_uniform_probs(np.column_stack(cols))
        model = self.assert_same_fit(s, match_tol=match_tol, bisect_max_iter=bisect_max_iter)
        assert model.report.clamp_count >= 2  # the copy and the reflection

    def test_mixed_marginal_kinds(self, monkeypatch):
        # Empirical columns of two sample counts next to quantile-only
        # ducks: one matcher holds every kind of second axis.
        rng = np.random.default_rng(12)
        s = ScenarioSet.with_uniform_probs(rng.integers(0, 5, size=(9, 5)))

        def mixed_inputs(s):
            marginals, sigma = estimate_inputs(s)
            marginals[1] = QuantileOnly(marginals[1])
            marginals[3] = EmpiricalMarginal(np.repeat(marginals[3].sorted_values, 2))
            marginals[4] = NormalMarginal()
            return marginals, sigma

        monkeypatch.setattr(norta, "estimate_inputs", mixed_inputs)
        self.assert_same_fit(s, degree=8)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_panels(self, data):
        k = data.draw(st.integers(2, 20), label="k")
        base = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                                  min_size=k, max_size=k), label="base")
        cols = list(np.array(base, dtype=float).T)
        if data.draw(st.booleans(), label="copy"):
            cols.append(cols[0].copy())  # target 1: clamps at the top
        if data.draw(st.booleans(), label="reflect"):
            cols.append(4.0 - cols[1])  # negative targets, -1 clamps at the bottom
        if data.draw(st.booleans(), label="constant"):
            cols.append(np.full(k, 3.0))
        s = ScenarioSet.with_uniform_probs(np.column_stack(cols))
        self.assert_same_fit(
            s,
            degree=data.draw(st.sampled_from([8, 64]), label="degree"),
            match_tol=data.draw(st.sampled_from([0.0, 1e-4, 0.05]), label="match_tol"),
            bisect_max_iter=data.draw(st.sampled_from([1, 2, 3, 200]), label="max_iter"),
        )


class TestWatchedNodes:
    """Late bisection rounds settle c from a few watched nodes. The
    certificate: a node that is not watched keeps, at every rho of the
    bracket, the slot of the quadrature's own z2 at its lower end."""

    EDGE = 1.0 - 1e-6  # the bisection's outer bracket is [-EDGE, EDGE]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unwatched_nodes_keep_their_slots(self, data):
        n = data.draw(st.sampled_from([2, 3, 16, 32]), label="n")
        degree = data.draw(st.sampled_from([8, 64]), label="degree")
        width = data.draw(st.floats(0.0, norta._LATE_WIDTH), label="width")
        a = data.draw(st.one_of(st.floats(-self.EDGE, self.EDGE),
                                st.floats(self.EDGE - 1e-5, self.EDGE),
                                st.floats(-self.EDGE, -self.EDGE + 1e-5)), label="a")
        a = min(a, self.EDGE - width)
        b = a + width
        matcher = norta._Matcher([EmpiricalMarginal(np.arange(n))] * 2, degree)
        idx, watched = matcher._reach(np.array([a]), np.array([b]), n)
        rhos = [a, b, 0.5 * (a + b)] + data.draw(
            st.lists(st.floats(a, b), min_size=1, max_size=8), label="rhos")
        tau = normal_score_thresholds(n)
        keep = ~watched[0]
        for rho in rhos:
            z2 = norta._node_grid(*norta._rotation(np.array([rho]), matcher.x, matcher.x))
            full = np.searchsorted(tau, z2, side="right").ravel()
            assert np.array_equal(full[keep], idx[0][keep]), (a, b, rho)

    def test_watched_slots_are_the_quadratures(self):
        matcher = norta._Matcher([EmpiricalMarginal(np.arange(16))] * 2, 64)
        rho = np.array([-0.7, 0.1, 0.6])
        nodes = np.arange(3 * 4096, dtype=matcher.node_type).reshape(3, 4096) % 4096
        z2 = norta._node_grid(*norta._rotation(rho, matcher.x, matcher.x))
        full = np.searchsorted(normal_score_thresholds(16), z2, side="right")
        assert np.array_equal(matcher.slots(rho, nodes, np.full(3, 16)),
                              full.reshape(3, -1))


small_samples = st.lists(st.integers(0, 6), min_size=2, max_size=20)
unit_interval = st.floats(-1.0, 1.0)


class TestMatchingProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_samples, small_samples, unit_interval, unit_interval)
    def test_c_is_nondecreasing_in_rho(self, xs, ys, r1, r2):
        a, b = EmpiricalMarginal(xs), EmpiricalMarginal(ys)
        lo, hi = min(r1, r2), max(r1, r2)
        assert c_of_rho(a, b, lo) <= c_of_rho(a, b, hi) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(small_samples, small_samples, unit_interval)
    def test_residual_is_the_distance_at_the_returned_rho(self, xs, ys, target):
        a, b = EmpiricalMarginal(xs), EmpiricalMarginal(ys)
        m = solve_rho_z(a, b, target)
        assert m.residual == abs(c_of_rho(a, b, m.rho_z) - target)


class TestNearestCorrelation:
    def test_psd_input_passes_through(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 6))
        s = a @ a.T
        d = np.sqrt(np.diag(s))
        corr = s / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        corr = (corr + corr.T) / 2.0
        out = nearest_correlation(corr)
        assert np.linalg.norm(out - corr) <= 1e-9

    def test_two_by_two_unchanged(self):
        a = equicorr(2, 0.9)
        assert np.linalg.norm(nearest_correlation(a) - a) <= 1e-12

    @pytest.mark.parametrize("t", [-0.55, -0.6, -0.9])
    def test_equicorrelation_projects_to_the_psd_boundary(self, t):
        out = nearest_correlation(equicorr(3, t))
        off = out[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off - (-0.5))) <= 1e-6
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-8
        assert np.array_equal(np.diag(out), np.ones(3))

    def test_beats_easy_feasible_candidates(self):
        # The repaired matrix must be at least as close as identity and
        # as the clip-and-rescale point, both trivially feasible.
        rng = np.random.default_rng(9)
        a = rng.uniform(-1.0, 1.0, size=(5, 5))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 1.0)
        out = nearest_correlation(a)
        dist = np.linalg.norm(out - a)
        assert dist <= np.linalg.norm(np.eye(5) - a) + 1e-8
        w, v = np.linalg.eigh(a)
        clip = (v * np.maximum(w, 0.0)) @ v.T
        d = np.sqrt(np.diag(clip))
        clip = clip / np.outer(d, d)
        np.fill_diagonal(clip, 1.0)
        clip = (clip + clip.T) / 2.0
        assert dist <= np.linalg.norm(clip - a) + 1e-8

    def test_output_contract(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(-0.99, 0.99, size=(6, 6))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 1.0)
        out = nearest_correlation(a)
        assert np.array_equal(out, out.T)
        assert np.array_equal(np.diag(out), np.ones(6))
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-8

    def test_rejects_malformed_input(self):
        with pytest.raises(ValidationError):
            nearest_correlation(np.array([[1.0, 0.3], [0.1, 1.0]]))
        with pytest.raises(ValidationError):
            nearest_correlation(np.array([[2.0, 0.3], [0.3, 1.0]]))


class TestEstimateInputs:
    def test_identical_columns_have_unit_correlation(self):
        s = ScenarioSet.with_uniform_probs([[1.0, 1.0], [4.0, 4.0], [2.0, 2.0]])
        _, sigma = estimate_inputs(s)
        assert sigma[0, 1] == 1.0

    def test_constant_column_falls_back_to_independence(self):
        s = ScenarioSet.with_uniform_probs([[3.0, 1.0], [3.0, 4.0], [3.0, 2.0]])
        marginals, sigma = estimate_inputs(s)
        assert sigma[0, 1] == 0.0
        assert marginals[0].is_degenerate

    def test_needs_two_scenarios(self):
        with pytest.raises(ValidationError):
            estimate_inputs(ScenarioSet.with_uniform_probs([[1.0, 2.0]]))

    def test_shape_and_symmetry(self):
        rng = np.random.default_rng(2)
        s = ScenarioSet.with_uniform_probs(rng.integers(0, 5, size=(12, 4)))
        marginals, sigma = estimate_inputs(s)
        assert len(marginals) == 4
        assert sigma.shape == (4, 4)
        assert np.array_equal(sigma, sigma.T)
        assert np.array_equal(np.diag(sigma), np.ones(4))

    def test_targets_match_per_pair_pearson_bit_for_bit(self):
        # Each column centered once and one dot per pair are the float
        # operations of stats.pearson_corr, so every target keeps its bits:
        # small and wide panels, constant columns, near-collinear columns
        # that reach the clamp, and the 72-column panel.
        rng = np.random.default_rng(8)
        sets = [ar1_height_panel().scenarios]
        for _ in range(40):
            k, n = int(rng.integers(2, 40)), int(rng.integers(2, 30))
            heights = rng.integers(0, int(rng.integers(1, 13)), size=(k, n)).astype(float)
            heights[:, rng.random(n) < 0.15] = 3.0
            if n > 2:
                heights[:, 1] = heights[:, 0] * 3.0 + 1.0
                heights[:, 2] = -0.1 * heights[:, 0]
            sets.append(heights)
        sets.append(rng.standard_normal((900, 6)) * 1e3)
        for heights in sets:
            s = ScenarioSet.with_uniform_probs(heights)
            got = estimate_inputs(s)[1]
            assert got.tobytes() == per_pair_estimate_inputs(s).tobytes()
            assert np.all(np.abs(got) <= 1.0)


class TestScenarioSet:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ScenarioSet(np.zeros((2, 1)), [0.5, 0.6])

    def test_probs_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            ScenarioSet(np.zeros((2, 1)), [1.5, -0.5])

    def test_needs_2d(self):
        with pytest.raises(ValidationError):
            ScenarioSet(np.zeros(3), [1.0])

    def test_columns_must_match_width(self):
        with pytest.raises(ValidationError):
            ScenarioSet(np.zeros((2, 2)), [0.5, 0.5], columns=(7,))

    def test_height_validation(self):
        ScenarioSet.with_uniform_probs([[0.0, 3.0]]).validate_heights()
        with pytest.raises(ValidationError):
            ScenarioSet.with_uniform_probs([[-1.0, 3.0]]).validate_heights()
        with pytest.raises(ValidationError):
            ScenarioSet.with_uniform_probs([[0.5, 3.0]]).validate_heights()


class TestFit:
    def test_uncorrelated_design_yields_exact_identity(self):
        # The two columns are orthogonal after centering, so the target,
        # base, repaired, and factored matrices are all exactly I.
        s = ScenarioSet.with_uniform_probs([[2.0, 2.0], [2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        model = fit(s)
        eye = np.eye(2)
        assert np.array_equal(model.sigma_x, eye)
        assert np.array_equal(model.sigma_z, eye)
        assert np.array_equal(model.y, eye)
        assert np.array_equal(model.chol, eye)
        assert model.report.repair_distance == 0.0
        assert model.report.chol_jitter == 0.0

    def test_indefinite_base_matrix_is_repaired(self):
        # Three binary columns engineered so every pairwise correlation
        # is exactly -7/20; the matched base matrix is equicorrelated
        # around -0.52, which is outside the PSD cone for n=3.
        rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0), (1, 0, 0),
                (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)]
        s = ScenarioSet.with_uniform_probs(np.array(rows, dtype=float))
        model = fit(s)
        for i in range(3):
            for j in range(i + 1, 3):
                assert model.sigma_x[i, j] == pytest.approx(-0.35, abs=1e-12)
                assert model.sigma_z[i, j] == pytest.approx(-0.522, abs=5e-3)
        assert np.min(np.linalg.eigvalsh(model.sigma_z)) < -0.01
        assert 0.04 <= model.report.repair_distance <= 0.07
        off = model.y[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off - (-0.5))) <= 1e-4
        assert np.min(np.linalg.eigvalsh(model.y)) >= -1e-8
        assert model.report.chol_jitter <= 1e-8
        assert np.linalg.norm(model.chol @ model.chol.T - model.y) <= 1e-8

    def test_report_covers_every_pair(self):
        rng = np.random.default_rng(8)
        s = ScenarioSet.with_uniform_probs(rng.integers(0, 4, size=(10, 4)))
        model = fit(s)
        rep = model.report
        assert rep.residual.shape == rep.clamped.shape == (6,)
        assert rep.clamped.dtype == bool
        # Entry k is pair k of np.triu_indices: its residual is |c - target|
        # at that pair's sigma_z and sigma_x entries.
        for k, (i, j) in enumerate(zip(*np.triu_indices(4, 1))):
            c = c_of_rho(model.marginals[i], model.marginals[j], model.sigma_z[i, j])
            assert abs(abs(c - model.sigma_x[i, j]) - rep.residual[k]) <= 1e-12
        assert rep.clamp_count == int(rep.clamped.sum())
        assert rep.max_residual == rep.residual.max()
        d = rep.to_dict()
        assert set(d) == {"pairs", "repair_distance", "chol_jitter",
                          "clamp_count", "max_residual", "rho_evaluations",
                          "pair_evaluations", "settled_evaluations"}
        assert d["pairs"] == {"residual": rep.residual.tolist(),
                              "clamped": rep.clamped.tolist()}

    def test_columns_carried_through(self):
        s = ScenarioSet.with_uniform_probs([[0.0, 1.0], [2.0, 0.0]], columns=(12, 40))
        model = fit(s)
        assert model.columns == (12, 40)
        assert model.dim == 2

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(15)
        s = ScenarioSet.with_uniform_probs(rng.integers(0, 5, size=(9, 5)))
        a = fit(s)
        b = fit(s)
        assert np.array_equal(a.sigma_z, b.sigma_z)
        assert np.array_equal(a.chol, b.chol)
        assert a.report.to_dict() == b.report.to_dict()

    def test_matching_settings_are_constants(self):
        # GH_DEGREE, MATCH_TOL and BISECT_MAX_ITER, not keywords.
        assert [list(inspect.signature(f).parameters) for f in (fit, c_of_rho, solve_rho_z)] \
            == [["s"], ["marginal_i", "marginal_j", "rho_z"],
                ["marginal_i", "marginal_j", "rho_x_target"]]

    def test_needs_two_scenarios(self):
        with pytest.raises(ValidationError):
            fit(ScenarioSet.with_uniform_probs([[1.0, 2.0]]))


class TestSample:
    def test_point_mass_model_emits_the_point(self):
        s = ScenarioSet.with_uniform_probs([[2.0, 5.0, 0.0]] * 3)
        model = fit(s)
        out = sample(model, 40, seed=1)
        assert np.array_equal(out.scenarios, np.tile([2.0, 5.0, 0.0], (40, 1)))

    def test_uniform_probabilities_and_shape(self):
        model = make_model([EmpiricalMarginal([0.0, 1.0, 2.0])] * 2, 0.3)
        out = sample(model, 250, seed=3)
        assert out.scenarios.shape == (250, 2)
        assert np.array_equal(out.probs, np.full(250, 1.0 / 250))

    def test_marginal_frequencies_converge(self):
        model = NortaModel(marginals=[EmpiricalMarginal(np.arange(10.0))],
                           sigma_x=np.eye(1), sigma_z=np.eye(1), y=np.eye(1),
                           chol=np.eye(1), report=FitReport())
        out = sample(model, 100_000, seed=11)
        for v in range(10):
            freq = float(np.mean(out.scenarios[:, 0] == v))
            assert freq == pytest.approx(0.1, abs=0.01)

    def test_identity_factor_gives_independent_columns(self):
        model = make_model([EmpiricalMarginal(np.arange(10.0)),
                            EmpiricalMarginal(np.arange(5.0))], 0.0)
        out = sample(model, 10_000, seed=21)
        r = pearson_corr(out.scenarios[:, 0], out.scenarios[:, 1])
        assert abs(r) <= 0.05

    def test_correlation_recovery_with_analytic_marginals(self):
        # With normal marginals the transform is linear, so the sampled
        # correlation should match the base correlation to CLT accuracy.
        m = 50_000
        model = make_model([NormalMarginal(), NormalMarginal()], 0.6)
        out = sample(model, m, seed=33)
        r = pearson_corr(out.scenarios[:, 0], out.scenarios[:, 1])
        assert abs(r - 0.6) <= 3.0 / np.sqrt(m) + 2e-3

    def test_negative_dependence_survives_the_repair(self):
        rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0), (1, 0, 0),
                (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)]
        model = fit(ScenarioSet.with_uniform_probs(np.array(rows, dtype=float)))
        out = sample(model, 20_000, seed=5)
        for i in range(3):
            for j in range(i + 1, 3):
                r = pearson_corr(out.scenarios[:, i], out.scenarios[:, j])
                assert -0.45 <= r <= -0.20

    def test_values_stay_on_the_marginal_support(self):
        rng = np.random.default_rng(44)
        s = ScenarioSet.with_uniform_probs(rng.integers(0, 6, size=(14, 3)))
        model = fit(s)
        out = sample(model, 500, seed=9)
        for j in range(3):
            support = set(s.scenarios[:, j])
            assert set(out.scenarios[:, j]) <= support

    def test_seed_determinism(self):
        model = make_model([EmpiricalMarginal([0.0, 1.0, 3.0])] * 2, 0.4)
        a = sample(model, 64, seed=123)
        b = sample(model, 64, seed=123)
        c = sample(model, 64, seed=124)
        assert np.array_equal(a.scenarios, b.scenarios)
        assert not np.array_equal(a.scenarios, c.scenarios)

    def test_columns_passthrough(self):
        s = ScenarioSet.with_uniform_probs([[0.0], [2.0]], columns=(17,))
        out = sample(fit(s), 5, seed=0)
        assert out.columns == (17,)

    def test_rejects_nonpositive_count(self):
        model = make_model([EmpiricalMarginal([0.0, 1.0])] * 2, 0.0)
        with pytest.raises(ValidationError):
            sample(model, 0, seed=1)


class TestOneColumnPanel:
    """A K x 1 panel has no pairs to match."""

    def test_fit_and_sample(self):
        s = ScenarioSet.with_uniform_probs([[0.0], [2.0], [1.0], [2.0]], columns=(5,))
        model = fit(s)
        assert np.array_equal(model.sigma_z, [[1.0]])
        assert model.report.to_dict() == {"pairs": {"residual": [], "clamped": []},
                                          "repair_distance": 0.0,
                                          "chol_jitter": 0.0, "clamp_count": 0,
                                          "max_residual": 0.0, "rho_evaluations": 0,
                                          "pair_evaluations": 0, "settled_evaluations": 0}
        out = sample(model, 50, seed=0)
        assert out.columns == (5,)
        assert set(out.scenarios[:, 0]) <= {0.0, 1.0, 2.0}
