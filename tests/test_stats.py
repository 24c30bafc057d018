"""Tests for the scalar statistics layer.

The normal CDF/quantile reference values were computed once with
60-digit complementary-error-function arithmetic and frozen here, so
these tests do not depend on any other library being installed.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nortagrid
from nortagrid.errors import ValidationError
from nortagrid.stats import (
    ConstantVectorError,
    EmpiricalMarginal,
    check_correlation_matrix,
    emd,
    normal_cdf,
    normal_quantile,
    normal_score_thresholds,
    pearson_corr,
)

# (z, Phi(z)) to 22 significant digits.
PHI_TABLE = (
    (-8.0, 6.220960574271784123516e-16),
    (-6.0, 9.865876450376981407009e-10),
    (-4.0, 0.00003167124183311992125377),
    (-2.5, 0.006209665325776135166978),
    (-1.0, 0.1586552539314570514148),
    (-0.5, 0.3085375387259868963623),
    (0.0, 0.5),
    (0.3, 0.6179114221889526373065),
    (1.0, 0.8413447460685429485852),
    (1.959963984540054, 0.9749999999999999862347),
    (3.0, 0.9986501019683699054733),
    (6.0, 0.9999999990134123549623),
    (8.0, 0.9999999999999993779039),
)

# (u, Phi^-1(u)) to 22 significant digits.
QUANTILE_TABLE = (
    (0.5, 0.0),
    (0.975, 1.959963984540054235525),
    (0.01, -2.326347874040841100886),
    (1e-10, -6.361340902404056204695),
)


class TestNormalCdf:
    def test_frozen_table(self):
        for z, ref in PHI_TABLE:
            assert normal_cdf(z) == pytest.approx(ref, abs=1e-10)

    def test_near_machine_precision_in_the_bulk(self):
        # erfc keeps relative error ~1e-15 even deep in the tails.
        for z, ref in PHI_TABLE:
            assert normal_cdf(z) == pytest.approx(ref, rel=5e-14)

    def test_symmetry(self):
        for z in (0.1, 0.7, 1.3, 2.9, 5.5):
            assert normal_cdf(-z) + normal_cdf(z) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_nondecreasing(self):
        grid = np.linspace(-8.5, 8.5, 2001)
        vals = normal_cdf(grid)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] >= 0.0 and vals[-1] <= 1.0

    def test_accepts_arrays(self):
        out = normal_cdf(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[1] == 0.5


class TestNormalQuantile:
    def test_frozen_table(self):
        for u, ref in QUANTILE_TABLE:
            assert normal_quantile(u) == pytest.approx(ref, abs=1e-9)

    def test_round_trip_to_1e8(self):
        zs = np.linspace(-6.0, 6.0, 601)
        back = normal_quantile(normal_cdf(zs))
        assert np.max(np.abs(back - zs)) <= 1e-8

    def test_forward_trip_on_unit_interval(self):
        us = np.concatenate([np.array([1e-12, 1e-6]),
                             np.linspace(0.001, 0.999, 199),
                             np.array([1.0 - 1e-9])])
        back = normal_cdf(normal_quantile(us))
        assert np.max(np.abs(back - us)) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, 1.5, math.nan])
    def test_domain_is_open_interval(self, bad):
        with pytest.raises(ValidationError):
            normal_quantile(bad)


class TestEmpiricalMarginal:
    def test_cdf_examples(self):
        m = EmpiricalMarginal([1.0, 2.0, 2.0, 4.0])
        assert m.cdf(2.0) == 0.75
        assert m.cdf(0.5) == 0.0
        assert m.cdf(4.0) == 1.0
        assert m.cdf(100.0) == 1.0

    def test_cdf_below_and_above_support(self):
        assert EmpiricalMarginal([5.0]).cdf(4.999) == 0.0
        assert EmpiricalMarginal([0.0, 1.0]).cdf(1.0) == 1.0

    def test_cdf_right_continuous_step(self):
        m = EmpiricalMarginal([1.0, 2.0, 2.0, 4.0])
        assert m.cdf(2.0 - 1e-12) == 0.25
        assert m.cdf(2.0) == 0.75

    def test_quantile_examples(self):
        m = EmpiricalMarginal([1.0, 2.0, 2.0, 4.0])
        assert m.quantile(0.5) == 2.0
        assert m.quantile(1.0) == 4.0
        assert m.quantile(0.25) == 1.0
        assert m.quantile(0.25 + 1e-12) == 2.0

    def test_quantile_single_atom(self):
        m = EmpiricalMarginal([7.0])
        for u in (1e-9, 0.5, 1.0):
            assert m.quantile(u) == 7.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0 + 1e-9])
    def test_quantile_domain(self, bad):
        with pytest.raises(ValidationError):
            EmpiricalMarginal([1.0, 2.0]).quantile(bad)

    def test_quantile_inverts_cdf_on_the_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vals = rng.integers(0, 8, size=rng.integers(1, 30)).astype(float)
            m = EmpiricalMarginal(vals)
            for v in np.unique(vals):
                # smallest sample value attaining that cdf level
                assert m.quantile(m.cdf(v)) == v

    def test_quantile_lands_on_support(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=17)
        m = EmpiricalMarginal(vals)
        support = set(vals)
        for u in rng.uniform(1e-9, 1.0, size=200):
            assert m.quantile(u) in support

    def test_moments(self):
        m = EmpiricalMarginal([1.0, 2.0, 2.0, 4.0])
        assert m.mean() == pytest.approx(2.25)
        assert m.var() == pytest.approx(np.var([1.0, 2.0, 2.0, 4.0]))

    def test_degenerate_flag(self):
        assert EmpiricalMarginal([3.0, 3.0, 3.0]).is_degenerate
        assert not EmpiricalMarginal([3.0, 3.1]).is_degenerate

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError):
            EmpiricalMarginal([])
        with pytest.raises(ValidationError):
            EmpiricalMarginal([1.0, math.inf])
        with pytest.raises(ValidationError):
            EmpiricalMarginal([math.nan])


class TestNormalScoreThresholds:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 800])
    def test_each_cut_is_the_first_double_past_its_level(self, n):
        tau = normal_score_thresholds(n)
        assert tau.shape == (n - 1,)
        for m, t in enumerate(tau, start=1):
            assert normal_cdf(t) > m / n >= normal_cdf(np.nextafter(t, -np.inf))

    def test_cached_and_read_only(self):
        tau = normal_score_thresholds(16)
        assert normal_score_thresholds(16) is tau
        assert not tau.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17])
    def test_lookup_equals_quantile_of_cdf(self, n):
        rng = np.random.default_rng(n)
        m = EmpiricalMarginal(rng.integers(0, 4, size=n))
        tau = normal_score_thresholds(n)
        # The cuts and their neighbouring doubles are where an off-by-one
        # would show; the rest spans both tails.
        z = np.concatenate([tau, np.nextafter(tau, -np.inf), np.nextafter(tau, np.inf),
                            np.linspace(-30.0, 30.0, 2001), rng.normal(size=500)])
        assert np.array_equal(m.quantile_of_normal(z), m.quantile(normal_cdf(z)))
        grid = z[-128:].reshape(2, 64)
        assert np.array_equal(m.quantile_of_normal(grid), m.quantile(normal_cdf(grid)))


class TestPearsonCorr:
    def test_perfect_positive(self):
        assert pearson_corr([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_corr([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_hand_value(self):
        # centered products: 2.25 - 0.25 - 0.25 + 2.25 = 4, denom 5
        assert pearson_corr([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_clipped_to_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            assert -1.0 <= pearson_corr(x, y) <= 1.0

    def test_constant_vector_raises_dedicated_error(self):
        with pytest.raises(ConstantVectorError):
            pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantVectorError):
            pearson_corr([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_constant_error_is_a_validation_error(self):
        assert issubclass(ConstantVectorError, ValidationError)

    def test_shape_errors(self):
        with pytest.raises(ValidationError):
            pearson_corr([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            pearson_corr([1.0], [2.0])

    def test_matches_numpy_on_random_data(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = rng.normal(size=40)
            y = 0.3 * x + rng.normal(size=40)
            assert pearson_corr(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


class TestEmd:
    def test_identical_is_zero(self):
        m = EmpiricalMarginal([0.0, 1.0, 5.0])
        assert emd(m, m) == 0.0

    def test_point_masses(self):
        assert emd(EmpiricalMarginal([0.0]), EmpiricalMarginal([1.0])) == pytest.approx(1.0)
        assert emd(EmpiricalMarginal([2.0]), EmpiricalMarginal([5.5])) == pytest.approx(3.5)

    def test_same_distribution_different_sample_sizes(self):
        a = EmpiricalMarginal([0.0, 1.0])
        b = EmpiricalMarginal([0.0, 0.0, 1.0, 1.0])
        assert emd(a, b) == 0.0

    def test_equal_sizes_reduce_to_sorted_mean_absolute_difference(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            k = int(rng.integers(2, 15))
            a = rng.integers(0, 10, size=k).astype(float)
            b = rng.integers(0, 10, size=k).astype(float)
            expect = np.mean(np.abs(np.sort(a) - np.sort(b)))
            got = emd(EmpiricalMarginal(a), EmpiricalMarginal(b))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_shift_by_constant(self):
        rng = np.random.default_rng(29)
        vals = rng.integers(0, 6, size=9).astype(float)
        a = EmpiricalMarginal(vals)
        for c in (0.5, 2.0, 7.25):
            assert emd(a, EmpiricalMarginal(vals + c)) == pytest.approx(c, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ms = [EmpiricalMarginal(rng.integers(0, 8, size=rng.integers(1, 12)).astype(float))
                  for _ in range(3)]
            a, b, c = ms
            assert emd(a, b) == pytest.approx(emd(b, a), abs=1e-12)
            assert emd(a, b) >= 0.0
            assert emd(a, c) <= emd(a, b) + emd(b, c) + 1e-12


class TestCheckCorrelationMatrix:
    def test_accepts_valid(self):
        a = np.array([[1.0, 0.3], [0.3, 1.0]])
        out = check_correlation_matrix(a, require_psd=True)
        assert np.array_equal(out, a)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            check_correlation_matrix(np.array([[1.0, 0.3], [0.2, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValidationError):
            check_correlation_matrix(np.array([[1.0, 0.0], [0.0, 0.9]]))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValidationError):
            check_correlation_matrix(np.array([[1.0, 1.2], [1.2, 1.0]]))

    def test_rejects_indefinite_when_asked(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        check_correlation_matrix(bad)  # entrywise fine
        with pytest.raises(ValidationError):
            check_correlation_matrix(bad, require_psd=True)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            check_correlation_matrix(np.ones((2, 3)))


class TestScipyLoadedAtFirstUse:
    """Only fit and generate need scipy (normal_cdf, normal_quantile), so
    importing the CLI must not load it: it is most of a fresh start-up."""

    @staticmethod
    def modules_after(code):
        root = str(Path(nortagrid.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code + "; import sys; print('scipy.special' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()[-1]

    def test_cli_import_leaves_scipy_unloaded(self):
        assert self.modules_after("import nortagrid.cli") == "False"

    def test_first_normal_cdf_call_loads_it(self):
        code = "from nortagrid.stats import normal_cdf; normal_cdf(0.5)"
        assert self.modules_after(code) == "True"
