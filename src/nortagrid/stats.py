"""Univariate and bivariate statistical primitives.

Empirical marginals with generalized-inverse quantiles (and their exact
normal-score thresholds), the standard normal CDF and its inverse,
Pearson correlation, the exact earth mover's distance between
empirical distributions, a sample's spread summary, and
correlation-matrix checks.
All array-valued entry points accept scalars or ndarrays.

scipy is imported by normal_cdf and normal_quantile at their first call,
not with this module, so the commands that never fit or sample a NORTA
model never load it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = [
    "ConstantVectorError",
    "EmpiricalMarginal",
    "check_correlation_matrix",
    "emd",
    "normal_cdf",
    "normal_quantile",
    "normal_score_thresholds",
    "pearson_corr",
    "spread",
]

_SQRT2 = math.sqrt(2.0)
_THRESHOLD_CACHE: dict[int, np.ndarray] = {}


class ConstantVectorError(ValidationError):
    """Pearson correlation is undefined for a constant vector."""


class EmpiricalMarginal:
    """Empirical distribution of a univariate sample.

    The CDF is the right-continuous step function
    ``F(x) = #{samples <= x} / n`` and the quantile is its generalized
    inverse ``inf{x : F(x) >= u}``, so a marginal built from integer
    heights can only ever emit those heights.
    """

    __slots__ = ("sorted_values", "n", "_cumprobs")

    def __init__(self, values):
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValidationError("empirical marginal needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("samples must be finite")
        self.sorted_values = np.sort(arr)
        self.n = int(arr.size)
        self._cumprobs = np.arange(1, self.n + 1) / self.n

    def cdf(self, x):
        """Fraction of samples <= x."""
        idx = np.searchsorted(self.sorted_values, x, side="right")
        out = idx / self.n
        return float(out) if np.ndim(x) == 0 else out

    def quantile(self, u):
        """Smallest sample value v with cdf(v) >= u, for u in (0, 1]."""
        u_arr = np.asarray(u, dtype=float)
        if np.any((u_arr <= 0.0) | (u_arr > 1.0)):
            raise ValidationError("quantile level must lie in (0, 1]")
        idx = np.searchsorted(self._cumprobs, u_arr, side="left")
        out = self.sorted_values[np.minimum(idx, self.n - 1)]
        return float(out) if np.ndim(u) == 0 else out

    def quantile_of_normal(self, z):
        """``quantile(normal_cdf(z))`` for an ndarray z, bit for bit, by a
        lookup in the sample count's normal-score thresholds: no CDF
        evaluation and no level validation."""
        tau = normal_score_thresholds(self.n)
        return self.sorted_values[np.searchsorted(tau, z, side="right")]

    def mean(self):
        return float(self.sorted_values.mean())

    def var(self):
        """Population variance of the empirical distribution."""
        return float(self.sorted_values.var())

    @property
    def is_degenerate(self):
        return bool(self.sorted_values[0] == self.sorted_values[-1])

    def __repr__(self):  # pragma: no cover
        return f"EmpiricalMarginal(n={self.n}, support=[{self.sorted_values[0]}, {self.sorted_values[-1]}])"


def normal_cdf(z):
    """Standard normal CDF.

    Evaluated through erfc in complementary form on each side, which keeps
    the result within about one ulp everywhere (tail values are computed
    without cancellation and the opposite tail rounds once against 1).
    """
    from scipy.special import erfc

    z_arr = np.asarray(z, dtype=float)
    tail = 0.5 * erfc(np.abs(z_arr) / _SQRT2)
    out = np.where(z_arr <= 0.0, tail, 1.0 - tail)
    return float(out) if np.ndim(z) == 0 else out


def normal_score_thresholds(n):
    """Exact normal-score cut points of an n-sample empirical quantile.

    ``tau[m]`` is the smallest double z with ``normal_cdf(z) > (m+1)/n``,
    for m = 0..n-2. As normal_cdf is nondecreasing in z, this makes
    ``EmpiricalMarginal.quantile(normal_cdf(z))`` equal to
    ``sorted_values[searchsorted(tau, z, side="right")]`` for every
    double z. Each cut is found by bisection over the ordered bit
    patterns of the doubles in [-40, 40], with normal_cdf itself as the
    oracle; the n - 1 cuts of one n are computed once and cached
    (read-only).
    """
    try:
        return _THRESHOLD_CACHE[n]
    except KeyError:
        pass
    levels = (np.arange(1, n + 1) / n)[:-1]  # the quantile's own cumprobs
    # Ordered keys: doubles sort like these unsigned integers.
    sign = np.uint64(1 << 63)

    def key(x):
        bits = np.asarray(x, dtype=float).view(np.uint64)
        return np.where(bits & sign, ~bits, bits | sign)

    def value(k):
        return np.where(k & sign, k & ~sign, ~k).view(float)

    lo = np.full(levels.shape, key(-40.0), dtype=np.uint64)  # cdf(lo) <= level
    hi = np.full(levels.shape, key(40.0), dtype=np.uint64)   # cdf(hi) > level
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // np.uint64(2)
        above = normal_cdf(value(mid)) > levels
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    tau = value(hi)
    tau.flags.writeable = False
    _THRESHOLD_CACHE[n] = tau
    return tau


def normal_quantile(u):
    """Inverse standard normal CDF on the open interval (0, 1), by
    scipy.special.ndtri: normal_quantile(normal_cdf(z)) recovers z to
    ~1e-8 absolute over |z| <= 6 (the representation limit near u=1).
    """
    from scipy.special import ndtri

    u_arr = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(u_arr)) or np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
        raise ValidationError("normal_quantile is defined on the open interval (0, 1)")
    out = ndtri(u_arr)
    return float(out) if np.ndim(u) == 0 else out


def pearson_corr(xs, ys):
    """Sample Pearson correlation of two equal-length vectors."""
    x = np.asarray(xs, dtype=float).ravel()
    y = np.asarray(ys, dtype=float).ravel()
    if x.size != y.size:
        raise ValidationError("vectors must have equal length")
    if x.size < 2:
        raise ValidationError("correlation needs at least 2 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantVectorError("correlation undefined for a constant vector")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def spread(values):
    """Table-style spread of a non-empty sample: (std, min, 25%, 50%,
    75%, max), std with the n-1 denominator (0 for one value) and
    quartiles by linear interpolation."""
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    q25, q50, q75 = (float(v) for v in np.percentile(arr, [25.0, 50.0, 75.0]))
    return std, float(arr.min()), q25, q50, q75, float(arr.max())


def emd(f: EmpiricalMarginal, g: EmpiricalMarginal):
    """Exact earth mover's distance between two empirical distributions.

    Both CDFs are step functions, so the integral of |F - G| is a finite
    sum over the merged breakpoints. For equal sample counts this equals
    the mean absolute difference of the sorted samples.
    """
    grid = np.union1d(f.sorted_values, g.sorted_values)
    if grid.size < 2:
        return 0.0
    gaps = np.diff(grid)
    diff = np.abs(f.cdf(grid[:-1]) - g.cdf(grid[:-1]))
    return float(diff @ gaps)


def check_correlation_matrix(a, *, require_psd=False, eig_tol=1e-8, name="matrix"):
    """Validate that `a` is a correlation matrix; returns it as ndarray.

    Checks symmetry, unit diagonal and entries in [-1, 1] (all to 1e-12);
    with require_psd=True also checks the smallest eigenvalue >= -eig_tol.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-12):
        raise ValidationError(f"{name} must be symmetric")
    if not np.allclose(np.diag(arr), 1.0, rtol=0.0, atol=1e-12):
        raise ValidationError(f"{name} must have a unit diagonal")
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValidationError(f"{name} entries must lie in [-1, 1]")
    if require_psd:
        w = np.linalg.eigvalsh((arr + arr.T) / 2.0)
        if w[0] < -eig_tol:
            raise ValidationError(f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    return arr
