"""NORTA fitting and correlation-preserving scenario generation.

Pipeline: estimate empirical marginals and a target correlation matrix
from K observed scenarios; invert the correlation-matching function
c(rho_z) pairwise by bisection to get the base-normal correlation
matrix; repair it to the nearest correlation matrix if the entrywise
inversion left the PSD cone; factor it; sample by pushing correlated
normals through the marginal quantiles.

The pairwise bisections run together as array code: each round
evaluates c at every unfinished pair's midpoint in one call. Every
bracket starts from the same interval, so many pairs ask for the same
rho_z. Each distinct rho_z's rotated quadrature nodes are looked up in
the normal-score thresholds once per round and sample count, and folded
into a slot-weight matrix: how much quadrature weight falls on each
sample. Every empirical column with that sample count takes its
moments from the same matrix. Each column's first-axis half is built
once per fit. No value depends on which pairs share a round, so a fit
gives bit for bit what matching each pair alone through the same slot
weights gives; against evaluating every node's value, only the order
of the sums differs.

Marginals only need a ``quantile(u)`` method accepting ndarrays, so
analytic marginals can stand in for empirical ones (used heavily in the
test-suite oracles).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import NumericalError, ValidationError
from .stats import (
    ConstantVectorError,
    EmpiricalMarginal,
    check_correlation_matrix,
    normal_cdf,
    normal_quantile,
    normal_score_thresholds,
    pearson_corr,
)

__all__ = [
    "FitReport",
    "NortaModel",
    "PairMatch",
    "RhoMatch",
    "ScenarioSet",
    "c_of_rho",
    "estimate_inputs",
    "fit",
    "nearest_correlation",
    "sample",
    "solve_rho_z",
]

# nearest_correlation stops once a sweep moves the matrix by at most
# PSD_TOL (Frobenius), or after _PSD_MAX_ITER sweeps.
PSD_TOL = 1e-9
_PSD_MAX_ITER = 1000
_GH_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_SQRT2 = math.sqrt(2.0)
# Doubles per transient array of a matching batch (128 KiB): 4 rhos' nodes
# at degree 64. Half as much made the 72-column panel's fit ~25% slower
# (twice the batches); twice as much put every batch on fresh pages
# (glibc malloc: ~270k page faults, +0.3 s per fit) and lifts the fit's
# peak memory.
_CHUNK = 1 << 14
_I, _J = np.array([0]), np.array([1])  # the one pair of a two-column matcher


@dataclass(frozen=True)
class ScenarioSet:
    """A weighted set of scenarios: one row per scenario, one column per
    flooded substation. `columns` optionally carries the substation ids
    in column order (used by file round-trips)."""

    scenarios: np.ndarray
    probs: np.ndarray
    columns: tuple | None = None

    def __post_init__(self):
        scen = np.asarray(self.scenarios, dtype=float)
        if scen.ndim != 2:
            raise ValidationError("scenarios must be a 2-D array (K x n)")
        probs = np.asarray(self.probs, dtype=float).ravel()
        if probs.size != scen.shape[0]:
            raise ValidationError("need exactly one probability per scenario")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValidationError("probabilities must be non-negative and finite")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValidationError("probabilities must sum to 1 within 1e-12")
        if not np.all(np.isfinite(scen)):
            raise ValidationError("scenario values must be finite")
        if self.columns is not None and len(self.columns) != scen.shape[1]:
            raise ValidationError("column ids must match scenario width")
        object.__setattr__(self, "scenarios", scen)
        object.__setattr__(self, "probs", probs)
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))

    @classmethod
    def with_uniform_probs(cls, scenarios, columns=None):
        scen = np.asarray(scenarios, dtype=float)
        if scen.ndim != 2 or scen.shape[0] == 0:
            raise ValidationError("scenarios must be a non-empty 2-D array")
        k = scen.shape[0]
        return cls(scen, np.full(k, 1.0 / k), columns=columns)

    @property
    def n_scenarios(self):
        return int(self.scenarios.shape[0])

    @property
    def dim(self):
        return int(self.scenarios.shape[1])

    def validate_heights(self):
        """Flood-data check: every value a non-negative integer."""
        scen = self.scenarios
        if np.any(scen < 0.0):
            raise ValidationError("flood heights must be non-negative")
        if not np.allclose(scen, np.round(scen), rtol=0.0, atol=1e-9):
            raise ValidationError("flood heights must be integer-valued")
        return self


class RhoMatch(NamedTuple):
    rho_z: float
    residual: float
    clamped: bool


@dataclass(frozen=True)
class PairMatch:
    i: int
    j: int
    target: float
    rho_z: float
    residual: float
    clamped: bool


@dataclass
class FitReport:
    """Per-pair matches, the PSD repair and jitter, and the matching work:
    distinct rhos and (pair, rho) evaluations of c summed over the
    bisection rounds."""

    pairs: list = field(default_factory=list)
    repair_distance: float = 0.0
    chol_jitter: float = 0.0
    rho_evaluations: int = 0
    pair_evaluations: int = 0

    @property
    def clamp_count(self):
        return sum(1 for p in self.pairs if p.clamped)

    @property
    def max_residual(self):
        return max((p.residual for p in self.pairs), default=0.0)

    def to_dict(self):
        return {
            "pairs": [
                {"i": p.i, "j": p.j, "target": p.target, "rho_z": p.rho_z,
                 "residual": p.residual, "clamped": p.clamped}
                for p in self.pairs
            ],
            "repair_distance": self.repair_distance,
            "chol_jitter": self.chol_jitter,
            "clamp_count": self.clamp_count,
            "max_residual": self.max_residual,
            "rho_evaluations": self.rho_evaluations,
            "pair_evaluations": self.pair_evaluations,
        }


@dataclass(frozen=True)
class NortaModel:
    """Fitted generator: marginals plus base-normal correlation factor."""

    marginals: list
    sigma_x: np.ndarray
    sigma_z: np.ndarray
    y: np.ndarray
    chol: np.ndarray
    report: FitReport
    columns: tuple | None = None

    @property
    def dim(self):
        return len(self.marginals)


def estimate_inputs(s: ScenarioSet):
    """Empirical marginals and pairwise Pearson target correlations.

    A constant column has undefined correlations; its off-diagonal
    entries fall back to 0 (independence) so fitting can proceed.
    """
    if s.n_scenarios < 2:
        raise ValidationError("need at least 2 scenarios to estimate correlations")
    n = s.dim
    marginals = [EmpiricalMarginal(s.scenarios[:, j]) for j in range(n)]
    sigma = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                r = pearson_corr(s.scenarios[:, i], s.scenarios[:, j])
            except ConstantVectorError:
                r = 0.0
            sigma[i, j] = sigma[j, i] = r
    return marginals, sigma


def _gh_nodes(degree):
    try:
        return _GH_CACHE[degree]
    except KeyError:
        x, w = hermgauss(degree)
        wn = w / math.sqrt(math.pi)  # E[f(Z)] = sum wn_k f(sqrt(2) x_k)
        _GH_CACHE[degree] = (x, wn)
        return x, wn


def _normal_score_values(marginal, z):
    """marginal.quantile(normal_cdf(z)), the level kept above 0 by the
    smallest normal double; empirical marginals skip the CDF."""
    if isinstance(marginal, EmpiricalMarginal):
        return marginal.quantile_of_normal(z)
    u = np.maximum(normal_cdf(z), np.finfo(float).tiny)
    return np.asarray(marginal.quantile(u), dtype=float)


class _Matcher:
    """The correlation-matching function c(rho) of pairs of columns.

    One evaluation of one pair splits into parts that are each computed
    only as often as their inputs change:

    * per column, once: its first-axis values, their moments and its
      degeneracy (the column as the pair's first member);
    * per rho: the rotated second-axis nodes z2 and, for each sample
      count n, the slot weights W (n x degree). W[m, k] sums the
      independent-axis weights wn[l] of the nodes (k, l) whose
      normal-score index is m, and every empirical column of that
      count shares it, as it shares the slot masses W @ wn;
    * per (rho, column): the second axis's moments. An empirical column
      with sorted values v takes E[Y | Z1 node k] from v @ W and E[Y^2]
      from v**2 against the slot masses; any other marginal is
      evaluated at every node;
    * per pair: the cross moment and the final ratio.

    W is one ``np.bincount`` of the index in node order, v @ W sums the
    slots in order elementwise over k, and every other sum runs along a
    contiguous last axis, so no value depends on which rhos, columns or
    pairs share a batch. A batch holds at most about _CHUNK doubles per
    array.
    """

    def __init__(self, marginals, degree):
        x, wn = _gh_nodes(degree)
        self.x, self.wn = x, wn
        self.marginals = marginals
        n = len(marginals)
        xi = np.array([_normal_score_values(m, _SQRT2 * x) for m in marginals])
        xi = xi.reshape(n, x.size)
        sw = float(wn.sum())
        self.flat = xi.max(axis=1) == xi.min(axis=1)
        self.wx = wn * xi
        self.ex = self.wx.sum(axis=1) * sw
        self.var = (self.wx * xi).sum(axis=1) * sw - self.ex * self.ex
        # Second axis: the sample count of each empirical column (0 for
        # any other marginal), and its sorted values and their squares,
        # one padded row each.
        self.count = np.array([m.n if isinstance(m, EmpiricalMarginal) else 0
                               for m in marginals], dtype=int)
        self.kinds = sorted(set(self.count.tolist()))
        self.values = np.zeros((n, int(self.count.max(initial=0))))
        for col in np.flatnonzero(self.count):
            self.values[col, :self.count[col]] = marginals[col].sorted_values
        self.squares = self.values * self.values
        self.rho_step = max(1, _CHUNK // x.size ** 2)  # rhos per batch
        # Work done: distinct rhos and pairs, summed over the calls of c.
        self.rho_evaluations = self.pair_evaluations = 0

    def c(self, rho, i, j):
        """c(rho[k]) of the pairs (i[k], j[k]), for rho in [-1, 1], as an
        array; 0.0 for a pair with a degenerate marginal. Pairs at the
        same rho share its slot weights, pairs at the same (rho, j) the
        second axis's moments."""
        out = np.empty(rho.size)
        # Sorted by (rho, j), each distinct rho and each (rho, j) is a run.
        order = np.lexsort((j, rho))
        r, jj = rho[order], j[order]
        new_rho = np.ones(r.size, dtype=bool)
        new_rho[1:] = r[1:] != r[:-1]
        new_run = new_rho.copy()
        new_run[1:] |= jj[1:] != jj[:-1]
        run = np.cumsum(new_run) - 1  # each sorted pair's (rho, j) run
        run_rho, run_col = np.cumsum(new_rho)[new_run] - 1, jj[new_run]
        n_rho = int(new_rho.sum())
        starts = np.append(np.flatnonzero(new_rho), r.size)  # rho g's pairs: starts[g:g + 2]
        self.rho_evaluations += n_rho
        self.pair_evaluations += rho.size
        pair_step = max(1, _CHUNK // self.x.size)
        for a in range(0, n_rho, self.rho_step):
            b = min(a + self.rho_step, n_rho)
            runs = slice(run[starts[a]], run[starts[b] - 1] + 1)
            wy, ey, var_j, flat_j = self._second_axis(
                r[starts[a:b]], run_rho[runs] - a, run_col[runs])
            for s in range(starts[a], starts[b], pair_step):
                k = slice(s, min(s + pair_step, starts[b]))
                p, q = order[k], run[k] - runs.start
                out[p] = self._ratio(i[p], wy[q], ey[q], var_j[q], flat_j[q])
        return out

    def _ratio(self, i, wy, ey, var_j, flat_j):
        """c of the pairs whose first columns are i and whose second
        axes have the moments wy, ey, var_j and flatness flat_j."""
        exy = (self.wx[i] * wy).sum(axis=1)
        var_i = self.var[i]
        # Degenerate marginal: correlation is undefined, report 0 rather
        # than dividing rounding fuzz by rounding fuzz.
        ok = ~(self.flat[i] | flat_j) & (var_i > 0.0) & (var_j > 0.0)
        out = np.zeros(i.size)
        out[ok] = (exy[ok] - self.ex[i][ok] * ey[ok]) / np.sqrt(var_i[ok] * var_j[ok])
        return np.minimum(1.0, np.maximum(-1.0, out))

    def _second_axis(self, rhos, at, cols):
        """The moments of each column cols[q] at rhos[at[q]]: E[Y | Z1
        node] (still weighted by the first axis), E[Y] and Var[Y], and
        whether its values at the rotated nodes are all equal."""
        x, wn = self.x, self.wn
        deg = x.size
        # The quadrature ignores mass beyond the node range; pull exact
        # +-1 inside the open interval where the rotation is well defined.
        r = np.clip(rhos, -1.0 + 1e-12, 1.0 - 1e-12)
        rx, sx = r[:, None] * x, np.sqrt(np.maximum(0.0, 1.0 - r * r))[:, None] * x
        wy, ey2 = np.empty((cols.size, deg)), np.empty(cols.size)
        flat = np.empty(cols.size, dtype=bool)
        counts = self.count[cols]
        for n in self.kinds:
            sel = np.flatnonzero(counts == n)
            if sel.size == 0:
                continue
            if n == 0:
                for q in sel.tolist():
                    z2 = np.add.outer(rx[at[q]], sx[at[q]])
                    z2 *= _SQRT2
                    yj = _normal_score_values(self.marginals[cols[q]], z2)
                    wy[q] = yj @ wn
                    ey2[q] = (wn * ((yj * yj) @ wn)).sum()
                    flat[q] = yj.max() == yj.min()
                continue
            w, lo, hi = _slot_weights(rx, sx, wn, n)
            v, v2 = self.values[cols[sel], :n], self.squares[cols[sel], :n]
            # Sorted values: a column is flat at these nodes iff its
            # values at the smallest and the largest index agree.
            ends = np.arange(sel.size)
            flat[sel] = v[ends, lo[at[sel]]] == v[ends, hi[at[sel]]]
            mass = (w * wn).sum(axis=-1)
            ey2[sel] = (mass[at[sel]] * v2).sum(axis=-1)
            step = max(1, _CHUNK // (deg * n))
            for b in range(0, sel.size, step):
                t = slice(b, b + step)
                wv = w[at[sel[t]]]
                wv *= v[t, :, None]
                wy[sel[t]] = wv.sum(axis=1)
        # Every moment is the same wn x wn double sum, which keeps c(0)
        # at zero to rounding.
        ey = (wn * wy).sum(axis=-1)
        return wy, ey, ey2 - ey * ey, flat


def _slot_weights(rx, sx, wn, n):
    """The slot weights W[r, m, k] of n samples at each rho r: the sum of
    wn[l] over the rotated nodes z2[r, k, l] = (rx[r, k] + sx[r, l]) *
    sqrt(2) whose normal-score index is m, in node order; and each rho's
    smallest and largest index."""
    deg = wn.size
    z2 = rx[:, :, None] + sx[:, None, :]
    z2 *= _SQRT2
    idx = np.searchsorted(normal_score_thresholds(n), z2, side="right")
    lo, hi = idx.min(axis=(1, 2)), idx.max(axis=(1, 2))
    # One bin per (rho, k, m); z2's buffer, free after the lookup,
    # carries each node's weight.
    idx.shape = z2.shape = (-1, deg)
    idx += n * np.arange(idx.shape[0])[:, None]
    z2[...] = wn
    w = np.bincount(idx.ravel(), z2.ravel(), minlength=idx.shape[0] * n)
    return np.ascontiguousarray(w.reshape(-1, deg, n).transpose(0, 2, 1)), lo, hi


def _match_pairs(matcher, i, j, targets, tol, max_iter):
    """Every pair's bisection for c(rho_z) = target, as array code.

    Returns the arrays (rho_z, residual, clamped), one entry per pair.
    Each round evaluates c at every unfinished pair's midpoint in one
    call; see solve_rho_z for the rules.
    """
    t = np.asarray(targets, dtype=float)
    lo, hi = np.full(t.size, -1.0 + 1e-6), np.full(t.size, 1.0 - 1e-6)
    c_lo, c_hi = matcher.c(lo, i, j), matcher.c(hi, i, j)
    rho, residual = np.zeros(t.size), np.abs(t)
    clamped = np.zeros(t.size, dtype=bool)
    # Flat matching function (degenerate marginal): rho_z is moot.
    flat = c_hi - c_lo <= 1e-12
    below = ~flat & (t <= c_lo)
    above = ~flat & ~below & (t >= c_hi)
    for end, c_end, over, side in ((lo, c_lo, t < c_lo, below), (hi, c_hi, t > c_hi, above)):
        rho[side], residual[side] = end[side], np.abs(c_end - t)[side]
        clamped[side] = over[side]
    k = np.flatnonzero(~(flat | below | above))
    lo, hi, t = lo[k], hi[k], t[k]
    final = np.zeros(k.size, dtype=bool)  # the next evaluation is the last
    steps = 0
    while k.size:
        mid = 0.5 * (lo + hi)
        c_mid = matcher.c(mid, i[k], j[k])
        err = np.abs(c_mid - t)
        done = final | (err <= tol)
        rho[k[done]], residual[k[done]] = mid[done], err[done]
        go = ~done
        k, lo, hi, t, mid, c_mid = k[go], lo[go], hi[go], t[go], mid[go], c_mid[go]
        up = c_mid < t
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        steps += 1
        # Discrete marginals step over the target; a collapsed bracket
        # cannot improve the residual, so its midpoint is the answer.
        final = (hi - lo <= 1e-9) | (steps >= max_iter)
    return rho, residual, clamped


def c_of_rho(marginal_i, marginal_j, rho_z, degree=64):
    """Correlation of the transformed pair induced by base correlation rho_z.

    Evaluates corr(Fi^{-1}(Phi(Z1)), Fj^{-1}(Phi(Z2))) for a standard
    bivariate normal (Z1, Z2) with correlation rho_z, by tensor
    Gauss-Hermite quadrature over the rotated independent pair. The
    quadrature is deterministic, which keeps the map nondecreasing in
    rho_z as evaluated -- a Monte Carlo estimate would break the
    bisection in solve_rho_z. An empirical marginal maps every node to
    the sample that the generic quantile(normal_cdf(.)) path of analytic
    marginals gives, through its normal-score thresholds, and the second
    axis sums the quadrature weight per sample first; the result agrees
    with the generic path to rounding (within 1e-12 in the tests).
    Returns 0.0 for a degenerate marginal. This is the evaluator fit and
    solve_rho_z use, with a batch of one pair.
    """
    _check_fit_options(degree=degree)
    rho = float(rho_z)
    if not -1.0 <= rho <= 1.0:
        raise ValidationError("rho_z must lie in [-1, 1]")
    return float(_Matcher([marginal_i, marginal_j], degree).c(np.array([rho]), _I, _J)[0])


def solve_rho_z(marginal_i, marginal_j, rho_x_target, *, tol=1e-4,
                max_iter=200, degree=64):
    """Invert the correlation-matching function by bisection.

    c is nondecreasing in rho_z, so bisection on [-1+1e-6, 1-1e-6] is
    safe. Targets outside the attainable range clamp to the nearer
    endpoint (clamped=True). Discrete marginals make c step-like, so
    after max_iter the midpoint of the final bracket is returned with
    its residual rather than failing. tol must be finite and >= 0,
    max_iter and degree integers >= 1.

    This is fit's bisection with one pair. fit bisects all pairs
    together in array rounds; pairs that ask for the same rho_z in a
    round share its slot weights, and every column's first-axis half is
    built once. Each pair sees the same sequence of c values, bit for
    bit, either way.
    """
    _check_fit_options(degree=degree, tol=tol, max_iter=max_iter)
    target = float(rho_x_target)
    if not -1.0 <= target <= 1.0:
        raise ValidationError("target correlation must lie in [-1, 1]")
    rho, residual, clamped = _match_pairs(_Matcher([marginal_i, marginal_j], degree),
                                          _I, _J, [target], tol, max_iter)
    return RhoMatch(float(rho[0]), float(residual[0]), bool(clamped[0]))


def nearest_correlation(a):
    """Nearest correlation matrix by alternating projections.

    Higham's method with a Dykstra correction on the PSD projection,
    alternating with the unit-diagonal projection, stopping when the
    Frobenius change drops to PSD_TOL. A PSD input is returned unchanged
    after the first sweep. The result is exactly unit-diagonal and has
    smallest eigenvalue >= -1e-8 (a final clip-and-rescale guards the
    rare non-converged case).
    """
    y = check_correlation_matrix(a, name="nearest_correlation input").copy()
    n = y.shape[0]
    if n == 0:
        return y
    ds = np.zeros_like(y)
    for _ in range(_PSD_MAX_ITER):
        r = y - ds
        w, v = np.linalg.eigh((r + r.T) / 2.0)
        x = (v * np.maximum(w, 0.0)) @ v.T
        ds = x - r
        y_new = (x + x.T) / 2.0
        np.fill_diagonal(y_new, 1.0)
        delta = float(np.linalg.norm(y_new - y))
        y = y_new
        if delta <= PSD_TOL:
            break
    np.fill_diagonal(y, 1.0)
    w = np.linalg.eigvalsh(y)
    if w[0] < -1e-8:
        w_all, v = np.linalg.eigh(y)
        x = (v * np.maximum(w_all, 0.0)) @ v.T
        d = np.sqrt(np.diag(x))
        y = x / np.outer(d, d)
        y = (y + y.T) / 2.0
        np.fill_diagonal(y, 1.0)
    return y


def _cholesky_with_jitter(y):
    """Cholesky factor of a (numerically) PSD correlation matrix.

    Escalating diagonal jitter starting at 1e-10 absorbs tiny negative
    eigenvalues left by the repair tolerance.
    """
    eye = np.eye(y.shape[0])
    for jitter in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        try:
            return np.linalg.cholesky(y + jitter * eye), jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("correlation matrix is not factorable even with jitter")


def _check_fit_options(**options):
    """Reject a tolerance (a keyword ending in ``tol``) that is negative
    or not finite, and any other option that is not an integer >= 1,
    naming the keyword."""
    for name, value in options.items():
        if name.endswith("tol"):
            if not 0.0 <= value < math.inf:  # also rejects nan
                raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")
        elif not isinstance(value, (int, np.integer)) or value < 1:
            raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


def fit(s: ScenarioSet, *, degree=64, match_tol=1e-4, bisect_max_iter=200) -> NortaModel:
    """Fit a NORTA model to an observed scenario set.

    Parameters
    ----------
    s : ScenarioSet
        K scenarios by n dimensions, K >= 2.
    degree : int
        Gauss-Hermite degree per axis for the matching quadrature (>= 1).
    match_tol : float
        Bisection tolerance on |c(rho_z) - rho_x| (finite, >= 0).
    bisect_max_iter : int
        Bisection steps per pair (>= 1).
    """
    _check_fit_options(degree=degree, match_tol=match_tol, bisect_max_iter=bisect_max_iter)
    marginals, sigma_x = estimate_inputs(s)
    n = len(marginals)
    i, j = np.triu_indices(n, k=1)
    targets = sigma_x[i, j]
    matcher = _Matcher(marginals, degree)
    rho, residual, clamped = _match_pairs(matcher, i, j, targets, match_tol, bisect_max_iter)
    sigma_z = np.eye(n)
    sigma_z[i, j] = sigma_z[j, i] = rho
    report = FitReport([PairMatch(*pair) for pair in zip(
        i.tolist(), j.tolist(), targets.tolist(), rho.tolist(), residual.tolist(),
        clamped.tolist())], rho_evaluations=matcher.rho_evaluations,
        pair_evaluations=matcher.pair_evaluations)
    y = nearest_correlation(sigma_z)
    report.repair_distance = float(np.linalg.norm(sigma_z - y))
    chol, jitter = _cholesky_with_jitter(y)
    report.chol_jitter = jitter
    return NortaModel(marginals=marginals, sigma_x=sigma_x, sigma_z=sigma_z,
                      y=y, chol=chol, report=report, columns=s.columns)


def sample(model: NortaModel, m: int, seed) -> ScenarioSet:
    """Draw m synthetic scenarios from a fitted model.

    Standard-normal draws come from the inverse-CDF transform of PCG64
    uniforms, are correlated through the Cholesky factor, and are pushed
    through each marginal quantile, so every emitted value lies on the
    marginal's support. Identical (model, m, seed) reproduce the exact
    same scenarios.
    """
    if m < 1:
        raise ValidationError("sample count must be at least 1")
    n = model.dim
    rng = np.random.default_rng(seed)
    u = rng.random((m, n))
    u = np.maximum(u, 2.0 ** -54)  # open-interval guard for the quantile
    zhat = normal_quantile(u)
    z = zhat @ model.chol.T
    out = np.empty((m, n))
    for j, marg in enumerate(model.marginals):
        out[:, j] = _normal_score_values(marg, z[:, j])
    return ScenarioSet(out, np.full(m, 1.0 / m), columns=model.columns)
