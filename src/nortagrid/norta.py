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

Late rounds are settled without the quadrature where that is exact.
Against an empirical second column, c depends on rho only through the
slot of each rotated node. Once a bracket is narrow (_LATE_WIDTH), a
bound on how fast each node's z2 moves with rho certifies that all but
a few "watched" nodes keep their slots at every rho inside it. Each
later round looks up only the watched nodes at the midpoint: if their
slots are those of one bracket end, c there is that end's c, bit for
bit; otherwise the quadrature runs as before. On the 72-column
acceptance panel about half of the pair evaluations settle this way.

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
# Late bisection rounds: a bracket at most _LATE_WIDTH wide whose second
# column is empirical watches the nodes that might change slot inside it.
# With at most _WATCH_CAP of them, its rounds settle c from their slots;
# otherwise it tries again the next round. _WATCH_SLACK covers the
# rounding of z2 at two rhos (|z2| <= 30, s >= 1.4e-3 in the bracket).
_LATE_WIDTH = 2.0 ** -13
_WATCH_CAP = 16
_WATCH_SLACK = 1e-9


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


@dataclass
class FitReport:
    """Per-pair matches, the PSD repair and jitter, and the matching work.

    `residual` (|c(rho_z) - target|) and `clamped` (target outside the
    attainable range) have one entry per pair in ``np.triu_indices(n, 1)``
    order; a pair's target and rho_z are its sigma_x and sigma_z entries.
    The work: distinct rhos and (pair, rho) evaluations of c over the
    bisection rounds, and the pair evaluations settled from watched nodes."""

    residual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    clamped: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    repair_distance: float = 0.0
    chol_jitter: float = 0.0
    rho_evaluations: int = 0
    pair_evaluations: int = 0
    settled_evaluations: int = 0

    @property
    def clamp_count(self):
        return int(np.count_nonzero(self.clamped))

    @property
    def max_residual(self):
        return float(np.max(self.residual, initial=0.0))

    def to_dict(self):
        return {
            "pairs": {"residual": self.residual.tolist(), "clamped": self.clamped.tolist()},
            "repair_distance": self.repair_distance,
            "chol_jitter": self.chol_jitter,
            "clamp_count": self.clamp_count,
            "max_residual": self.max_residual,
            "rho_evaluations": self.rho_evaluations,
            "pair_evaluations": self.pair_evaluations,
            "settled_evaluations": self.settled_evaluations,
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

    So against an empirical second column, c is a function of the
    nodes' slots alone: equal slots give a bit-identical c. ``watch``
    certifies, for a narrow bracket, which few nodes may change slot
    inside it, and ``slots`` looks up just those nodes at a midpoint,
    from the same rotation (``_rotation``) as the full quadrature;
    _match_pairs settles a midpoint from them when it can.
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
        # The smallest types that hold a node id and a slot index.
        self.node_type = np.min_scalar_type(x.size ** 2 - 1)
        self.slot_type = np.min_scalar_type(int(self.count.max(initial=0)))

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
        rx, sx = _rotation(rhos, x, x)
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

    def watch(self, lo, hi, cols):
        """Watch lists of brackets [lo, hi] of pairs whose second columns
        cols are empirical (see _reach): whether each bracket has at most
        _WATCH_CAP watched nodes, and then their node ids and slots at
        lo and at hi, padded with node 0. Node 0 is either watched or
        keeps its slot across the bracket, so the padding never changes
        which midpoints the slots settle. Pairs with the same bracket and
        sample count are worked out once."""
        n = self.count[cols]
        key, inv = np.unique(np.column_stack((lo, hi, n)), axis=0, return_inverse=True)
        a, b, n = key[:, 0], key[:, 1], key[:, 2].astype(int)
        ok = np.zeros(a.size, dtype=bool)
        nodes = np.zeros((a.size, _WATCH_CAP), dtype=self.node_type)
        at_a = np.zeros((a.size, _WATCH_CAP), dtype=self.slot_type)
        step = max(1, self.rho_step // 2)  # _reach holds four arrays of its nodes at once
        for m in np.unique(n).tolist():
            sel = np.flatnonzero(n == m)
            for s in range(0, sel.size, step):
                t = sel[s:s + step]
                idx, watched = self._reach(a[t], b[t], m)
                count = watched.sum(axis=1)
                fits = np.flatnonzero(count <= _WATCH_CAP)
                t, count = t[fits], count[fits]
                row, node = np.nonzero(watched[fits])
                # Each watched node's place in its bracket's list.
                place = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
                nodes[t[row], place] = node
                at_a[t] = idx[fits[:, None], nodes[t]]
                ok[t] = True
        at_b = np.zeros_like(at_a)
        at_b[ok] = self.slots(b[ok], nodes[ok], n[ok])
        inv = inv.ravel()
        return ok[inv], nodes[inv], at_a[inv], at_b[inv]

    def _reach(self, a, b, n):
        """Every node's slot at a, the lower end of each bracket [a, b],
        for n samples (flattened node ids), and which nodes are watched.

        For rho in [a, b], the slot of node (k, l) depends on rho only
        through z2 = sqrt(2) (rho x_k + sqrt(1 - rho^2) x_l), whose slope
        is at most L = sqrt(2) (|x_k| + |x_l| q), q = rb / sqrt(1 - rb^2)
        with rb = max(|a|, |b|). A node whose z2 at a lies more than
        L (b - a) + _WATCH_SLACK inside its slot keeps that slot at every
        rho of the bracket, as evaluated; every other node is watched.
        """
        ax = np.abs(self.x)
        rb = np.maximum(np.abs(a), np.abs(b))
        q = rb / np.sqrt(1.0 - rb * rb)
        tau = normal_score_thresholds(n)
        edges = np.concatenate(([-np.inf], tau, [np.inf]))
        z2 = _node_grid(*_rotation(a, self.x, self.x))
        idx = np.searchsorted(tau, z2, side="right")
        # The distance to the slot's upper edge, then to its lower edge.
        above = edges[1:][idx]
        above -= z2
        z2 -= edges[idx]
        margin = np.minimum(z2, above, out=z2)
        reach = np.add(ax[:, None], q[:, None, None] * ax, out=above)
        reach *= (_SQRT2 * (b - a))[:, None, None]
        reach += _WATCH_SLACK
        return idx.reshape(a.size, -1), (margin <= reach).reshape(a.size, -1)

    def slots(self, rho, nodes, n):
        """The slot of each node nodes[p, w] at rho[p] for n[p] samples,
        from the same z2 as the full quadrature's, in batches of a
        quarter _CHUNK nodes (a batch makes about eight such arrays)."""
        deg = self.x.size
        out = np.empty(nodes.shape, dtype=self.slot_type)
        step = _CHUNK // (4 * _WATCH_CAP)
        for s in range(0, rho.size, step):
            p = slice(s, s + step)
            rx, sx = _rotation(rho[p], self.x[nodes[p] // deg], self.x[nodes[p] % deg])
            rx += sx
            rx *= _SQRT2
            for m in np.unique(n[p]).tolist():
                sel = n[p] == m
                out[p][sel] = np.searchsorted(normal_score_thresholds(m), rx[sel],
                                              side="right")
        return out


def _rotation(rhos, xk, xl):
    """The two terms of the rotated second-axis nodes z2 = (r x_k + s x_l)
    sqrt(2), s = sqrt(1 - r^2), at each rho r: r x_k and s x_l, with
    rhos on the first axis and xk, xl broadcast along the second."""
    # The quadrature ignores mass beyond the node range; pull exact
    # +-1 inside the open interval where the rotation is well defined.
    r = np.clip(rhos, -1.0 + 1e-12, 1.0 - 1e-12)
    return r[:, None] * xk, np.sqrt(np.maximum(0.0, 1.0 - r * r))[:, None] * xl


def _node_grid(rx, sx):
    """The rotated nodes z2[r, k, l] = (rx[r, k] + sx[r, l]) sqrt(2)."""
    z2 = rx[:, :, None] + sx[:, None, :]
    z2 *= _SQRT2
    return z2


def _slot_weights(rx, sx, wn, n):
    """The slot weights W[r, m, k] of n samples at each rho r: the sum of
    wn[l] over the rotated nodes z2[r, k, l] = (rx[r, k] + sx[r, l]) *
    sqrt(2) whose normal-score index is m, in node order; and each rho's
    smallest and largest index."""
    deg = wn.size
    z2 = _node_grid(rx, sx)
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

    Returns the arrays (rho_z, residual, clamped), one entry per pair,
    and the work (rho_evaluations, pair_evaluations,
    settled_evaluations): the distinct rhos and the pairs the bisection
    asks c for, and how many of those pairs were settled from watched
    nodes. Each round evaluates c at every unfinished pair's midpoint;
    see solve_rho_z for the rules.

    Late rounds: c of an empirical second column depends on rho only
    through each node's slot. Once a pair's bracket is at most
    _LATE_WIDTH wide and watches at most _WATCH_CAP nodes
    (_Matcher.watch), every other node keeps its slot at any midpoint.
    If the watched nodes' slots at the midpoint are all those of the
    lower end, c there is c at the lower end, bit for bit; likewise for
    the upper end. Only the other midpoints run the quadrature.
    """
    t = np.asarray(targets, dtype=float)
    lo, hi = np.full(t.size, -1.0 + 1e-6), np.full(t.size, 1.0 - 1e-6)
    c_lo, c_hi = matcher.c(lo, i, j), matcher.c(hi, i, j)
    rho_evals, pair_evals, settled_evals = 2 * min(t.size, 1), 2 * t.size, 0
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
    lo, hi, t, c_lo, c_hi = lo[k], hi[k], t[k], c_lo[k], c_hi[k]
    final = np.zeros(k.size, dtype=bool)  # the next evaluation is the last
    # Late pairs: their watched nodes and those nodes' slots at lo and hi.
    late = np.zeros(k.size, dtype=bool)
    nodes = np.zeros((k.size, _WATCH_CAP), dtype=matcher.node_type)
    s_lo = np.zeros((k.size, _WATCH_CAP), dtype=matcher.slot_type)
    s_hi = s_lo.copy()
    count = matcher.count[j]  # second columns' sample counts, 0 if not empirical
    steps = 0
    while k.size:
        mid = 0.5 * (lo + hi)
        rho_evals += np.unique(mid).size
        pair_evals += mid.size
        enter = np.flatnonzero(~late & (count[k] > 0) & (hi - lo <= _LATE_WIDTH))
        if enter.size:
            late[enter], nodes[enter], s_lo[enter], s_hi[enter] = matcher.watch(
                lo[enter], hi[enter], j[k[enter]])
        w = np.flatnonzero(late)
        s_mid = matcher.slots(mid[w], nodes[w], count[k[w]])
        at_lo = (s_mid == s_lo[w]).all(axis=1)
        at_hi = ~at_lo & (s_mid == s_hi[w]).all(axis=1)
        c_mid = np.empty(k.size)
        c_mid[w[at_lo]], c_mid[w[at_hi]] = c_lo[w[at_lo]], c_hi[w[at_hi]]
        full = np.ones(k.size, dtype=bool)
        full[w[at_lo | at_hi]] = False
        full = np.flatnonzero(full)
        settled_evals += k.size - full.size
        c_mid[full] = matcher.c(mid[full], i[k[full]], j[k[full]])
        err = np.abs(c_mid - t)
        done = final | (err <= tol)
        rho[k[done]], residual[k[done]] = mid[done], err[done]
        up = c_mid < t
        s_lo[w[up[w]]], s_hi[w[~up[w]]] = s_mid[up[w]], s_mid[~up[w]]
        go = ~done
        k, lo, hi, t, mid, c_mid, up = k[go], lo[go], hi[go], t[go], mid[go], c_mid[go], up[go]
        c_lo, c_hi, late = c_lo[go], c_hi[go], late[go]
        nodes, s_lo, s_hi = nodes[go], s_lo[go], s_hi[go]
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        c_lo, c_hi = np.where(up, c_mid, c_lo), np.where(up, c_hi, c_mid)
        steps += 1
        # Discrete marginals step over the target; a collapsed bracket
        # cannot improve the residual, so its midpoint is the answer.
        final = (hi - lo <= 1e-9) | (steps >= max_iter)
    return rho, residual, clamped, (rho_evals, pair_evals, settled_evals)


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
    built once. In late rounds, a midpoint whose watched nodes sit in
    the slots of one bracket end takes that end's c instead of running
    the quadrature; the certificate in _Matcher._reach makes that
    value the one the quadrature would give. Each pair sees the same
    sequence of c values, bit for bit, either way.
    """
    _check_fit_options(degree=degree, tol=tol, max_iter=max_iter)
    target = float(rho_x_target)
    if not -1.0 <= target <= 1.0:
        raise ValidationError("target correlation must lie in [-1, 1]")
    rho, residual, clamped, _ = _match_pairs(_Matcher([marginal_i, marginal_j], degree),
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
    rho, residual, clamped, work = _match_pairs(matcher, i, j, targets, match_tol,
                                                bisect_max_iter)
    sigma_z = np.eye(n)
    sigma_z[i, j] = sigma_z[j, i] = rho
    y = nearest_correlation(sigma_z)
    chol, jitter = _cholesky_with_jitter(y)
    report = FitReport(residual, clamped, float(np.linalg.norm(sigma_z - y)), jitter, *work)
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
