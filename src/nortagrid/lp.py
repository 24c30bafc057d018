"""Dense bounded-variable linear programming by primal simplex.

Small, deterministic, and self-contained: the recourse model needs exact
statuses (optimal / infeasible / unbounded / iteration-limit), bound
handling on every variable, and bit-reproducible pivoting, which is the
whole point of carrying our own solver instead of shelling out.

An `LpProblem` keeps its constraints as one dense block from the model
to the solver (see its docstring). Internals: each constraint row gets a
slack column whose bounds encode the sense, plus an artificial column.
Nonbasic columns start at their lower bound, else their upper bound,
else 0. A problem that names a start basis (`LpProblem.basis`) goes
straight to phase 2 from it when that basis is well-formed, nonsingular
and primal feasible within FEAS_TOL; otherwise phase 1 starts from the
all-artificial basis and drives the artificials out before phase 2; a
point whose reduced costs are all within OPT_TOL is optimal. The basis
inverse is kept explicitly: each basis change applies a product-form
(eta) update, and B^-1 is refactorized from scratch after 2m updates and
before a phase's final point is read. Entering variables follow
Dantzig's rule until the objective stalls for 100 iterations, then
Bland's rule takes over to guarantee termination.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "INFEASIBLE",
    "ITERATION_LIMIT",
    "LpProblem",
    "LpSolution",
    "OPTIMAL",
    "UNBOUNDED",
    "solve_lp",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

# Primal feasibility (crash basis, phase-1 exit) and reduced-cost tolerances.
FEAS_TOL = 1e-9
OPT_TOL = 1e-9

_SENSES = ("<=", ">=", "==")
_PIVOT_TOL = 1e-10
_STALL_LIMIT = 100


@dataclass
class LpProblem:
    """min c.x subject to a[i] x (senses[i]) rhs[i] and variable bounds.

    The rows are one dense block: `a` is m x n_vars, `senses` one of
    "<=", ">=", "==" per row, `rhs` one float per row; bounds may be
    +-inf. Build it whole, or from `with_bounds` (no rows) by `add_row`;
    `validate` (run by solve_lp) checks either with add_row's checks.
    `basis` optionally names a starting basis, one column per row: j <
    n_vars is structural column j, n_vars + i is the slack of row i.
    With every other column at its start value (lower bound, else upper
    bound, else 0) it must be nonsingular and primal feasible, or the
    solver ignores it and runs phase 1.
    """

    n_vars: int
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    basis: np.ndarray | list | None = None

    @classmethod
    def with_bounds(cls, objective, lower, upper):
        c = np.asarray(objective, dtype=float)
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if not (c.shape == lo.shape == hi.shape) or c.ndim != 1:
            raise ValidationError("objective and bounds must be equal-length vectors")
        return cls(c.size, c, lo, hi, np.zeros((0, c.size)), np.array([], dtype=str), np.zeros(0))

    def add_row(self, coeffs, sense, rhs):
        """Append row {column: value}; a rejected row changes nothing."""
        row = np.zeros(self.n_vars)
        for col, val in coeffs.items():
            col = int(col)
            if not 0 <= col < self.n_vars:
                raise ValidationError(f"row references unknown column {col}")
            row[col] = val
        a, senses, rhs = _check_rows(self.n_vars, row[None] + 0.0, [sense], [rhs])  # -0.0 -> +0.0
        self.a = np.concatenate([self.a, a])
        self.senses = np.concatenate([self.senses, senses])
        self.rhs = np.concatenate([self.rhs, rhs])

    def validate(self):
        if not np.all(np.isfinite(self.objective)):
            raise ValidationError("objective must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValidationError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValidationError("need lower <= upper for every variable")
        self.a, self.senses, self.rhs = _check_rows(self.n_vars, self.a, self.senses, self.rhs)
        return self


def _check_rows(n_vars, a, senses, rhs):
    """(a, senses, rhs) as arrays, checked: a is (m, n_vars), one sense and
    one rhs per row, every sense known, every number finite."""
    a = np.asarray(a, dtype=float)
    senses = np.asarray(senses, dtype=str)
    rhs = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[1] != n_vars or not senses.shape == rhs.shape == a.shape[:1]:
        raise ValidationError(f"need an (m, {n_vars}) block and m senses and rhs values, got "
                              f"shapes {a.shape}, {senses.shape}, {rhs.shape}")
    unknown = senses[~np.isin(senses, _SENSES)]
    if unknown.size:
        raise ValidationError(f"unknown row sense {str(unknown[0])!r}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(rhs))):
        raise ValidationError("row coefficients and rhs must be finite")
    return a, senses, rhs


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    max_infeasibility: float
    iterations: int


class _Simplex:
    def __init__(self, prob: LpProblem):
        n = prob.n_vars
        m = prob.rhs.size
        self.n, self.m = n, m
        self.ncols = n + 2 * m  # structural | slack | artificial
        self.A = np.hstack([prob.a, np.eye(m), np.zeros((m, m))])
        self.b = prob.rhs
        # Slack bounds encode the sense: <= is s >= 0, >= is s <= 0, == is
        # s = 0; artificials are >= 0.
        self.lo = np.concatenate([prob.lower, np.where(prob.senses == ">=", -np.inf, 0.0),
                                  np.zeros(m)])
        self.hi = np.concatenate([prob.upper, np.where(prob.senses == "<=", np.inf, 0.0),
                                  np.full(m, np.inf)])
        self.art = n + m + np.arange(m)
        self.x = np.zeros(self.ncols)
        lo, hi = self.lo[:n + m], self.hi[:n + m]
        self.x[:n + m] = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        resid = self.b - self.A[:, :n + m] @ self.x[:n + m]
        sign = np.where(resid >= 0.0, 1.0, -1.0)
        self.A[np.arange(m), self.art] = sign
        self.x[self.art] = np.abs(resid)
        self.basis = self.art.copy()
        self.in_basis = np.zeros(self.ncols, dtype=bool)
        self.in_basis[self.basis] = True
        self.Binv = np.diag(sign)  # the artificial basis is its own inverse
        self.updates = 0
        self.iterations = 0

    # -- linear algebra helpers -------------------------------------

    def _refactor(self):
        """Binv = B^-1 afresh, dropping the accumulated eta updates."""
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivot tol
            raise NumericalError("singular basis in simplex") from exc
        self.updates = 0

    def _ftran(self, a):
        """B^-1 a."""
        return self.Binv @ a

    def _btran(self, c):
        """c B^-1."""
        return c @ self.Binv

    def _recompute_basics(self):
        mask = ~self.in_basis
        self.x[self.basis] = self._ftran(self.b - self.A[:, mask] @ self.x[mask])

    def _refresh(self):
        """Refactorize and recompute the basic values, if B^-1 carries
        eta updates."""
        if self.updates:
            self._refactor()
            self._recompute_basics()

    def _replace(self, leave, e, w):
        """Column e (with w = B^-1 a_e) takes basis row `leave`; B^-1 gets
        the eta update, and a refactorization after 2m of them. Returns
        the column that left."""
        l_col = self.basis[leave]
        self.basis[leave] = e
        self.in_basis[e] = True
        self.in_basis[l_col] = False
        r = self.Binv[leave] / w[leave]
        self.Binv -= np.outer(w, r)
        self.Binv[leave] = r
        self.updates += 1
        if self.updates >= 2 * self.m:
            self._refactor()
        return l_col

    def crash(self, basis):
        """Start from a supplied basis (see LpProblem.basis) in place of
        the artificial one; False, with nothing changed, if it is
        malformed, singular or primal infeasible."""
        if basis is None:
            return False
        cols = np.asarray(basis)
        if (cols.shape != (self.m,) or not np.issubdtype(cols.dtype, np.integer)
                or np.any(cols < 0) or np.any(cols >= self.n + self.m)
                or np.unique(cols).size != self.m):
            return False
        bmat = self.A[:, cols]
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            return False
        if not np.abs(binv @ bmat - np.eye(self.m)).max(initial=0.0) <= 1e-9:
            return False  # numerically singular (also catches nan)
        x_n = self.x[:self.n + self.m].copy()
        x_n[cols] = 0.0
        xb = binv @ (self.b - self.A[:, :self.n + self.m] @ x_n)
        if not (np.all(np.isfinite(xb)) and np.all(xb >= self.lo[cols] - FEAS_TOL)
                and np.all(xb <= self.hi[cols] + FEAS_TOL)):
            return False
        self.lo[self.art] = self.hi[self.art] = self.x[self.art] = 0.0
        self.in_basis[self.basis] = False
        self.basis = cols.astype(self.basis.dtype)
        self.in_basis[self.basis] = True
        self.x[self.basis] = xb
        self.Binv = binv
        return True

    # -- pivoting ----------------------------------------------------

    def _entering(self, c, bland):
        d = c - self._btran(c[self.basis]) @ self.A
        fixed = self.lo == self.hi
        at_lo = self.x == self.lo
        at_hi = self.x == self.hi
        free = np.isinf(self.lo) & np.isinf(self.hi)
        ok = ~self.in_basis & ~fixed
        up = ok & (at_lo | free) & (d < -OPT_TOL)
        dn = ok & (at_hi | free) & (d > OPT_TOL)
        if not (up.any() or dn.any()):
            return None, 0
        if bland:
            cand = np.flatnonzero(up | dn)
            j = int(cand[0])
        else:
            viol = np.where(up | dn, np.abs(d), 0.0)
            j = int(np.argmax(viol))  # first max: deterministic tie-break
        return j, (1 if up[j] else -1)

    def _ratio_test(self, e, direction):
        w = self._ftran(self.A[:, e])
        delta = direction * w
        best_t = self.hi[e] - self.lo[e]  # bound-flip distance (inf if unbounded)
        if not np.isfinite(best_t):
            best_t = np.inf
        leave = -1
        hit_lower = False
        xb = self.x[self.basis]
        lob = self.lo[self.basis]
        hib = self.hi[self.basis]
        # Candidate rows: a basic variable moving toward a finite bound.
        down = (delta > _PIVOT_TOL) & np.isfinite(lob)
        rows = np.flatnonzero(down | ((delta < -_PIVOT_TOL) & np.isfinite(hib)))
        lower = down[rows]
        limits = (xb[rows] - np.where(lower, lob[rows], hib[rows])) / delta[rows]
        limits = np.where(limits < 0.0, 0.0, limits)  # max(limit, 0.0), -0.0 kept
        # Scan the candidates in row order: a limit more than 1e-12 below
        # the best so far takes over, a tie within 1e-12 goes to the
        # smaller basic column.
        for i, limit, lower_side in zip(rows.tolist(), limits.tolist(), lower.tolist()):
            if limit < best_t - 1e-12:
                best_t, leave, hit_lower = limit, i, lower_side
            elif leave >= 0 and abs(limit - best_t) <= 1e-12 and self.basis[i] < self.basis[leave]:
                leave, hit_lower = i, lower_side
        return best_t, leave, hit_lower, w

    def _pivot(self, e, direction):
        """Move entering column e; False if nothing bounds the move."""
        t, leave, hit_lower, w = self._ratio_test(e, direction)
        if not np.isfinite(t):
            return False
        if leave < 0:
            # Bound flip: entering jumps to its other bound, basis unchanged.
            self.x[e] = self.hi[e] if direction > 0 else self.lo[e]
        else:
            self.x[e] = self.x[e] + direction * t
            l_col = self._replace(leave, e, w)
            self.x[l_col] = self.lo[l_col] if hit_lower else self.hi[l_col]
            if l_col >= self.n + self.m:
                # An artificial that leaves the basis never comes back.
                self.lo[l_col] = self.hi[l_col] = 0.0
                self.x[l_col] = 0.0
        self._recompute_basics()
        return True

    def _run(self, c, max_iter):
        """Iterate to a status; at OPTIMAL, x comes from a fresh
        factorization."""
        bland = False
        stall = 0
        prev = c @ self.x
        while True:
            e, direction = self._entering(c, bland)
            if e is None:
                self._refresh()
                return OPTIMAL
            if self.iterations >= max_iter:
                return ITERATION_LIMIT
            if not self._pivot(e, direction):
                return UNBOUNDED
            self.iterations += 1
            obj = c @ self.x
            if obj < prev - 1e-12:
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            prev = obj

    # -- phases ------------------------------------------------------

    def drive_out_artificials(self):
        """Pivot zero-valued artificials out of the basis where possible."""
        for i in range(self.m):
            col = self.basis[i]
            if col < self.n + self.m:
                continue
            ei = np.zeros(self.m)
            ei[i] = 1.0
            row = self._btran(ei) @ self.A
            replaced = False
            for j in range(self.n + self.m):
                if self.in_basis[j] or self.lo[j] == self.hi[j]:
                    continue
                if abs(row[j]) > 1e-7:
                    self._replace(i, j, self._ftran(self.A[:, j]))
                    self.lo[col] = self.hi[col] = 0.0
                    self.x[col] = 0.0
                    self._recompute_basics()
                    replaced = True
                    break
            if not replaced:
                # Redundant row: the artificial stays basic, pinned at 0.
                self.lo[col] = self.hi[col] = 0.0
        self._refresh()


def solve_lp(prob: LpProblem, *, max_iter=None):
    """Solve an LpProblem; see module docstring for the method.

    max_iter defaults to 50 * (rows + columns), counted across both
    phases; `iterations` counts basis changes and bound flips alike, so
    an LP without rows reports the flips that put its variables at their
    better bounds. The limit is hit only when a pivot is still needed.
    The returned solution reports the true maximum primal infeasibility
    of its point; an "optimal" answer failing its own feasibility check
    raises NumericalError instead of lying.
    """
    prob.validate()
    n = prob.n_vars
    if max_iter is None:
        max_iter = 50 * (prob.rhs.size + n)
    sx = _Simplex(prob)
    if not sx.crash(prob.basis):
        c1 = np.zeros(sx.ncols)
        c1[sx.art] = 1.0
        status = sx._run(c1, max_iter)
        if status == ITERATION_LIMIT:
            return LpSolution(ITERATION_LIMIT, None, None, np.inf, sx.iterations)
        phase1 = float(c1 @ sx.x)
        if phase1 > FEAS_TOL * (1.0 + float(np.abs(sx.b).max(initial=0.0))) * 10.0:
            return LpSolution(INFEASIBLE, None, None, phase1, sx.iterations)
        sx.drive_out_artificials()
    c2 = np.zeros(sx.ncols)
    c2[:n] = prob.objective
    status = sx._run(c2, max_iter)
    if status == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, None, None, np.inf, sx.iterations)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, 0.0, sx.iterations)
    x = sx.x[:n].copy()
    infeas = _max_infeas(prob, x)
    if infeas > 1e-7:
        raise NumericalError(f"simplex reported optimal but infeasibility is {infeas:.3e}")
    return LpSolution(OPTIMAL, x, float(prob.objective @ x), infeas, sx.iterations)


def _max_infeas(prob: LpProblem, x):
    """Maximum violation of rows and bounds at x."""
    r = prob.a @ x - prob.rhs
    row = np.where(prob.senses == "<=", r, np.where(prob.senses == ">=", -r, np.abs(r)))
    return float(max(np.max(prob.lower - x, initial=0.0), np.max(x - prob.upper, initial=0.0),
                     np.max(row, initial=0.0)))
