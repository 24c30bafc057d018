"""Dense bounded-variable linear programming on HiGHS's dual simplex.

The recourse model needs exact statuses (optimal / infeasible /
unbounded / iteration-limit), bound handling on every variable, and
reproducible answers. `solve_lp` hands an `LpProblem` to
scipy.optimize.linprog with method "highs-ds" (the dual revised simplex
of Huangfu & Hall, 2018), presolve off so the iteration limit and count
are simplex iterations, and FEAS_TOL / OPT_TOL as the primal and dual
feasibility tolerances. scipy.optimize is imported at the first LP, so a
process that solves none never loads it.

An `LpProblem` keeps its constraints as one dense block from the model
to the solver (see its docstring): "<=" rows go to linprog as upper-bound
rows, ">=" rows as negated upper-bound rows, "==" rows as equalities.
Every optimal point is checked against the rows and bounds again here.
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

# Primal and dual feasibility tolerances handed to the solver.
FEAS_TOL = 1e-9
OPT_TOL = 1e-9

_SENSES = ("<=", ">=", "==")


@dataclass
class LpProblem:
    """min c.x subject to a[i] x (senses[i]) rhs[i] and variable bounds.

    The rows are one dense block: `a` is m x n_vars, `senses` one of
    "<=", ">=", "==" per row, `rhs` one float per row; bounds may be
    +-inf. Build it whole, or from `with_bounds` (no rows) by `add_row`;
    `validate` (run by solve_lp) checks either with add_row's checks.
    """

    n_vars: int
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray

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


_STATUSES = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


def solve_lp(prob: LpProblem, *, max_iter=None):
    """Solve an LpProblem; see module docstring for the method.

    max_iter defaults to 50 * (rows + columns) simplex iterations, and
    `iterations` is the solver's count of them. An LP with no variables
    is decided here, without the solver: optimal at the empty point
    unless a row 0 (sense) rhs fails. The returned solution reports the
    true maximum primal infeasibility of its point (0 when unbounded,
    inf when there is no point); an "optimal" answer failing its own
    feasibility check raises NumericalError instead of lying, as does
    any solver outcome other than the four statuses.
    """
    prob.validate()
    n = prob.n_vars
    if n == 0:
        infeas = _max_infeas(prob, np.zeros(0))
        if infeas > FEAS_TOL:
            return LpSolution(INFEASIBLE, None, None, np.inf, 0)
        return LpSolution(OPTIMAL, np.zeros(0), 0.0, infeas, 0)
    from scipy.optimize import linprog

    if max_iter is None:
        max_iter = 50 * (prob.rhs.size + n)
    ub = prob.senses != "=="
    sign = np.where(prob.senses[ub] == ">=", -1.0, 1.0)
    res = linprog(prob.objective, A_ub=sign[:, None] * prob.a[ub], b_ub=sign * prob.rhs[ub],
                  A_eq=prob.a[~ub], b_eq=prob.rhs[~ub],
                  bounds=np.column_stack([prob.lower, prob.upper]), method="highs-ds",
                  options={"presolve": False, "maxiter": max_iter,
                           "primal_feasibility_tolerance": FEAS_TOL,
                           "dual_feasibility_tolerance": OPT_TOL})
    status = _STATUSES.get(res.status)
    if status is None:
        raise NumericalError(f"LP solver failed: {res.message}")
    if status != OPTIMAL:
        return LpSolution(status, None, None, 0.0 if status == UNBOUNDED else np.inf,
                          int(res.nit))
    x = np.asarray(res.x, dtype=float)
    infeas = _max_infeas(prob, x)
    if infeas > 1e-7:
        raise NumericalError(f"LP solver reported optimal but infeasibility is {infeas:.3e}")
    return LpSolution(OPTIMAL, x, float(prob.objective @ x), infeas, int(res.nit))


def _max_infeas(prob: LpProblem, x):
    """Maximum violation of rows and bounds at x."""
    r = prob.a @ x - prob.rhs
    row = np.where(prob.senses == "<=", r, np.where(prob.senses == ">=", -r, np.abs(r)))
    return float(max(np.max(prob.lower - x, initial=0.0), np.max(x - prob.upper, initial=0.0),
                     np.max(row, initial=0.0)))
