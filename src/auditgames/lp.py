"""Self-contained dense two-phase primal simplex.

Maximizes a linear objective subject to linear rows (<=, =, >=) and
per-variable bounds.  Equalities become two inequalities, finite upper
bounds become extra rows, and lower bounds are shifted out, so the core
works on ``max c.y  s.t.  A y <= b, y >= 0``.  Pricing is Dantzig with a
permanent switch to Bland's rule after a run of degenerate pivots; all
ties break toward the lowest index so results are deterministic.

The hot loop keeps one row-major tableau (rows + objective row + rhs
column) and applies each pivot as one BLAS rank-1 update, restricted to
the rows the pivot column touches when those are few.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

from .errors import NumericalBreakdown

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
IMPLIES_TOL = 1e-7
# a pivot whose column touches fewer than this share of the tableau rows
# updates a compacted copy of just those rows
_SPARSE_PIVOT_SHARE = 0.25


@dataclass
class LinearProgram:
    """``constraints`` is a list of (coeffs, rel, rhs) triples, or — for
    callers on a hot path — a single (matrix, rels, rhs_vector) triple."""

    objective: np.ndarray  # maximize objective @ x
    constraints: list      # (coeffs, '<=' | '=' | '>=', rhs)
    bounds: list           # per-variable (lo, hi); hi may be math.inf

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.size
        if len(self.bounds) != n:
            raise ValueError("bounds/objective dimension mismatch")
        for coeffs, rel, rhs in self.iter_rows():
            if len(coeffs) != n:
                raise ValueError("constraint dimension mismatch")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")
            if not math.isfinite(rhs):
                raise ValueError("rhs must be finite")

    def _matrix_form(self):
        return (
            isinstance(self.constraints, tuple)
            and len(self.constraints) == 3
            and isinstance(self.constraints[0], np.ndarray)
            and self.constraints[0].ndim == 2
        )

    def iter_rows(self):
        if self._matrix_form():
            mat, rels, rhs = self.constraints
            for i in range(mat.shape[0]):
                yield mat[i], rels[i], float(rhs[i])
        else:
            yield from self.constraints


@dataclass
class LpOutcome:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    solution: np.ndarray | None = None
    objective_value: float = math.nan
    is_vertex: bool = False
    duals: np.ndarray | None = None  # multipliers for standardize()'s <= rows
    iterations: int = 0


def standardize(lp: LinearProgram):
    """Reduce to ``max c.y, A y <= b, y >= 0`` plus bookkeeping.

    Returns (c, A, b, free_idx, shift, fixed_values).  Variables with
    ``hi - lo <= 1e-12`` are eliminated at ``lo``; remaining ones are
    shifted by their lower bound.  Rows: user rows first (equalities as a
    <=/>= pair, >= negated), then one row per finite upper bound.
    """
    n = lp.objective.size
    lo = np.array([b[0] for b in lp.bounds], dtype=float)
    hi = np.array([b[1] for b in lp.bounds], dtype=float)
    if not np.all(np.isfinite(lo)):
        raise ValueError("every variable needs a finite lower bound")
    if np.any(hi - lo < -1e-12):
        raise ValueError("bounds with lo > hi")
    fixed = (hi - lo) <= 1e-12
    free_idx = np.flatnonzero(~fixed)
    x_fixed = lo.copy()  # fixed vars sit at lo; free entries overwritten later

    if lp._matrix_form():
        mat, rels, rhs_vec = lp.constraints
        mat = np.asarray(mat, dtype=float)
        rhs_vec = np.asarray(rhs_vec, dtype=float)
        if all(r == "<=" for r in rels):
            A_user, b_user = mat, rhs_vec
        else:
            parts_a, parts_b = [], []
            le = np.array([r in ("<=", "=") for r in rels])
            ge = np.array([r in (">=", "=") for r in rels])
            if le.any():
                parts_a.append(mat[le])
                parts_b.append(rhs_vec[le])
            if ge.any():
                parts_a.append(-mat[ge])
                parts_b.append(-rhs_vec[ge])
            A_user = np.vstack(parts_a)
            b_user = np.concatenate(parts_b)
    else:
        rows = []
        rhs = []
        for coeffs, rel, r in lp.constraints:
            a = np.asarray(coeffs, dtype=float)
            if rel in ("<=", "="):
                rows.append(a)
                rhs.append(r)
            if rel in (">=", "="):
                rows.append(-a)
                rhs.append(-r)
        A_user = np.vstack(rows) if rows else np.zeros((0, n))
        b_user = np.asarray(rhs, dtype=float)

    ub_idx = free_idx[np.isfinite(hi[free_idx])]
    if A_user.shape[0] or ub_idx.size:
        A_bnd = np.zeros((ub_idx.size, n))
        A_bnd[np.arange(ub_idx.size), ub_idx] = 1.0
        A_full = np.vstack([A_user, A_bnd]) if ub_idx.size else A_user
        b_full = np.concatenate([b_user, hi[ub_idx]]) if ub_idx.size else b_user
        # substitute fixed variables and shift the free ones to zero
        b_adj = b_full.copy()
        fixed_vals = x_fixed * fixed
        if np.any(fixed_vals):
            b_adj -= A_full @ fixed_vals
        if np.any(lo[free_idx]):
            b_adj -= A_full[:, free_idx] @ lo[free_idx]
        A = A_full if free_idx.size == n else A_full[:, free_idx]
    else:
        A = np.zeros((0, free_idx.size))
        b_adj = np.zeros(0)
    c = lp.objective[free_idx]
    return c, A, b_adj, free_idx, lo[free_idx], x_fixed * fixed


def _simplex_loop(T, basis, m, width, obj_row, use_bland, max_iter):
    """Run pivots until optimal/unbounded.  T is (m+1) x (width+1), C order.

    Returns (status, iterations, use_bland).  The objective row is
    T[obj_row, :width]; rhs is column ``width``.  Pricing is Dantzig
    scaled by Devex reference weights (a steepest-edge approximation that
    sharply cuts pivots on degenerate instances); after a long run of
    degenerate steps it permanently switches to Bland's rule.
    """
    degenerate_run = 0
    bland_threshold = 3 * (m + width)
    devex = np.ones(width)
    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise NumericalBreakdown(f"simplex iteration cap {max_iter} hit")
        red = T[obj_row, :width]
        if use_bland:
            negatives = np.flatnonzero(red < -FEAS_TOL)
            if negatives.size == 0:
                return "optimal", it - 1, use_bland
            enter_candidates = negatives  # already ascending
        else:
            scores = np.where(red < -FEAS_TOL, red * red / devex, 0.0)
            j = int(np.argmax(scores))
            if scores[j] <= 0.0:
                return "optimal", it - 1, use_bland
            enter_candidates = (j,)

        pivoted = False
        saw_tiny_only = False
        for col in enter_candidates:
            colvals = T[:m, col]
            usable = colvals > PIVOT_TOL
            if not usable.any():
                if (colvals > 0).any():
                    saw_tiny_only = True
                    continue
                return "unbounded", it, use_bland
            ratios = np.full(m, np.inf)
            np.divide(T[:m, width], colvals, out=ratios, where=usable)
            best = ratios.min()
            tied = np.flatnonzero(ratios <= best + 1e-12)
            if use_bland:
                row = tied[int(np.argmin(np.asarray(basis)[tied]))]
            elif tied.size > 1:
                # break degenerate ties toward the largest pivot element
                # (more stable and fewer stalled steps); then lowest row
                row = int(tied[int(np.argmax(colvals[tied]))])
            else:
                row = int(tied[0])
            alpha_q = T[row, col]
            leaving = basis[row]
            _pivot(T, basis, row, col)
            if not use_bland:
                # devex reference-weight update from the fresh pivot row
                w_enter = devex[col]
                pivot_row = T[row, :width]
                np.maximum(devex, (pivot_row * pivot_row) * w_enter,
                           out=devex)
                devex[leaving] = max(w_enter / (alpha_q * alpha_q), 1.0)
            if best <= 1e-10:
                degenerate_run += 1
                if degenerate_run > bland_threshold:
                    use_bland = True
            else:
                degenerate_run = 0
            pivoted = True
            break
        if not pivoted:
            if saw_tiny_only:
                raise NumericalBreakdown(
                    "all pivot candidates below tolerance")
            return "optimal", it, use_bland


def _pivot(T, basis, row, col):
    piv = T[row, col]
    T[row, :] /= piv
    colvec = T[:, col].copy()
    colvec[row] = 0.0
    prow = T[row, :].copy()
    # T -= outer(colvec, prow) as an in-place BLAS rank-1 update of T's
    # (Fortran-ordered) transpose; rows with a zero in colvec are unchanged
    rows = np.flatnonzero(colvec)
    if rows.size >= _SPARSE_PIVOT_SHARE * T.shape[0]:
        full = T.T
        out = dger(-1.0, prow, colvec, a=full, overwrite_a=1)
        if out is not full:  # BLAS refused in-place; fall back to a copy-back
            T[:, :] = out.T
    elif rows.size:
        sub = T[rows].T
        T[rows] = dger(-1.0, prow, colvec[rows], a=sub, overwrite_a=1).T
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Optimal basic feasible solution, deterministic for identical input."""
    c, A, b, free_idx, shift, x_fixed = standardize(lp)
    n_orig = lp.objective.size
    ns = c.size
    m0 = A.shape[0]

    # drop rows with no surviving variables
    if ns == 0:
        if m0 and np.any(b < -FEAS_TOL):
            return LpOutcome(status="infeasible")
        x = x_fixed.copy()
        return LpOutcome(
            status="optimal", solution=x,
            objective_value=float(lp.objective @ x), is_vertex=True,
            duals=np.zeros(m0), iterations=0)
    keep = np.ones(m0, dtype=bool)
    if m0:
        zero_rows = np.abs(A).max(axis=1) <= 0.0 if A.size else np.ones(m0, bool)
        for i in np.flatnonzero(zero_rows):
            if b[i] < -FEAS_TOL:
                return LpOutcome(status="infeasible")
            keep[i] = False
    kept_rows = np.flatnonzero(keep)
    A = A[keep]
    b = b[keep]
    m = A.shape[0]

    neg = b < 0
    n_art = int(neg.sum())
    width = ns + m + n_art
    T = np.zeros((m + 1, width + 1))
    T[:m, :ns] = A
    T[:m, width] = b
    # slacks: +1 normally; rows flipped for negative rhs carry a -1 slack
    sign = np.where(neg, -1.0, 1.0)
    T[:m, :ns] *= sign[:, None]
    T[:m, width] *= sign
    T[np.arange(m), ns + np.arange(m)] = sign
    basis = [0] * m
    art_col = ns + m
    for i in range(m):
        if neg[i]:
            T[i, art_col] = 1.0
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = ns + i

    iterations = 0
    use_bland = False
    max_iter = 200000
    if n_art:
        # phase 1: maximize -sum(artificials); reduced costs from basic rows
        T[m, :] = 0.0
        for i in range(m):
            if neg[i]:
                T[m, :] -= T[i, :]
        T[m, ns + m: width] = 0.0
        status, its, use_bland = _simplex_loop(
            T, basis, m, width, m, use_bland, max_iter)
        iterations += its
        if status != "optimal":
            raise NumericalBreakdown("phase 1 terminated " + status)
        scale = max(1.0, float(np.abs(b).max()) if m else 1.0)
        if -T[m, width] > FEAS_TOL * scale * 10:
            return LpOutcome(status="infeasible", iterations=iterations)
        # force remaining artificials out of the basis; a zero rhs makes any
        # nonzero pivot (even negative) safe, and the slack block guarantees
        # a nonzero entry exists in every row up to numerical noise
        for i in range(m):
            if basis[i] >= ns + m:
                cols = np.flatnonzero(np.abs(T[i, :ns + m]) > PIVOT_TOL)
                if not cols.size:
                    raise NumericalBreakdown(
                        "cannot eliminate artificial from a dependent row")
                _pivot(T, basis, i, int(cols[0]))
        T = np.ascontiguousarray(T[:, list(range(ns + m)) + [width]])
        width = ns + m

    # phase 2 objective row: reduced costs z_j - c_j for the true objective
    cost = np.zeros(width + 1)
    cost[:ns] = c
    T[m, :] = -cost
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0.0:
            T[m, :] += cb * T[i, :]
    status, its, use_bland = _simplex_loop(
        T, basis, m, width, m, use_bland, max_iter)
    iterations += its
    if status == "unbounded":
        return LpOutcome(status="unbounded", iterations=iterations)

    y = np.zeros(width)
    for i in range(m):
        y[basis[i]] = T[i, width]
    y = np.maximum(y, 0.0)  # shave numerical negatives
    x = x_fixed.copy()
    x[free_idx] = shift + y[:ns]

    # duals for the standardized <= rows come off the slack reduced costs
    duals = np.zeros(m0)
    duals[kept_rows] = T[m, ns: ns + m]
    return LpOutcome(
        status="optimal",
        solution=x,
        objective_value=float(lp.objective @ x),
        is_vertex=True,
        duals=duals,
        iterations=iterations,
    )


def solve_feasibility(constraints, bounds) -> LpOutcome:
    """Any feasible point (phase 1 only, zero objective)."""
    n = len(bounds)
    lp = LinearProgram(objective=np.zeros(n), constraints=list(constraints),
                       bounds=list(bounds))
    return solve_lp(lp)


def implies(polytope_rows, constraint, n_vars: int) -> bool:
    """True iff every point of the boxed polytope satisfies ``constraint``.

    Both arguments use (coeffs, '<=', rhs) form over the box [0, 1]^n.
    Decided by one LP: maximize the constraint's left side over the
    polytope and compare against its rhs.
    """
    coeffs, rel, rhs = constraint
    if rel != "<=":
        raise ValueError("implies() expects a '<=' constraint")
    lp = LinearProgram(
        objective=np.asarray(coeffs, dtype=float),
        constraints=list(polytope_rows),
        bounds=[(0.0, 1.0)] * n_vars,
    )
    out = solve_lp(lp)
    if out.status == "infeasible":
        return True  # vacuous: callers guarantee nonempty input
    return out.objective_value <= rhs + IMPLIES_TOL
