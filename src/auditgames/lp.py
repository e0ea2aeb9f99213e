"""Linear programs through the HiGHS dual simplex that scipy ships.

Maximizes a linear objective subject to linear rows (<=, =, >=) and
per-variable bounds.  The dual simplex ends on a basis, so every optimum
is a vertex, and HiGHS is deterministic for identical input.  scipy is
imported on the first solve, so importing this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown

FEAS_TOL = 1e-9
IMPLIES_TOL = 1e-7
# sparse rows of at most this many entries go to linprog dense: faster
_DENSE_MAX = 1 << 16


@dataclass
class LinearProgram:
    """``constraints`` is a list of (coeffs, rel, rhs) triples, or — for
    callers on a hot path — a single (matrix, rels, rhs_vector) triple,
    whose matrix may be a numpy array or a scipy.sparse CSR matrix.  The
    list form is stored as a dense matrix triple."""

    objective: np.ndarray  # maximize objective @ x
    constraints: list      # (coeffs, '<=' | '=' | '>=', rhs)
    bounds: list           # per-variable (lo, hi); hi may be math.inf

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.objective.size
        if len(self.bounds) != n:
            raise ValueError("bounds/objective dimension mismatch")
        form = self.constraints
        if (isinstance(form, tuple) and len(form) == 3
                and len(getattr(form[0], "shape", ())) == 2):
            mat, rels, rhs = form
        else:
            rows = list(form)
            if any(len(coeffs) != n for coeffs, _, _ in rows):
                raise ValueError("constraint dimension mismatch")
            mat = np.array([c for c, _, _ in rows], float).reshape(-1, n)
            rels = [rel for _, rel, _ in rows]
            rhs = [value for _, _, value in rows]
        rhs = np.asarray(rhs, dtype=float)
        if mat.shape != (len(rels), n) or rhs.shape != (len(rels),):
            raise ValueError("constraint dimension mismatch")
        if not set(rels) <= {"<=", "=", ">="}:
            raise ValueError(f"unknown relation in {sorted(set(rels))}")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs must be finite")
        self.constraints = (mat, rels, rhs)


@dataclass
class LpOutcome:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    solution: np.ndarray | None = None
    objective_value: float = math.nan
    is_vertex: bool = False
    iterations: int = 0  # simplex iterations


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Optimal basic feasible solution, deterministic for identical input."""
    from scipy.optimize import linprog

    mat, rels, rhs = lp.constraints
    if hasattr(mat, "toarray") and mat.shape[0] * mat.shape[1] <= _DENSE_MAX:
        mat = mat.toarray()
    rels = np.asarray(rels, dtype=object)
    sign = np.where(rels == ">=", -1.0, 1.0)  # ">=" rows enter negated
    ub, eq = np.flatnonzero(rels != "="), np.flatnonzero(rels == "=")
    if not lp.objective.size:  # HiGHS takes no columns: decide the rows at 0
        if (np.all(rhs[ub] * sign[ub] >= -FEAS_TOL)
                and np.all(np.abs(rhs[eq]) <= FEAS_TOL)):
            return LpOutcome("optimal", np.zeros(0), 0.0, is_vertex=True)
        return LpOutcome("infeasible")
    res = linprog(
        -lp.objective,
        A_ub=mat[ub] * sign[ub, None] if ub.size else None,
        b_ub=rhs[ub] * sign[ub] if ub.size else None,
        A_eq=mat[eq] if eq.size else None, b_eq=rhs[eq] if eq.size else None,
        bounds=np.asarray(lp.bounds, dtype=float).reshape(-1, 2),
        method="highs-ds",
        # HiGHS's default primal tolerance is 1e-7
        options={"primal_feasibility_tolerance": FEAS_TOL})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    if status is None:
        raise NumericalBreakdown(res.message)
    if status != "optimal":
        return LpOutcome(status=status, iterations=res.nit)
    return LpOutcome(status, res.x, float(lp.objective @ res.x),
                     is_vertex=True, iterations=res.nit)


def solve_feasibility(constraints, bounds) -> LpOutcome:
    """Any feasible point (zero objective); ``constraints`` takes either
    form that :class:`LinearProgram` takes."""
    return solve_lp(LinearProgram(np.zeros(len(bounds)), constraints,
                                  bounds))


def implies(polytope_rows, constraint, n_vars: int) -> bool:
    """True iff every point of the boxed polytope satisfies ``constraint``.

    Both arguments use (coeffs, '<=', rhs) form over the box [0, 1]^n.
    Decided by one LP: maximize the constraint's left side over the
    polytope and compare against its rhs.
    """
    coeffs, rel, rhs = constraint
    if rel != "<=":
        raise ValueError("implies() expects a '<=' constraint")
    out = solve_lp(LinearProgram(coeffs, list(polytope_rows),
                                 [(0.0, 1.0)] * n_vars))
    if out.status == "infeasible":
        return True  # vacuous: callers guarantee nonempty input
    return out.objective_value <= rhs + IMPLIES_TOL
