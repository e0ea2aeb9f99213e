"""Per-target punishment rates via convex subproblems.

With individual punishment rates, the attacked target's rate is always
zero at an optimum (lowering it is free and helps the objective), so only
its coverage needs discretizing.  At fixed coverage of the attacked
target each best-response constraint has a constant left side ``kappa``;
nonpositive kappas drop out, and the rest are hyperbolic constraints
``kappa <= p_i (x_i + D_i)`` whose feasible set is second-order-cone
representable, hence convex.  Each subproblem is solved with a log-barrier
Newton method; the cone form is kept as an algebraic certificate used by
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints as cx
from .errors import (
    AllProgramsInfeasible,
    BarrierStall,
    Infeasible,
    NonpositiveKappa,
)
from .fpt import CoverageSolution, SolveConfig
from .model import AuditGame, compute_deltas

DEFAULT_P_STEP = 0.01
BARRIER_EPS = 1e-8
START_GAP = 1e-6


@dataclass(frozen=True)
class HyperbolicConstraint:
    """kappa <= p_i (x_i + shift) with kappa > 0."""

    kappa: float
    var_p: int
    shift: float

    @property
    def soc_k(self) -> float:
        return 2.0 * math.sqrt(self.kappa)


@dataclass(frozen=True)
class SocForm:
    """Cone form of a hyperbolic constraint:
    ``|| (k, p - x - shift) ||_2 <= p + x + shift`` with k = 2 sqrt(kappa)."""

    k: float
    shift: float

    def lhs(self, p: float, x: float) -> float:
        return math.hypot(self.k, p - x - self.shift)

    def rhs(self, p: float, x: float) -> float:
        return p + x + self.shift

    def holds(self, p: float, x: float, tol: float = 0.0) -> bool:
        return self.lhs(p, x) <= self.rhs(p, x) + tol


def hyperbolic_to_soc(kappa: float, shift: float) -> SocForm:
    """Rewrite ``kappa <= p (x + shift)`` as a second-order cone inequality.

    Valid for p >= 0 and x + shift >= 0; requires kappa > 0.  Note the
    right side carries the shift (not the cone constant k): squaring
    ``|| (k, p - x - shift) || <= p + x + shift`` gives
    ``k^2 <= 4 p (x + shift)`` with k = 2 sqrt(kappa).
    """
    if kappa <= 0:
        raise NonpositiveKappa(f"kappa {kappa} must be positive")
    return SocForm(k=2.0 * math.sqrt(kappa), shift=shift)


def _kappas(game: AuditGame, star: int, p_star: float):
    d = compute_deltas(game)
    out = []
    for i in range(game.n_targets):
        if i == star:
            continue
        kappa = p_star * d.delta[star] + d.delta_pair[i, star]
        if kappa > 0:
            out.append(HyperbolicConstraint(
                kappa=float(kappa), var_p=i, shift=float(d.delta[i])))
    return out


class _BarrierProblem:
    """min sum(a_i x_i) over (p_i, x_i) pairs subject to hyperbolae,
    boxes, and residual coverage-set capacity."""

    def __init__(self, hypers, costs, cap_rows):
        self.hypers = hypers   # list of HyperbolicConstraint
        self.costs = np.asarray(costs, dtype=float)
        self.cap_rows = cap_rows  # (coeff vector over p-part, capacity)
        self.m = len(hypers)

    # layout: z = [p_0..p_{m-1}, x_0..x_{m-1}]
    def split(self, z):
        return z[:self.m], z[self.m:]

    def objective(self, z):
        _, x = self.split(z)
        return float(self.costs @ x)

    def slacks(self, z):
        p, x = self.split(z)
        s = []
        for idx, h in enumerate(self.hypers):
            s.append(p[idx] * (x[idx] + h.shift) - h.kappa)
        s.extend(p)
        s.extend(1.0 - p)
        s.extend(x)
        s.extend(1.0 - x)
        for coeffs, capacity in self.cap_rows:
            s.append(capacity - float(coeffs @ p))
        return np.asarray(s)

    def n_constraints(self):
        return 4 * self.m + len(self.cap_rows) + self.m

    def barrier_grad_hess(self, z, t):
        m = self.m
        p, x = self.split(z)
        g = np.zeros(2 * m)
        h = np.zeros((2 * m, 2 * m))
        g[m:] += t * self.costs
        for idx, hc in enumerate(self.hypers):
            s = p[idx] * (x[idx] + hc.shift) - hc.kappa
            dp, dx = x[idx] + hc.shift, p[idx]
            g[idx] += -dp / s
            g[m + idx] += -dx / s
            h[idx, idx] += dp * dp / s**2
            h[m + idx, m + idx] += dx * dx / s**2
            cross = dp * dx / s**2 - 1.0 / s
            h[idx, m + idx] += cross
            h[m + idx, idx] += cross
        for idx in range(m):
            for val, sign, at in ((p[idx], 1.0, idx), (1 - p[idx], -1.0, idx),
                                  (x[idx], 1.0, m + idx),
                                  (1 - x[idx], -1.0, m + idx)):
                g[at] += -sign / val
                h[at, at] += 1.0 / val**2
        for coeffs, capacity in self.cap_rows:
            s = capacity - float(coeffs @ p)
            g[:m] += coeffs / s
            h[:m, :m] += np.outer(coeffs, coeffs) / s**2
        return g, h


def _newton_minimize(problem, z, t, tol=1e-9, max_iter=80):
    for _ in range(max_iter):
        g, h = problem.barrier_grad_hess(z, t)
        try:
            step = np.linalg.solve(h + 1e-12 * np.eye(h.shape[0]), -g)
        except np.linalg.LinAlgError:
            step = -g
        decrement = float(-g @ step)
        if decrement / 2.0 <= tol:
            return z
        alpha = 1.0
        base_obj = t * problem.objective(z) - float(
            np.log(problem.slacks(z)).sum())
        for _ in range(60):
            cand = z + alpha * step
            s = problem.slacks(cand)
            if np.all(s > 0):
                cand_obj = t * problem.objective(cand) - float(np.log(s).sum())
                if cand_obj <= base_obj + 0.25 * alpha * float(g @ step):
                    z = cand
                    break
            alpha *= 0.5
        else:
            raise BarrierStall("line search failed to progress")
    return z


def solve_socp_fixed(game: AuditGame, star: int, p_star: float,
                     cset: cx.ConstraintSet | None = None,
                     with_info: bool = False):
    """Optimal punishments and coverages at fixed attacked-target coverage.

    Maximizes ``p_star * D_D(star) - sum(a_i x_i)`` with the attacked
    target's punishment pinned to zero.  Returns (p, x_vec, objective)
    raw (without the attacked target's utility constant); with
    ``with_info`` a residuals/diagnostics dict is appended.
    Raises :class:`Infeasible` when some constraint cannot be met even at
    full coverage and punishment, or when coverage capacity is exhausted.
    """
    if cset is None:
        cset = cx.coverage_set(game)
    d = compute_deltas(game)
    n = game.n_targets
    costs_all = game.target_costs
    hypers = _kappas(game, star, p_star)
    for h in hypers:
        if game.unauditable[h.var_p]:
            raise Infeasible(
                f"target {h.var_p} needs coverage but cannot be audited")
        if h.kappa > 1.0 * (1.0 + h.shift):
            raise Infeasible(
                f"constraint for target {h.var_p} unachievable: "
                f"kappa {h.kappa:.4f} > 1 + {h.shift:.4f}")

    p = np.zeros(n)
    x = np.zeros(n)
    p[star] = p_star
    if not hypers:
        # all constraints vacuous: zero punishments, zero extra coverage
        if not cset.contains(p):
            raise Infeasible("attacked-target coverage violates capacity")
        raw = p_star * float(d.delta_d[star])
        if with_info:
            return p, x, raw, {"vacuous": True, "kkt_residual": 0.0}
        return p, x, raw

    idx = [h.var_p for h in hypers]
    costs = [costs_all[i] for i in idx]
    # coverage-set rows restricted to the active variables, with the
    # attacked target's fixed coverage folded into the capacity
    cap_rows = []
    for c in cset.constraints:
        members = set(c.target_indices)
        coeffs = np.array([1.0 if i in members else 0.0 for i in idx])
        if coeffs.any():
            capacity = float(c.bound) - (p_star if star in members else 0.0)
            cap_rows.append((coeffs, capacity))
    problem = _BarrierProblem(hypers, costs, cap_rows)

    # strictly feasible start: full punishment, just-enough coverage,
    # then verify the capacity rows hold strictly
    p0 = np.array([min(1.0 - START_GAP,
                       (h.kappa + START_GAP) / (1.0 + h.shift))
                   for h in hypers])
    z = np.concatenate([p0, np.full(len(hypers), 1.0 - START_GAP)])
    if not np.all(problem.slacks(z) > 0):
        raise Infeasible("no strictly feasible start: capacity exhausted")

    t = 1.0
    while problem.n_constraints() / t >= BARRIER_EPS:
        z = _newton_minimize(problem, z, t)
        t *= 2.0
    t /= 2.0
    # polish at the final barrier weight so KKT residuals are tight
    z = _newton_minimize(problem, z, t, tol=1e-14)
    pv, xv = problem.split(z)
    for h, pi, xi in zip(hypers, pv, xv):
        p[h.var_p] = min(1.0, max(0.0, pi))
        x[h.var_p] = min(1.0, max(0.0, xi))
    objective = p_star * float(d.delta_d[star]) - float(
        np.array(costs) @ np.clip(xv, 0.0, 1.0))
    if with_info:
        info = {
            "t": t,
            "z": z.copy(),
            "duality_gap_bound": problem.n_constraints() / t,
            "multipliers": _kkt_multipliers(problem, z),
            "hypers": hypers,
            "cap_rows": cap_rows,
            "costs": list(costs),
        }
        info["kkt_residual"] = _kkt_residual(problem, z, info["multipliers"])
        return p, x, objective, info
    return p, x, objective


def _constraint_jacobian(problem, z):
    """Gradients of every slack function, one row per constraint."""
    m = problem.m
    p, x = problem.split(z)
    rows = []
    for idx, h in enumerate(problem.hypers):
        row = np.zeros(2 * m)
        row[idx] = x[idx] + h.shift
        row[m + idx] = p[idx]
        rows.append(row)
    # box blocks in the same order slacks() emits them
    for sign, offset in ((1.0, 0), (-1.0, 0), (1.0, m), (-1.0, m)):
        for idx in range(m):
            row = np.zeros(2 * m)
            row[offset + idx] = sign
            rows.append(row)
    for coeffs, _ in problem.cap_rows:
        row = np.zeros(2 * m)
        row[:m] = -coeffs
        rows.append(row)
    return np.vstack(rows)


def _kkt_multipliers(problem, z):
    """Nonnegative multipliers certifying stationarity at z."""
    from scipy.optimize import nnls
    m = problem.m
    grad_f = np.zeros(2 * m)
    grad_f[m:] = problem.costs
    jac = _constraint_jacobian(problem, z)
    lam, _ = nnls(jac.T, grad_f)
    return lam


def _kkt_residual(problem, z, lam):
    m = problem.m
    grad_f = np.zeros(2 * m)
    grad_f[m:] = problem.costs
    jac = _constraint_jacobian(problem, z)
    return float(np.abs(grad_f - jac.T @ lam).max())


def solve_px(game: AuditGame, cfg: SolveConfig | None = None) -> CoverageSolution:
    """Best solution over attacked targets and the coverage grid.

    The attacked target's punishment is pinned at zero in every returned
    solution; remaining rates are chosen by the convex subproblems.  The
    grid step is ``cfg.epsilon`` (default 0.01 here: each grid point costs
    a Newton solve, not just an LP).
    """
    if cfg is None:
        cfg = SolveConfig(epsilon=DEFAULT_P_STEP)
    step = cfg.epsilon
    cset = cx.coverage_set(game, cfg.enumeration_cap)
    grid_points = int(math.floor(1.0 / step + 1e-12))
    grid = [i * step for i in range(grid_points + 1)]
    if grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    best = None
    solved = 0
    infeasible = 0
    for star in range(game.n_targets):
        const = game.utilities[star][1]
        for p_star in grid:
            if game.unauditable[star] and p_star > 0:
                continue
            try:
                p, x, raw = solve_socp_fixed(game, star, p_star, cset)
            except Infeasible:
                infeasible += 1
                continue
            solved += 1
            obj = const + raw
            key = (obj, -p_star, -star)
            if best is None or key > best[0]:
                best = (key, p, x, star, p_star)
    if best is None:
        raise AllProgramsInfeasible("no coverage grid point is feasible")
    _, p, x, star, p_star = best
    return CoverageSolution(
        p=p, x=x, objective=best[0][0], star=star,
        formulation="transformed", method="tsp",
        details={
            "p_step": step,
            "subproblems_solved": solved,
            "subproblems_infeasible": infeasible,
            "x_star": float(x[star]),
            "residuals": _px_residuals(game, cset, star, p, x),
        },
    )


def _px_residuals(game: AuditGame, cset, star: int, p, x) -> dict:
    """Constraint residuals of a per-target-punishment solution."""
    d = compute_deltas(game)
    br = 0.0
    for i in range(game.n_targets):
        if i == star:
            continue
        lhs = (p[star] * (x[star] + d.delta[star]) + d.delta_pair[i, star]
               - p[i] * (x[i] + d.delta[i]))
        br = max(br, float(lhs))
    cvio = 0.0
    for c in cset.constraints:
        cvio = max(cvio, float(p[list(c.target_indices)].sum() - c.bound))
    return {
        "best_response": br,
        "coverage_set": cvio,
        "box": max(0.0, float((-p).max()), float((p - 1).max()),
                   float((-x).max()), float((x - 1).max())),
        "x_star": float(x[star]),
    }
