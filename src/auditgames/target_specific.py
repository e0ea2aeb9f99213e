"""Per-target punishment rates via convex subproblems.

With individual punishment rates, the attacked target's rate is always
zero at an optimum (lowering it is free and helps the objective), so only
its coverage needs discretizing.  At fixed coverage of the attacked
target each best-response constraint has a constant left side ``kappa``;
nonpositive kappas drop out, and the rest are hyperbolic constraints
``kappa <= p_i (x_i + D_i)`` whose feasible set is second-order-cone
representable, hence convex.  Each subproblem is solved with a log-barrier
Newton method; the cone form is kept as an algebraic certificate used by
the tests.  As each slack ``p (x + shift) - kappa`` is ``(r^2 - |u|^2) / 4``
with r and u affine, the barrier is self-concordant (a cone barrier under
an affine map): Newton takes full steps once the squared decrement is below
1/16.  The weight starts at ``n_constraints / sum(costs)`` (x starts near
1), grows by ``MU`` and ends at a gap bound of exactly BARRIER_EPS.
"""

from __future__ import annotations

import math
from collections import Counter
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
MU = 16  # barrier weight growth per centring


@dataclass(frozen=True)
class HyperbolicConstraint:
    """kappa <= p_i (x_i + shift) with kappa > 0."""

    kappa: float
    var_p: int
    shift: float


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
    boxes, and residual coverage-set capacity; ``cap_rows`` holds
    (coefficient vector over the p-part, capacity) pairs."""

    def __init__(self, hypers, costs, cap_rows):
        self.m = len(hypers)
        self.kappa = np.array([h.kappa for h in hypers], dtype=float)
        self.shift = np.array([h.shift for h in hypers], dtype=float)
        self.costs = np.asarray(costs, dtype=float)
        self.cap_matrix = np.array([c for c, _ in cap_rows],
                                   dtype=float).reshape(-1, self.m)
        self.capacity = np.array([b for _, b in cap_rows], dtype=float)
        self.reg = 1e-12 * np.eye(2 * self.m)  # Newton system regulariser
        pairs = np.arange(self.m) * (2 * self.m + 1)
        self._cross_at = np.concatenate((pairs + self.m,
                                         pairs + 2 * self.m * self.m))

    # layout: z = [p_0..p_{m-1}, x_0..x_{m-1}]
    def split(self, z):
        return z[:self.m], z[self.m:]

    def objective(self, z):
        _, x = self.split(z)
        return float(self.costs @ x)

    def slacks(self, z):
        """Hyperbolae, p >= 0, p <= 1, x >= 0, x <= 1, then capacities."""
        p, x = self.split(z)
        return np.concatenate((p * (x + self.shift) - self.kappa, p, 1.0 - p,
                               x, 1.0 - x,
                               self.capacity - self.cap_matrix @ p))

    def n_constraints(self):
        return 5 * self.m + self.capacity.size

    def barrier_change(self, z, dz, t):
        """Barrier at z + dz minus barrier at z, None outside the domain;
        from slack ratios, as the values round to ~1e-8 at t ~ 1e9."""
        s1 = self.slacks(z + dz)
        if not (s1 > 0).all():
            return None
        return (t * float(self.costs @ dz[self.m:])
                - float(np.log(s1 / self.slacks(z)).sum()))

    def barrier_grad_hess(self, z, t):
        m = self.m
        p, x = self.split(z)
        dp = x + self.shift            # d s / d p of each hyperbola
        s = p * dp - self.kappa
        s2 = s**2
        w = 1.0 - z
        g = np.concatenate((-dp / s, t * self.costs - p / s))
        g -= 1.0 / z
        g += 1.0 / w
        diag = np.concatenate((dp * dp / s2, p * p / s2))
        diag += 1.0 / z**2
        diag += 1.0 / w**2
        h = np.diag(diag)
        # the m mixed terms go to both (p_i, x_i) and (x_i, p_i): put()
        # repeats its values over the 2m flat indices
        h.put(self._cross_at, dp * p / s2 - 1.0 / s)
        if self.capacity.size:
            cap_s = self.capacity - self.cap_matrix @ p
            g[:m] += self.cap_matrix.T @ (1.0 / cap_s)
            h[:m, :m] += (self.cap_matrix.T / cap_s**2) @ self.cap_matrix
        return g, h


def _newton_minimize(problem, z, t, tally, tol=1e-9, max_iter=80):
    """Newton on the barrier at weight ``t`` (Boyd & Vandenberghe 9.6):
    full steps below 1/16, Armijo backtracking on the change above.  Stops
    at ``tol`` or when a full step did not shrink the decrement (rounding
    floor); returns z, counting steps and line-search trials in tally."""
    last = math.inf  # squared decrement before the last full step
    for _ in range(max_iter):
        g, h = problem.barrier_grad_hess(z, t)
        try:
            step = np.linalg.solve(h + problem.reg, -g)
        except np.linalg.LinAlgError:
            step = -g
        decrement = -float(g @ step)
        if decrement / 2.0 <= tol or decrement >= last:
            return z
        tally["newton_steps"] += 1
        tally["line_search_trials"] += 1
        if decrement < 1.0 / 16.0 and (problem.slacks(z + step) > 0).all():
            z, last = z + step, decrement
            continue
        alpha = 1.0
        for _ in range(60):
            change = problem.barrier_change(z, alpha * step, t)
            if change is not None and change <= -0.25 * alpha * decrement:
                break
            alpha *= 0.5
            tally["line_search_trials"] += 1
        else:
            raise BarrierStall("line search failed to progress")
        z, last = z + alpha * step, math.inf
    return z


def solve_socp_fixed(game: AuditGame, star: int, p_star: float,
                     cset: cx.ConstraintSet | None = None,
                     with_info: bool = False, tally: Counter | None = None):
    """Optimal punishments and coverages at fixed attacked-target coverage.

    Maximizes ``p_star * D_D(star) - sum(a_i x_i)`` with the attacked
    target's punishment pinned to zero.  Returns (p, x_vec, objective)
    raw (without the attacked target's utility constant); with
    ``with_info`` a residuals/diagnostics dict is appended.  ``tally``,
    when given, counts ``"newton_steps"`` and ``"line_search_trials"``.
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
        if not cx.liftable_to_grid(game, p):
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

    n_cons = problem.n_constraints()
    t_end = n_cons / BARRIER_EPS
    total = float(problem.costs.sum())
    t = min(n_cons / total, t_end) if total > 0.0 else t_end
    tally = Counter() if tally is None else tally
    while t < t_end:
        z = _newton_minimize(problem, z, t, tally)
        t = min(MU * t, t_end)
    # centre tightly at the final weight so KKT residuals are small
    z = _newton_minimize(problem, z, t, tally, tol=1e-14)
    pv, xv = problem.split(z)
    for h, pi, xi in zip(hypers, pv, xv):
        p[h.var_p] = min(1.0, max(0.0, pi))
        x[h.var_p] = min(1.0, max(0.0, xi))
    objective = p_star * float(d.delta_d[star]) - float(
        problem.costs @ np.clip(xv, 0.0, 1.0))
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
    """Gradients of every slack function, one row per constraint, in the
    order ``slacks`` emits them."""
    m = problem.m
    p, x = problem.split(z)
    eye = np.eye(m)
    zero = np.zeros((m, m))
    hyper = np.hstack((np.diag(x + problem.shift), np.diag(p)))
    return np.vstack((hyper,
                      np.hstack((eye, zero)), np.hstack((-eye, zero)),
                      np.hstack((zero, eye)), np.hstack((zero, -eye)),
                      np.hstack((-problem.cap_matrix,
                                 np.zeros_like(problem.cap_matrix)))))


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
    tally = Counter()
    for star in range(game.n_targets):
        const = game.utilities[star][1]
        for p_star in grid:
            if game.unauditable[star] and p_star > 0:
                continue
            try:
                p, x, raw = solve_socp_fixed(game, star, p_star, cset,
                                             tally=tally)
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
            "newton_steps": tally["newton_steps"],
            "line_search_trials": tally["line_search_trials"],
            "x_star": float(x[star]),
            "residuals": _px_residuals(game, star, p, x),
        },
    )


def _px_residuals(game: AuditGame, star: int, p, x) -> dict:
    """Constraint residuals of a per-target-punishment solution; ``lift``
    is the coverage no allocation can carry (see ``coverage_flow``)."""
    d = compute_deltas(game)
    lhs = (p[star] * (x[star] + d.delta[star]) + d.delta_pair[:, star]
           - p * (x + d.delta))
    return {
        "best_response": float(np.delete(lhs, star).max(initial=0.0)),
        "lift": cx.coverage_flow(game, p)[1],
        "box": max(0.0, float((-p).max()), float((p - 1).max()),
                   float((-x).max()), float((x - 1).max())),
        "x_star": float(x[star]),
    }
