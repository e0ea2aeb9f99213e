"""Per-target punishment rates via exact fixed-coverage subproblems.

With individual punishment rates, the attacked target's rate is always
zero at an optimum (lowering it is free and helps the objective), so only
its coverage needs discretizing.  At fixed coverage p_s of the attacked
target s each best-response constraint has a constant left side
``kappa_i``; nonpositive kappas drop out, and the rest are hyperbolic
constraints ``kappa_i <= p_i (x_i + D_i)``, second-order-cone
representable and so convex (the cone form is kept as an algebraic
certificate used by the tests).  The cheapest punishment that meets
constraint i at coverage p_i is ``x_i = max(0, kappa_i / p_i - D_i)``,
which leaves

    minimise sum c_i kappa_i / p_i  subject to  l_i <= p_i <= u_i
    and p lifting to an allocation with p_s routed first,

with ``l_i = kappa_i / (1 + D_i)`` (x_i <= 1) and ``u_i = min(1,
kappa_i / D_i)`` when D_i > 0 (no gain past x_i = 0), else 1; a free
target (c_i = 0) takes l_i.  The coverage vectors that lift with p_s form
a polymatroid (the audit graph's transversal polymatroid, contracted by
p_s) and the objective is separable, convex and decreasing, so the
decomposition algorithm solves the program exactly (Fujishige, Math.
Oper. Res. 1980; Groenevelt, EJOR 1991): with f the most coverage that
routes under the caps u, ``y_i = clip(w_i lam, l_i, u_i)``, w_i =
sqrt(c_i kappa_i), with sum(y) = f is optimal if it routes; otherwise the
min cut's target side is tight at an optimum, so it is solved alone and
the rest is solved with it routed first.  The pair is infeasible exactly
when l does not route with p_s.  A pair's flows run on copies of one
``constraints.CoverageNetwork``, warm-started from the routing of l.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import constraints as cx
from .errors import AllProgramsInfeasible, Infeasible, NonpositiveKappa
from .fpt import CoverageSolution, SolveConfig, verify_solution, x_grid
from .model import AuditGame, compute_deltas

DEFAULT_P_STEP = 0.01  # a grid point costs a few max flows per attacked target


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


def _water_fill(lo, hi, w, total):
    """y = clip(w lam, lo, hi) with sum(y) = total, for sum(lo) <= total
    <= sum(hi) and lo = hi where w = 0: the sum is piecewise linear in
    lam between the sorted breakpoints lo / w and hi / w, so lam is
    interpolated exactly."""
    pos = w > 0
    lam = np.sort(np.concatenate((lo[pos] / w[pos], hi[pos] / w[pos])))
    sums = np.clip(np.outer(lam, w), lo, hi).sum(axis=1)
    at = int(np.searchsorted(sums, total))
    if at == 0:
        return lo.copy()
    if at == lam.size:
        return hi.copy()
    a, b = lam[at - 1], lam[at]
    return np.clip(w * (a + (b - a) * (total - sums[at - 1])
                        / (sums[at] - sums[at - 1])), lo, hi)


def _decompose(net, free, lo, hi, w, tally):
    """Optimal coverages of the targets ``free`` (an int array) given the
    targets already routed in ``net``, on which ``lo`` routes too (the
    decomposition algorithm).  Returns them and a network with them
    routed first."""
    tally["flows"] += 2
    top = net.copy()
    top.route(dict(zip(free.tolist(), hi.tolist())))
    y = _water_fill(lo, hi, w, sum(top.routed[i] for i in free))
    routed = net.copy()
    tight = np.isin(free, list(routed.route(dict(zip(free.tolist(),
                                                         y.tolist())))))
    # every free target on the cut side only by rounding: f routes
    if not tight.any() or tight.all():
        return y, routed
    tally["splits"] += 1
    inner = net.copy()
    inner.drop(free[~tight].tolist())
    y[tight], inner = _decompose(inner, free[tight], lo[tight], hi[tight],
                                 w[tight], tally)
    rest = ~tight
    tally["flows"] += 1
    inner.route(dict(zip(free[rest].tolist(), lo[rest].tolist())))
    y[rest], inner = _decompose(inner, free[rest], lo[rest], hi[rest],
                                w[rest], tally)
    return y, inner


# Counted under this name by benchmark/layers.py until it reads a trace.
_newton_minimize = _decompose


def solve_socp_fixed(game: AuditGame, star: int, p_star: float,
                     tally: Counter | None = None):
    """Optimal punishments and coverages at fixed attacked-target coverage.

    Maximizes ``p_star * D_D(star) - sum(c_i x_i)`` with the attacked
    target's punishment pinned to zero.  Returns (p, x_vec, objective)
    raw (without the attacked target's utility constant).  ``tally``,
    when given, counts max ``"flows"`` and the decomposition's
    ``"splits"``.  Raises :class:`Infeasible` when some constraint cannot
    be met even at full coverage and punishment, or when the least
    coverages l do not route with p_star, naming the (attacked target,
    coverage) pair and the min cut's target set.
    """
    tally = Counter() if tally is None else tally
    d = compute_deltas(game)
    pair = f"attacked target {star} at coverage {p_star:.6g}"
    kappa = p_star * d.delta[star] + d.delta_pair[:, star]
    kappa[star] = 0.0
    free = np.flatnonzero(kappa > 0)
    for i in free:
        if game.unauditable[i]:
            raise Infeasible(f"{pair}: target {i} needs coverage but "
                             "cannot be audited")
        if kappa[i] > 1.0 * (1.0 + d.delta[i]):
            raise Infeasible(f"{pair}: constraint for target {i} "
                             f"unachievable: kappa {kappa[i]:.4f} > 1 + "
                             f"{d.delta[i]:.4f}")
    p = np.zeros(game.n_targets)
    p[star] = p_star
    x = np.zeros(game.n_targets)
    costs = np.asarray(game.target_costs, dtype=float)
    net = cx.CoverageNetwork(game)
    tally["flows"] += 1
    if net.route({star: p_star}):
        raise Infeasible(f"{pair}: attacked-target coverage violates "
                         "capacity")
    if free.size:
        kap, shift, c = kappa[free], d.delta[free], costs[free]
        lo = kap / (1.0 + shift)
        with np.errstate(divide="ignore"):
            hi = np.where(shift > 0, np.minimum(1.0, kap / shift), 1.0)
        hi = np.where(c > 0, hi, lo)
        tally["flows"] += 1
        cut = net.route(dict(zip(free.tolist(), lo.tolist())))
        if cut:
            need = {star: p_star, **dict(zip(free.tolist(), lo.tolist()))}
            reach = set().union(*(game.auditors[i] for i in cut))
            raise Infeasible(
                f"{pair}: targets {sorted(cut)} need "
                f"{sum(need[i] for i in cut):.4g} coverage on "
                f"{len(reach)} resources")
        y, _ = _decompose(net, free, lo, hi, np.sqrt(c * kap), tally)
        p[free] = y
        x[free] = np.clip(kap / y - shift, 0.0, 1.0)
    return p, x, p_star * float(d.delta_d[star]) - float(costs @ x)


def solve_px(game: AuditGame, cfg: SolveConfig | None = None) -> CoverageSolution:
    """Best solution over attacked targets and the coverage grid.

    The attacked target's punishment is pinned at zero in every returned
    solution; remaining rates are chosen by the exact fixed-coverage
    subproblems, one :func:`solve_socp_fixed` per (attacked target, grid
    coverage) pair.  The grid step is ``cfg.epsilon`` (default 0.01
    here); ``cfg.enumeration_cap`` is ignored, as no C is enumerated.  The
    solution is checked, and its residuals reported, by
    :func:`fpt.verify_solution`, as fpt's and fptas' are.

    Branch and bound (Land & Doig, Econometrica 1960): targets are visited
    in descending ``ud_a`` order and grid coverages from 1 down.  Costs
    are nonnegative, so a pair (s, p_s) reaches at most
    ``ud_u(s) + p_s D_D(s)``; a pair whose bound lies strictly below the
    best objective found so far is skipped, counted in
    ``details["pruned"]``.  Pairs that tie the best are still solved, so
    the solution and its tie-break are those of solving every pair.
    """
    if cfg is None:
        cfg = SolveConfig(epsilon=DEFAULT_P_STEP)
    grid = x_grid(cfg.epsilon)[::-1]
    d = compute_deltas(game)
    best = None
    solved = infeasible = pruned = 0
    tally = Counter()
    for star in sorted(range(game.n_targets),
                       key=lambda s: -game.utilities[s][0]):
        ud_u = game.utilities[star][1]
        gain = float(d.delta_d[star])
        for p_star in grid:
            if game.unauditable[star] and p_star > 0:
                continue
            if best is not None and ud_u + p_star * gain < best[0][0]:
                pruned += 1
                continue
            try:
                p, x, raw = solve_socp_fixed(game, star, p_star, tally)
            except Infeasible:
                infeasible += 1
                continue
            solved += 1
            key = (ud_u + raw, -p_star, -star)
            if best is None or key > best[0]:
                best = (key, p, x, star)
    if best is None:
        raise AllProgramsInfeasible("no coverage grid point is feasible")
    _, p, x, star = best
    sol = CoverageSolution(
        p=p, x=x, objective=best[0][0], star=star,
        formulation="transformed", method="tsp",
        details={
            "p_step": cfg.epsilon,
            "subproblems_solved": solved,
            "subproblems_infeasible": infeasible,
            "pruned": pruned,
            "flows": tally["flows"],
            "splits": tally["splits"],
            "x_star": float(x[star]),
        },
    )
    sol.details["residuals"] = verify_solution(game, star, p, x)
    return sol
