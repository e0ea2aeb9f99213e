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

The subproblems of one solve differ only in their data, so they run as one
lockstep batch, in chunks whose Newton blocks stay under BATCH_BLOCK_BYTES.
Each problem's (p, x) is padded to all n targets: entries outside it (the
attacked target, vacuous constraints) stay at 0.5 with zero gradient, a
unit Hessian row and unit slacks, and so do coverage-set rows without an
active member.  The x-block and the mixed block of the Hessian are
diagonal, so x is eliminated and each round solves one (B, n, n) stack of
p-block Schur complements.  Every problem keeps its own weights,
tolerances, step rule and iteration limit.
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
REG = 1e-12  # Newton system regulariser on both diagonal blocks
BATCH_BLOCK_BYTES = 1 << 22  # one chunk's (B, n, n) float block at most


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


class _BarrierProblem:
    """B problems, each min sum(costs_i x_i) over its active targets
    (kappa_i > 0) subject to ``kappa_i <= p_i (x_i + shift_i)``, the unit
    boxes and the coverage-set rows (0/1 ``rows`` over targets, capacity
    per problem) that hold an active target.  ``pairs`` names each
    problem's (attacked target, coverage) for error messages."""

    def __init__(self, kappa, shift, costs, rows, capacity, pairs=None):
        self.kappa = kappa
        self.active = kappa > 0
        self.shift = np.broadcast_to(shift, kappa.shape)
        self.costs = np.where(self.active, costs, 0.0)
        self.rows = rows
        self.row_active = self.active.astype(float) @ rows.T > 0
        self.capacity = np.where(self.row_active, capacity, 1.0)
        self.pairs = pairs
        self.index = np.arange(len(kappa))  # into pairs
        r, n = rows.shape
        self._outer = (rows[:, :, None] * rows[:, None, :]).reshape(r, n * n)

    @property
    def n(self):
        return self.kappa.shape[1]

    def take(self, idx):
        """The problems at ``idx``, sharing the row data."""
        sub = object.__new__(_BarrierProblem)
        sub.__dict__.update(self.__dict__)
        for name in ("kappa", "active", "shift", "costs", "row_active",
                     "capacity", "index"):
            setattr(sub, name, getattr(self, name)[idx])
        return sub

    def label(self, b):
        if self.pairs is None:
            return f"problem {b}"
        star, p_star = self.pairs[self.index[b]]
        return f"attacked target {star} at coverage {p_star:.6g}"

    # layout: z[b] = [p_0..p_{n-1}, x_0..x_{n-1}]
    def objective(self, z):
        return (self.costs * z[:, self.n:]).sum(axis=1)

    def slacks(self, z):
        """Hyperbolae, p >= 0, p <= 1, x >= 0, x <= 1 (n each), then the
        coverage rows; 1 where padded."""
        n = self.n
        p, x = z[:, :n], z[:, n:]
        own = np.stack((p * (x + self.shift) - self.kappa, p, 1.0 - p,
                        x, 1.0 - x), axis=1)
        own = np.where(self.active[:, None, :], own, 1.0).reshape(-1, 5 * n)
        return np.concatenate(
            (own, self.capacity - np.where(self.active, p, 0.0) @ self.rows.T),
            axis=1)

    def n_constraints(self):
        return 5 * self.active.sum(axis=1) + self.row_active.sum(axis=1)

    def barrier_change(self, z, dz, t, s0=None):
        """Barrier at z + dz minus barrier at z (whose slacks ``s0`` may
        be given), +inf outside the domain; from slack ratios, as the
        values round to ~1e-8 at t ~ 1e9."""
        s1 = self.slacks(z + dz)
        inside = (s1 > 0).all(axis=1)
        if s0 is None:
            s0 = self.slacks(z)
        ratio = np.where(inside[:, None], s1 / s0, 1.0)
        change = t * self.objective(dz) - np.log(ratio).sum(axis=1)
        return np.where(inside, change, np.inf)

    def barrier_grad_hess(self, z, t):
        """Gradient (B, 2n) of ``t f - sum(log s)``, its Hessian's p-block
        (B, n, n), and the diagonals (B, n) of its mixed and x blocks;
        padded entries get zero gradient, a unit diagonal and no mixed
        term."""
        n = self.n
        a = self.active
        p, x = z[:, :n], z[:, n:]
        dp = x + self.shift            # d s / d p of each hyperbola
        s = np.where(a, p * dp - self.kappa, 1.0)
        s2 = s**2
        cap_s = self.capacity - np.where(a, p, 0.0) @ self.rows.T
        gp = -dp / s - 1.0 / p + 1.0 / (1.0 - p) + (1.0 / cap_s) @ self.rows
        gx = t[:, None] * self.costs - p / s - 1.0 / x + 1.0 / (1.0 - x)
        g = np.where(a[:, None, :], np.stack((gp, gx), axis=1),
                     0.0).reshape(-1, 2 * n)
        hpx = np.where(a, dp * p / s2 - 1.0 / s, 0.0)
        hxx = np.where(a, p * p / s2 + 1.0 / x**2 + 1.0 / (1.0 - x)**2, 1.0)
        # the coverage rows' term, one GEMM over the rows' outer products
        hpp = ((1.0 / cap_s**2) @ self._outer).reshape(-1, n, n)
        hpp *= a[:, :, None]
        hpp *= a[:, None, :]
        hpp.reshape(-1, n * n)[:, ::n + 1] += np.where(
            a, dp * dp / s2 + 1.0 / p**2 + 1.0 / (1.0 - p)**2, 1.0)
        return g, hpp, hpx, hxx


def _newton_step(problem, z, t):
    """Newton step of every problem and its squared decrement, with x
    eliminated: (P - X^2 / Q) dp = X g_x / Q - g_p, dx = -(g_x + X dp) / Q."""
    n = problem.n
    g, schur, hpx, hxx = problem.barrier_grad_hess(z, t)
    gp, gx = g[:, :n], g[:, n:]
    q = hxx + REG
    schur.reshape(-1, n * n)[:, ::n + 1] += REG - hpx**2 / q
    rhs = hpx * gx / q - gp
    singular = []
    try:
        dp = np.linalg.solve(schur, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        dp = np.zeros_like(rhs)
        for b in range(len(z)):
            try:
                dp[b] = np.linalg.solve(schur[b], rhs[b])
            except np.linalg.LinAlgError:
                singular.append(b)
    step = np.concatenate((dp, -(gx + hpx * dp) / q), axis=1)
    step[singular] = -g[singular]
    return step, -(g * step).sum(axis=1)


def _newton_minimize(problem, z, t, tally, tol=1e-9, final_tol=1e-14,
                     max_iter=80):
    """The barrier schedule of every problem, in lockstep (Boyd &
    Vandenberghe 9.6, 11.3).  Problem b centres at weight t[b] to ``tol``,
    then at MU times that weight, and last at its own t_end =
    n_constraints / BARRIER_EPS to ``final_tol``.  A centring takes full
    steps below 1/16 and Armijo backtracking on the change above; it ends
    at its tolerance, when a full step did not shrink the decrement
    (rounding floor), or after ``max_iter`` steps.  Each round computes
    the step of every live problem at once; problems move on or retire
    independently.  Returns (z, t, Newton steps per problem), counting
    steps and line-search trials in tally."""
    z = np.array(z, dtype=float)
    t = np.array(t, dtype=float)
    t_end = problem.n_constraints() / BARRIER_EPS
    last = np.full(len(t), math.inf)  # squared decrement after a full step
    iters = np.zeros(len(t), dtype=int)
    steps = np.zeros(len(t), dtype=int)
    live = np.arange(len(t))
    sub = problem
    while live.size:
        zl, tl = z[live], t[live]
        step, dec = _newton_step(sub, zl, tl)
        centred = ((dec / 2.0 <= np.where(tl < t_end[live], tol, final_tol))
                   | (dec >= last[live]))
        move = np.flatnonzero(~centred)
        if move.size:
            mv = sub if move.size == live.size else sub.take(move)
            zm, sm, dm, tm = zl[move], step[move], dec[move], tl[move]
            tally["newton_steps"] += move.size
            tally["line_search_trials"] += move.size
            full = (dm < 1.0 / 16.0) & (mv.slacks(zm + sm) > 0).all(axis=1)
            alpha = np.ones(move.size)
            pending = np.flatnonzero(~full)
            ls = mv.take(pending)
            s0 = ls.slacks(zm[pending])
            for _ in range(60):
                if not pending.size:
                    break
                change = ls.barrier_change(
                    zm[pending], alpha[pending, None] * sm[pending],
                    tm[pending], s0)
                fail = ~(change <= -0.25 * alpha[pending] * dm[pending])
                if not fail.all():
                    pending, s0 = pending[fail], s0[fail]
                    ls = ls.take(np.flatnonzero(fail))
                alpha[pending] *= 0.5
                tally["line_search_trials"] += pending.size
            if pending.size:
                raise BarrierStall("line search failed to progress for "
                                   + mv.label(int(pending[0])))
            moved = live[move]
            z[moved] = zm + alpha[:, None] * sm
            last[moved] = np.where(full, dm, math.inf)
            iters[moved] += 1
            steps[moved] += 1
            centred[move] = iters[moved] >= max_iter
        at_end = t[live] >= t_end[live]
        grow = live[centred & ~at_end]
        t[grow] = np.minimum(MU * t[grow], t_end[grow])
        last[grow] = math.inf
        iters[grow] = 0
        retire = centred & at_end
        if retire.any():
            live = live[~retire]
            sub = problem.take(live)
    return z, t, steps


def _coverage_rows(cset: cx.ConstraintSet, n: int):
    """C's rows as a 0/1 (r, n) matrix and their bounds."""
    rows = np.zeros((len(cset.constraints), n))
    for s, c in enumerate(cset.constraints):
        rows[s, list(c.target_indices)] = 1.0
    return rows, np.array([float(c.bound) for c in cset.constraints])


def _solve_pairs(game: AuditGame, rows, bounds, pairs, tally):
    """The fixed-coverage programs of ``pairs`` (attacked target,
    coverage), solved as one batch.  Returns the outcome of each pair in
    order, (p, x, raw) or the reason it is infeasible, then the batch of
    problems that reached the barrier with their final z and weights."""
    d = compute_deltas(game)
    n = game.n_targets
    stars = np.array([star for star, _ in pairs])
    p_stars = np.array([p_star for _, p_star in pairs], dtype=float)
    kappa = (p_stars[:, None] * d.delta[stars][:, None]
             + d.delta_pair[:, stars].T)
    kappa[np.arange(len(pairs)), stars] = 0.0
    kappa = np.where(kappa > 0, kappa, 0.0)
    unauditable = np.asarray(game.unauditable, dtype=bool)
    beyond = (kappa > 0) & (unauditable | (kappa > 1.0 * (1.0 + d.delta)))
    outcomes = [None] * len(pairs)
    barrier = []
    for b, (star, p_star) in enumerate(pairs):
        if beyond[b].any():
            i = int(np.argmax(beyond[b]))
            outcomes[b] = (
                f"target {i} needs coverage but cannot be audited"
                if unauditable[i] else
                f"constraint for target {i} unachievable: "
                f"kappa {kappa[b, i]:.4f} > 1 + {d.delta[i]:.4f}")
        elif not kappa[b].any():
            # all constraints vacuous: zero punishments, zero extra coverage
            p = np.zeros(n)
            p[star] = p_star
            outcomes[b] = (
                (p, np.zeros(n), p_star * float(d.delta_d[star]))
                if cx.liftable_to_grid(game, p) else
                "attacked-target coverage violates capacity")
        else:
            barrier.append(b)
    if not barrier:
        return outcomes, None, None, None
    idx = np.array(barrier)
    # the attacked target's fixed coverage is folded into the capacity
    problem = _BarrierProblem(
        kappa[idx], d.delta, np.asarray(game.target_costs, dtype=float),
        rows, bounds - p_stars[idx, None] * rows[:, stars[idx]].T,
        pairs=[pairs[b] for b in idx])

    # strictly feasible start: full punishment, just-enough coverage,
    # then verify every slack holds strictly
    p0 = np.minimum(1.0 - START_GAP,
                    (problem.kappa + START_GAP) / (1.0 + problem.shift))
    z = np.concatenate((np.where(problem.active, p0, 0.5),
                        np.where(problem.active, 1.0 - START_GAP, 0.5)),
                       axis=1)
    slack = problem.slacks(z)
    start = (slack > 0).all(axis=1)
    for j in np.flatnonzero(~start):
        # p0 > 0 and x0 < 1 hold the boxes: a hyperbola or a row failed
        k = int(np.argmin(slack[j] > 0))
        outcomes[idx[j]] = (
            f"no strictly feasible start for {problem.label(j)}: "
            + (f"target {k}'s hyperbola" if k < n else
               f"coverage-set row over targets "
               f"{np.flatnonzero(rows[k - 5 * n]).tolist()} "
               f"(bound {bounds[k - 5 * n]:g}) has no capacity left"))
    if not start.any():
        return outcomes, None, None, None
    idx = idx[start]
    problem, z = problem.take(np.flatnonzero(start)), z[start]

    n_cons = problem.n_constraints()
    t_end = n_cons / BARRIER_EPS
    total = problem.costs.sum(axis=1)
    t = np.minimum(n_cons / np.where(total > 0.0, total, 1.0), t_end)
    z, t, _ = _newton_minimize(problem, z, np.where(total > 0.0, t, t_end),
                               tally)
    clipped = np.clip(z, 0.0, 1.0)
    raw = p_stars[idx] * d.delta_d[stars[idx]] - problem.objective(clipped)
    for j, b in enumerate(idx):
        p = np.where(problem.active[j], clipped[j, :n], 0.0)
        p[stars[b]] = p_stars[b]
        outcomes[b] = (p, np.where(problem.active[j], clipped[j, n:], 0.0),
                       float(raw[j]))
    return outcomes, problem, z, t


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
    full coverage and punishment, when coverage capacity is exhausted, or
    when the start misses a slack, naming that slack.  A batch of one:
    :func:`solve_px` solves every pair of a solve together.
    """
    if cset is None:
        cset = cx.coverage_set(game)
    rows, bounds = _coverage_rows(cset, game.n_targets)
    outcomes, problem, z, t = _solve_pairs(
        game, rows, bounds, [(star, p_star)],
        Counter() if tally is None else tally)
    if isinstance(outcomes[0], str):
        raise Infeasible(outcomes[0])
    p, x, objective = outcomes[0]
    if not with_info:
        return p, x, objective
    if problem is None:
        return p, x, objective, {"vacuous": True, "kkt_residual": 0.0}
    info = {
        "t": float(t[0]),
        "z": z[0],
        "duality_gap_bound": float(problem.n_constraints()[0] / t[0]),
        "multipliers": _kkt_multipliers(problem, z[0]),
        "problem": problem,
    }
    info["kkt_residual"] = _kkt_residual(problem, z[0], info["multipliers"])
    return p, x, objective, info


def _constraint_jacobian(problem, z):
    """Gradients of every slack of a one-problem batch at z, one row per
    constraint, in the order ``slacks`` emits them; padded slacks and
    entries have zero rows and columns."""
    n = problem.n
    a = problem.active[0].astype(float)
    p, x = z[:n], z[n:]
    eye = np.diag(a)
    zero = np.zeros((n, n))
    hyper = np.hstack((np.diag(a * (x + problem.shift[0])), np.diag(a * p)))
    caps = -problem.rows * a
    return np.vstack((hyper,
                      np.hstack((eye, zero)), np.hstack((-eye, zero)),
                      np.hstack((zero, eye)), np.hstack((zero, -eye)),
                      np.hstack((caps, np.zeros_like(caps)))))


def _kkt_multipliers(problem, z):
    """Nonnegative multipliers certifying stationarity at z."""
    from scipy.optimize import nnls
    jac = _constraint_jacobian(problem, z)
    lam, _ = nnls(jac.T, np.concatenate((np.zeros(problem.n),
                                         problem.costs[0])))
    return lam


def _kkt_residual(problem, z, lam):
    grad_f = np.concatenate((np.zeros(problem.n), problem.costs[0]))
    jac = _constraint_jacobian(problem, z)
    return float(np.abs(grad_f - jac.T @ lam).max())


def solve_px(game: AuditGame, cfg: SolveConfig | None = None) -> CoverageSolution:
    """Best solution over attacked targets and the coverage grid.

    The attacked target's punishment is pinned at zero in every returned
    solution; remaining rates are chosen by the convex subproblems, solved
    in consecutive chunks of at most BATCH_BLOCK_BYTES / (8 n^2) pairs.
    The grid step is ``cfg.epsilon`` (default 0.01 here: each grid point
    costs a Newton solve, not just an LP).
    """
    if cfg is None:
        cfg = SolveConfig(epsilon=DEFAULT_P_STEP)
    step = cfg.epsilon
    n = game.n_targets
    cset = cx.coverage_set(game, cfg.enumeration_cap)
    rows, bounds = _coverage_rows(cset, n)
    grid_points = int(math.floor(1.0 / step + 1e-12))
    grid = [i * step for i in range(grid_points + 1)]
    if grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    pairs = [(star, p_star) for star in range(n) for p_star in grid
             if not (game.unauditable[star] and p_star > 0)]
    chunk = max(1, BATCH_BLOCK_BYTES // (8 * n * n))
    best = None
    solved = 0
    infeasible = 0
    tally = Counter()
    for lo in range(0, len(pairs), chunk):
        part = pairs[lo:lo + chunk]
        outcomes = _solve_pairs(game, rows, bounds, part, tally)[0]
        for (star, p_star), outcome in zip(part, outcomes):
            if isinstance(outcome, str):
                infeasible += 1
                continue
            solved += 1
            p, x, raw = outcome
            key = (game.utilities[star][1] + raw, -p_star, -star)
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
