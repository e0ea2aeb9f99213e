"""Correctness checks written without ``auditgames``.

Every check recomputes what it needs from the instance dict (the file the
program was given) with numpy and scipy's HiGHS, and returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array, vstack
from scipy.sparse.csgraph import connected_components

TOL = 1e-7          # constraint residuals (the program's own tolerance)
OBJ_TOL = 1e-9      # reported vs recomputed objective
FPT_TOL = 1e-6      # fpt objective vs the independent grid optimum
FPTAS_SLACK = 1e-3  # fptas may trail the eps = 0.005 grid optimum by this
FPTAS_GRID = 0.005
MIX_TOL = 1e-9
RELAX = 1e-7        # slack on the relaxation, so it never cuts a pair the LP keeps


class Game:
    """Arrays derived once from an instance dict."""

    def __init__(self, inst: dict):
        u = np.array([[t["ud_a"], t["ud_u"], t["ua_a"], t["ua_u"]]
                      for t in inst["targets"]], dtype=float)
        self.n, self.k = len(u), int(inst["resources"])
        self.ud_a, self.ud_u, self.ua_a, self.ua_u = u.T
        self.gain = self.ud_a - self.ud_u      # defender gain from coverage
        self.loss = self.ua_u - self.ua_a      # attacker loss from coverage
        self.a = float(inst["a"])
        self.a1 = float(inst.get("a1", 0.0))
        self.a_vec = np.array(inst["a_vec"]) if "a_vec" in inst else None
        self.allowed = np.ones((self.k, self.n), dtype=bool)
        for j, i in inst["restrictions"]:
            self.allowed[j, i] = False
        self.auditable = self.allowed.any(axis=0)
        # one LP column per allowed (resource, target) pair
        self.col_res, self.col_tgt = np.nonzero(self.allowed)
        ncol = self.col_tgt.size
        cols = np.arange(ncol)
        self.to_target = csr_array(
            (np.ones(ncol), (self.col_tgt, cols)), shape=(self.n, ncol))
        self.to_resource = csr_array(
            (np.ones(ncol), (self.col_res, cols)), shape=(self.k, ncol))
        # connected parts of the resource-target graph: the coverage of a
        # part's targets never exceeds its number of resources
        nodes = self.k + self.n
        _, label = connected_components(csr_array(
            (np.ones(ncol), (self.col_res, self.k + self.col_tgt)),
            shape=(nodes, nodes)), directed=False)
        parts = np.unique(label[self.k:][self.auditable])
        self.part_of = ((label[self.k:, None] == parts)
                        & self.auditable[:, None]).astype(float)  # (n, parts)
        self.part_size = np.array([np.sum(label[:self.k] == part)
                                   for part in parts], dtype=float)

    def liftable(self, p) -> bool:
        """Max flow resources -> targets (target i capped at p_i) carries
        all of sum(p)."""
        p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
        ncol = self.col_tgt.size
        if ncol == 0:
            return float(p.sum()) <= TOL
        A = vstack([self.to_target, self.to_resource], format="csr")
        res = linprog(-np.ones(ncol), A_ub=A,
                      b_ub=np.concatenate([p, np.ones(self.k)]),
                      bounds=(0, None), method="highs")
        return res.status == 0 and -res.fun >= p.sum() - TOL

    def grid_value(self, star: int, x: float):
        """Optimum of the allocation-variable program with the attacker
        held at ``star`` and punishment ``x``; None when infeasible."""
        coef = self.gain[star] - self.a1 * x
        ncol = self.col_tgt.size
        br_w = -(x + self.loss)
        br_w[star] = 0.0
        star_row = (self.col_tgt == star) * (x + self.loss[star])
        # row i: (x + L_s) p_s - (x + L_i) p_i <= ua_u_s - ua_u_i
        br = (csr_array(np.broadcast_to(star_row, (self.n, ncol)))
              + csr_array(self.to_target.multiply(br_w[:, None])))
        keep = np.arange(self.n) != star
        A = vstack([self.to_target, self.to_resource, br[keep]], format="csr")
        b = np.concatenate([np.ones(self.n), np.ones(self.k),
                            (self.ua_u[star] - self.ua_u)[keep]])
        res = linprog(-coef * (self.col_tgt == star), A_ub=A, b_ub=b,
                      bounds=(0, None), method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS status {res.status} at ({star}, {x})")
        return self.ud_u[star] - res.fun - self.a * x

    def upper_bounds(self, star: int, xs) -> np.ndarray:
        """Bounds on grid_value(star, x) for every x in ``xs``; -inf where the
        pair is provably infeasible.

        Relaxes the allocation polytope to the unit box, zero coverage on
        unauditable targets, and per connected part of the resource-target
        graph, coverage at most the part's resource count.  Given p_star,
        best response row i needs p_i (x + L_i) >= p_star (x + L_star) + c_i
        with c_i = ua_u_i - ua_u_star, so each row either bounds p_star or
        requires p_i >= r_i(p_star).  The largest p_star whose requirements
        fit every part is found exactly on the breakpoints of the parts'
        convex piecewise-linear sums.
        """
        xs = np.asarray(xs, dtype=float)[:, None]
        others = np.arange(self.n) != star
        c = (self.ua_u - self.ua_u[star])[others]
        w = xs + self.loss[others]                       # (m, n-1)
        active = (w > 0) & self.auditable[others]
        room = np.where(active, w, 0.0) + RELAX - c      # p_star * slope <= room
        slope = xs[:, 0] + self.loss[star]               # (m,)
        lo = np.zeros(len(xs))
        hi = np.full(len(xs), 1.0 if self.auditable[star] else 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = room / slope[:, None]
            pos, neg = slope > 0, slope < 0
            hi[pos] = np.minimum(hi[pos], ratio[pos].min(axis=1, initial=np.inf))
            lo[neg] = np.maximum(lo[neg], ratio[neg].max(axis=1, initial=-np.inf))
            dead = (slope == 0) & (room.min(axis=1, initial=np.inf) < 0)
            # breakpoints of r_i(p) = max(0, (p slope + c_i) / w_i)
            kinks = np.where(active, -c / slope[:, None], lo[:, None])
        points = np.sort(np.clip(np.concatenate(
            [lo[:, None], hi[:, None], kinks], axis=1),
            lo[:, None], np.maximum(lo, hi)[:, None]), axis=1)   # (m, q)
        need = np.where(active[:, None, :], np.maximum(
            0.0, (points[:, :, None] * slope[:, None, None] + c)
            / np.where(active, w, 1.0)[:, None, :]), 0.0)
        total = (need @ self.part_of[others]
                 + points[:, :, None] * self.part_of[star])   # (m, q, parts)
        room_left = self.part_size + RELAX
        ok = np.all(total <= room_left, axis=2)
        q = points.shape[1]
        last = q - 1 - np.argmax(ok[:, ::-1], axis=1)
        nxt = np.minimum(last + 1, q - 1)
        rows = np.arange(len(xs))
        p0, p1 = points[rows, last], points[rows, nxt]
        f0, f1 = total[rows, last], total[rows, nxt]               # (m, parts)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f1 > f0, (room_left - f0) / (f1 - f0), np.inf)
        step = step.min(axis=1, initial=np.inf)
        top = np.where(ok[rows, nxt], p1, p0 + np.clip(step, 0, 1) * (p1 - p0))
        coef = self.gain[star] - self.a1 * xs[:, 0]
        bound = (self.ud_u[star] + np.where(coef >= 0, coef * top, coef * lo)
                 - self.a * xs[:, 0] + 1e-9)
        feasible = ok.any(axis=1) & ~dead & (hi >= lo)
        return np.where(feasible, bound, -np.inf)


def x_grid(epsilon: float) -> list:
    """{0, eps, 2 eps, ...} with 1 as the last point, as `solve --epsilon`."""
    count = int(np.floor(1.0 / epsilon + 1e-12))
    values = [i * epsilon for i in range(count + 1)]
    if values[-1] < 1.0 - 1e-12:
        values.append(1.0)
    else:
        values[-1] = 1.0
    return values


def grid_optimum(game: Game, epsilon: float) -> float:
    """Best grid_value over every target and grid point: branch and bound
    on Game.upper_bounds, which never cuts a pair that could beat the best."""
    grid = x_grid(epsilon)
    pairs = sorted(((ub, star, x) for star in range(game.n)
                    for ub, x in zip(game.upper_bounds(star, grid), grid)
                    if ub > -np.inf), key=lambda t: -t[0])
    best = -np.inf
    for ub, star, x in pairs:
        if ub <= best:
            break
        value = game.grid_value(star, x)
        if value is not None:
            best = max(best, value)
    return best


def grid_beats(game: Game, epsilon: float, threshold: float):
    """A grid pair whose value exceeds ``threshold``, or None."""
    grid = x_grid(epsilon)
    for star in range(game.n):
        for ub, x in zip(game.upper_bounds(star, grid), grid):
            if ub <= threshold:
                continue
            value = game.grid_value(star, x)
            if value is not None and value > threshold:
                return star, x, value
    return None


def _same_instance(inst: dict, echoed: dict) -> bool:
    keys = ("targets", "resources", "a")
    if any(inst[key] != echoed.get(key) for key in keys):
        return False
    if sorted(map(list, inst["restrictions"])) != sorted(
            map(list, echoed.get("restrictions", []))):
        return False
    return (inst.get("a1", 0.0) == echoed.get("a1", 0.0)
            and inst.get("a_vec") == echoed.get("a_vec"))


def check_solution(inst: dict, op, report: dict) -> list:
    """Feasibility, objective and optimality of one solve report."""
    g = Game(inst)
    errors = []
    if report.get("method") != op.method:
        errors.append(f"method {report.get('method')!r}, asked {op.method!r}")
    if not _same_instance(inst, report.get("game", {})):
        errors.append("report echoes a different instance")
    p = np.asarray(report["p"], dtype=float)
    star = int(report["star"])
    if p.shape != (g.n,) or not 0 <= star < g.n:
        return errors + [f"p has shape {p.shape}, star {star}"]
    if op.method == "tsp":
        x = np.asarray(report["x_vector"], dtype=float)
        if x[star] != 0.0:
            errors.append(f"attacked target {star} has rate {x[star]}")
        objective = g.ud_u[star] + p[star] * g.gain[star] - float(g.a_vec @ x)
    else:
        x = np.full(g.n, float(report["x"]))
        objective = (g.ud_u[star] + p[star] * (g.gain[star] - g.a1 * x[0])
                     - g.a * x[0])
    if abs(objective - report["objective"]) > OBJ_TOL:
        errors.append(f"objective {report['objective']!r}, recomputed {objective!r}")
    if p.min() < -TOL or p.max() > 1 + TOL or x.min() < 0 or x.max() > 1:
        errors.append("coverage or punishment outside [0, 1]")
    if np.any(p[~g.auditable] > TOL):
        errors.append("an unauditable target has coverage")
    br = (p[star] * (x[star] + g.loss[star]) + (g.ua_u - g.ua_u[star])
          - p * (x + g.loss))
    br[star] = -np.inf
    if br.max() > TOL:
        errors.append(f"best-response row violated by {br.max():.3e} at "
                      f"target {int(br.argmax())}")
    if not g.liftable(p):
        errors.append("coverage does not lift to an allocation")
    if op.method == "fpt":
        if not any(abs(x[0] - v) <= 1e-12 for v in x_grid(op.epsilon)):
            errors.append(f"x = {x[0]!r} is off the grid")
        ref = grid_optimum(g, op.epsilon)
        if abs(report["objective"] - ref) > FPT_TOL:
            errors.append(f"fpt objective {report['objective']!r}, "
                          f"grid optimum {ref!r}")
    elif op.method == "fptas":
        beaten = grid_beats(g, FPTAS_GRID, report["objective"] + FPTAS_SLACK)
        if beaten is not None:
            errors.append(f"fptas objective {report['objective']!r} trails "
                          f"the grid: {beaten}")
    return errors


def check_mixture(inst: dict, report: dict, mixture: dict) -> list:
    """The mixture is a distribution over valid pure audits whose coverage
    is the solved p."""
    g = Game(inst)
    errors = []
    weights = np.asarray(mixture["weights"], dtype=float)
    if weights.size == 0 or weights.min() < 0:
        errors.append("weights missing or negative")
    if abs(weights.sum() - 1.0) > MIX_TOL:
        errors.append(f"weights sum to {weights.sum()!r}")
    if len(mixture["assignments"]) != weights.size:
        errors.append("weights and assignments differ in number")
    cover = np.zeros(g.n)
    for w, pairs in zip(weights, mixture["assignments"]):
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            errors.append(f"assignment {pairs} reuses a resource or target")
            continue
        if any(not (0 <= r < g.k and 0 <= c < g.n) or not g.allowed[r, c]
               for r, c in pairs):
            errors.append(f"assignment {pairs} uses a restricted pair")
            continue
        cover[cols] += w
    gap = float(np.abs(cover - np.asarray(report["p"], dtype=float)).max())
    if gap > MIX_TOL:
        errors.append(f"mixture coverage misses p by {gap:.3e}")
    return errors
