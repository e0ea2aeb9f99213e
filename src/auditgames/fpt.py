"""Punishment-grid solver: the best program over every (best-response
target, grid x) pair.

For a fixed punishment rate x each best-response program is a linear
program, in either the allocation-variable ("grid") formulation or the
coverage-variable ("transformed") formulation backed by the extracted
constraint set.  The transformed programs are answered in closed form,
one target at a time over the whole grid and for either sign of
``x + delta`` (``_ProgramCache.closed_form``); the grid programs go to the
HiGHS LP over sparse rows, which also stays the test oracle.  The returned
solution is the best over every target and every grid value; the
objective is the full defender utility including the constant term of the
assumed attacked target.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import constraints as cx
from .errors import (
    AllProgramsInfeasible,
    EnumerationCapExceeded,
    VerificationFailed,
)
from .lp import FEAS_TOL, LinearProgram, solve_lp
from .model import AuditGame, compute_deltas

VERIFY_TOL = 1e-7
# Largest (x, C row, prefix) block the closed form holds at once.
_CLOSED_FORM_BLOCK = 1 << 20


@dataclass(frozen=True)
class SolveConfig:
    epsilon: float = 0.005
    formulation: str = "auto"  # grid | transformed | auto
    enumeration_cap: int = cx.DEFAULT_SUBGRAPH_CAP  # tsp ignores it
    root_bits: int = 20

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError("epsilon must be in (0, 0.5]")
        if not 1 <= self.root_bits <= 52:
            raise ValueError("root bits must be in 1..52")
        if self.enumeration_cap < 1:
            raise ValueError("enumeration cap must be at least 1")
        if self.formulation not in ("grid", "transformed", "auto"):
            raise ValueError(f"unknown formulation {self.formulation!r}")


@dataclass
class CoverageSolution:
    p: np.ndarray
    x: float | np.ndarray
    objective: float
    star: int
    formulation: str
    method: str
    details: dict = field(default_factory=dict)


def x_grid(epsilon: float) -> list:
    """Grid {0, eps, 2 eps, ...} with both endpoints 0 and 1 included."""
    count = int(math.floor(1.0 / epsilon + 1e-12))
    values = [i * epsilon for i in range(count + 1)]
    if values[-1] < 1.0 - 1e-12:
        values.append(1.0)
    else:
        values[-1] = 1.0
    return values


def full_objective(game: AuditGame, star: int, p_star: float,
                   x: float) -> float:
    """Defender utility when `star` is attacked, constant term included."""
    ud_a, ud_u = game.utilities[star][0], game.utilities[star][1]
    return (ud_u + p_star * ((ud_a - ud_u) - game.cost_a1 * x)
            - game.cost_a * x)


def infeasibility_screen(game: AuditGame, star: int, xs) -> np.ndarray:
    """True at each x in ``xs`` where the program is provably infeasible:
    some other target pays the attacker more at every coverage than star
    pays at any.  Over coverage p in [0, 1] target i pays
    ua_u - p (x + delta_i), which lies between ua_u and ua_a - x; an
    unauditable target pays ua_u."""
    u = np.asarray(game.utilities)
    audited = np.where(game.unauditable, u[:, 3],
                       u[:, 2] - np.asarray(xs, dtype=float)[:, None])
    low = np.delete(np.minimum(u[:, 3], audited), star, axis=1)
    high = np.maximum(u[star, 3], audited[:, star])
    return low.max(axis=1, initial=-np.inf) > high + 1e-9


class _ProgramCache:
    """Per-game static LP pieces reused across the (star, x) loop.

    The grid programs carry one allocation variable per allowed
    (resource, target) pair, resource-major; restricted pairs are dropped.
    Their sparse rows are built on the first grid program of each target.
    """

    def __init__(self, game: AuditGame, cset=None):
        self.game = game
        self.deltas = compute_deltas(game)
        n = game.n_targets
        # resource and target of each grid variable
        self.grid_resource, self.grid_target = np.divmod(np.sort(np.fromiter(
            (j * n + i for i, auditors in enumerate(game.auditors)
             for j in auditors), dtype=np.intp)), n)
        self._grid_star = None
        self._grid_rows = None
        if cset is not None:
            self._closed_form_rows(cset)

    def _closed_form_rows(self, cset):
        """C rows for the closed form: 0/1 matrix, bounds, and each row's
        targets in breakpoint order (descending ua_unaudited) after a
        leading empty prefix, padded with the zero column ``n``."""
        n = self.game.n_targets
        rows = [c.target_indices for c in cset.constraints]
        self.c_matrix = np.zeros((len(rows), n))
        for r, targets in enumerate(rows):
            self.c_matrix[r, list(targets)] = 1.0
        self.c_bound = np.array([float(c.bound) for c in cset.constraints])
        order = np.argsort(-np.asarray(self.game.utilities)[:, 3],
                           kind="stable")
        width = 1 + max((len(t) for t in rows), default=0)
        self.c_members = np.full((len(rows), width), n)
        for r in range(len(rows)):
            ranked = order[self.c_matrix[r, order] > 0]
            self.c_members[r, 1:1 + ranked.size] = ranked

    def grid_rows(self, star: int):
        """COO pieces of target ``star``'s grid rows: coverage of each
        target <= 1, each resource's budget <= 1, then one best-response
        row per other target.  Returns (rows, cols, base, xcoef, rhs); the
        entries at punishment rate x are base + x * xcoef."""
        if self._grid_star == star:
            return self._grid_rows
        game, d = self.game, self.deltas
        n, k = game.n_targets, game.n_resources
        target = self.grid_target
        var = np.arange(target.size)
        others = np.delete(np.arange(n), star)
        br_row = np.zeros(n, dtype=int)
        br_row[others] = n + k + np.arange(n - 1)
        star_vars, rest = var[target == star], var[target != star]
        n_star = (n - 1) * star_vars.size
        rows = np.concatenate([target, n + self.grid_resource,
                               np.repeat(br_row[others], star_vars.size),
                               br_row[target[rest]]])
        cols = np.concatenate([var, var, np.tile(star_vars, n - 1), rest])
        base = np.concatenate([np.ones(2 * var.size),
                               np.full(n_star, d.delta[star]),
                               -d.delta[target[rest]]])
        xcoef = np.concatenate([np.zeros(2 * var.size), np.ones(n_star),
                                -np.ones(rest.size)])
        rhs = np.concatenate([np.ones(n + k), -d.delta_pair[others, star]])
        self._grid_star = star
        self._grid_rows = rows, cols, base, xcoef, rhs
        return self._grid_rows

    def build(self, star: int, x: float, formulation: str) -> LinearProgram:
        p_star_coeff = self.deltas.delta_d[star] - self.game.cost_a1 * x
        if formulation == "transformed":
            d, n = self.deltas, self.game.n_targets
            others = np.delete(np.arange(n), star)
            mat = np.zeros((n - 1, n))
            mat[:, star] = x + d.delta[star]
            mat[np.arange(n - 1), others] = -(x + d.delta[others])
            mat = np.vstack([mat, self.c_matrix])
            rhs = np.concatenate([-d.delta_pair[others, star], self.c_bound])
            obj = np.zeros(n)
            obj[star] = p_star_coeff
            return LinearProgram(obj, (mat, ["<="] * rhs.size, rhs),
                                 [(0.0, 1.0 if r else 0.0)
                                  for r in self.game.auditors])
        from scipy import sparse

        rows, cols, base, xcoef, rhs = self.grid_rows(star)
        nv = self.grid_target.size
        mat = sparse.csr_array((base + x * xcoef, (rows, cols)),
                               shape=(rhs.size, nv))
        obj = np.where(self.grid_target == star, p_star_coeff, 0.0)
        return LinearProgram(obj, (mat, ["<="] * rhs.size, rhs),
                             np.tile([0.0, math.inf], (nv, 1)))

    def closed_form(self, star: int, xs):
        """The transformed programs of target ``star`` at every x in ``xs``.

        Returns (feasible, p), one entry per x.  Let s = x + delta[star].
        Another target i is held at p_i = 0 when it is unauditable or
        x + delta[i] <= 0: zero coverage is best for its own best-response
        row, which becomes s p_star <= -delta_pair[i, star], and for C,
        which is down-closed.  Every other target is free, and its row asks
        for p_i >= r_i(p_star) = max(0, (s p_star + delta_pair[i, star])
        / (x + delta[i])); by down-closure p_star is feasible iff r(p_star)
        lies in C, the box and the held rows.  Each C row sum over r is
        convex and piecewise linear in p_star, the max of its linear
        pieces.  The pieces are the prefixes of the row's targets in
        breakpoint order (descending delta_pair[:, star]), because the
        targets with s p_star + delta_pair[i, star] > 0 form a top set of
        that order for either sign of s.  So every condition is a row
        a p_star <= c with a of either sign, and the feasible p_star form
        one interval [lo, hi].  The optimum takes hi when its objective
        coefficient is positive and lo otherwise; the pair is feasible iff
        that point violates no row by more than the LP tolerance, and it
        returns p = r(p_star).
        """
        xs = np.asarray(xs, dtype=float)
        step = max(1, _CLOSED_FORM_BLOCK // max(self.c_members.size, 1))
        if xs.size > step:
            parts = [self.closed_form(star, xs[lo:lo + step])
                     for lo in range(0, xs.size, step)]
            return tuple(np.concatenate(z) for z in zip(*parts))
        game, d = self.game, self.deltas
        others = np.arange(game.n_targets) != star
        s = xs + d.delta[star]
        den = xs[:, None] + d.delta
        free = others & ~np.asarray(game.unauditable, dtype=bool) & (den > 0)
        den = np.where(free, den, 1.0)
        dp = d.delta_pair[:, star]
        # r_i = max(0, slope p_star + icpt)
        slope = np.where(free, s[:, None] / den, 0.0)
        icpt = np.where(free, dp / den, 0.0)
        # s p_star <= c: r_i <= 1 for free i, the rows of held i
        c = np.where(free, den - dp, np.where(others, -dp, np.inf)).min(
            axis=1)
        zero = np.zeros((xs.size, 1))
        row_slope = (np.cumsum(np.hstack([slope, zero])[:, self.c_members],
                               axis=2) + self.c_matrix[:, star, None])
        row_c = self.c_bound[:, None] - np.cumsum(
            np.hstack([icpt, zero])[:, self.c_members], axis=2)
        top = 0.0 if game.unauditable[star] else 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            cap, row_cap = c / s, row_c / row_slope
            hi = np.minimum(np.minimum(np.where(s > 0, cap, top), top),
                            np.where(row_slope > 0, row_cap, np.inf).min(
                                axis=(1, 2), initial=np.inf))
            lo = np.maximum(np.where(s < 0, cap, 0.0),
                            np.where(row_slope < 0, row_cap, 0.0).max(
                                axis=(1, 2), initial=0.0))
        coeff = d.delta_d[star] - game.cost_a1 * xs
        p_star = np.where(coeff > 0, np.maximum(hi, lo), lo)
        excess = np.maximum(p_star - top, s * p_star - c)
        excess = np.maximum(excess, (row_slope * p_star[:, None, None]
                                     - row_c).max(axis=(1, 2), initial=0.0))
        p = np.clip(slope * p_star[:, None] + icpt, 0.0, 1.0)
        p[:, star] = p_star
        return excess <= FEAS_TOL, p

    def closed_form_pairs(self, star: int, grid: list):
        """Solver for one target's transformed programs, all in closed
        form at once: grid index -> coverage, or None."""
        feasible, p = self.closed_form(star, grid)
        return lambda i: p[i] if feasible[i] else None

    def lp_pairs(self, star: int, grid: list, formulation: str):
        """Solver for one target's programs in ``formulation``, one LP a
        grid index on demand: grid index -> coverage, or None."""
        def solve(i):
            out = solve_lp(self.build(star, grid[i], formulation))
            if out.status != "optimal":
                return None
            return self.coverage_from_solution(formulation, out.solution)
        return solve

    def coverage_from_solution(self, formulation: str, solution: np.ndarray):
        if formulation == "transformed":
            return np.clip(solution, 0.0, 1.0)
        p = np.zeros(self.game.n_targets)
        np.add.at(p, self.grid_target, solution)
        return np.clip(p, 0.0, 1.0)


def resolve_formulation(game: AuditGame, cfg: SolveConfig):
    """Pick grid/transformed per config, with automatic grid fallback when
    both C extractions would pass the cap.  Returns (name, cset_or_None,
    info); ``info["extraction"]`` names the side C came from."""
    info = {}
    if cfg.formulation == "grid":
        return "grid", None, info
    try:
        if cfg.formulation == "auto":
            graph = cx.build_intersection_graph(cx.merge_targets(game))
            report = cx.tractability_check(graph)
            info["tractability"] = report.to_dict()
        cset = cx.coverage_set(game, cfg.enumeration_cap)
        info["extraction"] = cset.extraction
        return "transformed", cset, info
    except EnumerationCapExceeded as exc:
        info["fallback"] = str(exc)
        return "grid", None, info


def verify_solution(game: AuditGame, star: int, p, x,
                    tol: float = VERIFY_TOL) -> dict:
    """Residuals of the original program at (p, x); raises on violation.
    ``x`` is one punishment rate or one per target, the attacked
    target's rate ``x[star]`` entering its own term.  ``lift`` (see
    ``coverage_flow``) must stay within FEAS_TOL, the tolerance
    :func:`alloc.recover_allocation` lifts p to."""
    d = compute_deltas(game)
    p = np.asarray(p, dtype=float)
    x = np.broadcast_to(np.asarray(x, dtype=float), p.shape)
    lhs = (p * (-x - d.delta) + p[star] * (x[star] + d.delta[star])
           + d.delta_pair[:, star])
    br = float(np.delete(lhs, star).max(initial=0.0))
    residuals = {"best_response": br,
                 "box": max(0.0, float((-p).max()), float((p - 1).max())),
                 "x_box": max(0.0, float((-x).max()), float((x - 1).max())),
                 "lift": cx.coverage_flow(game, p)[1]}
    if max(residuals.values()) > tol or residuals["lift"] > FEAS_TOL:
        raise VerificationFailed(
            f"solution for target {star} at x = {x[star]:g} fails "
            f"verification: residuals {residuals}")
    return residuals


def _sweep(cache: _ProgramCache, grid: list, for_star, counts: dict):
    """Walk every (star, x) pair, each target from x = 1 downward;
    ``for_star(star, grid)`` gives one target's solver, grid index ->
    coverage or None, and ``counts`` gathers the pair counters.

    Yields (star, x, p), with p None for screened, infeasible and cut
    pairs.  When every delta_i >= 0, feasibility is monotone in x: for
    x' > x, scaling each p_i by (x + delta_i) / (x' + delta_i) <= 1 keeps
    every attacker payoff ua_u - p_i (x + delta_i) fixed and stays in the
    down-closed C, so a pair feasible at x stays feasible at x'.  There the
    first infeasible grid point settles all smaller ones.
    """
    game = cache.game
    monotone = bool(np.all(cache.deltas.delta >= 0))
    for star in range(game.n_targets):
        solve = for_star(star, grid)
        screened = infeasibility_screen(game, star, grid)
        cut = False
        for i in reversed(range(len(grid))):
            x = grid[i]
            p = None
            if cut:
                pass
            elif screened[i]:
                counts["screened"] += 1
            else:
                p = solve(i)
                if p is None:
                    counts["lp_infeasible"] += 1
                    cut = monotone
                else:
                    counts["solved"] += 1
            yield star, x, p


def solve_fpt(game: AuditGame, cfg: SolveConfig | None = None) -> CoverageSolution:
    """Best solution over every target and every grid punishment value.

    Infeasible (target, x) pairs are expected and skipped; ties break
    toward smaller x, then smaller target index.  ``details`` counts the
    pairs solved, screened and infeasible (``lp_infeasible``); for a
    transformed solve, ``extraction`` says whether C came from the
    connected subgraphs or the resource subsets.
    """
    cfg = cfg or SolveConfig()
    formulation, cset, info = resolve_formulation(game, cfg)
    cache = _ProgramCache(game, cset)
    grid = x_grid(cfg.epsilon)
    for_star = (cache.closed_form_pairs if formulation == "transformed"
                else partial(cache.lp_pairs, formulation=formulation))
    counts = dict.fromkeys(("solved", "screened", "lp_infeasible"), 0)
    best = None
    for star, x, p in _sweep(cache, grid, for_star, counts):
        if p is None:
            continue
        key = (full_objective(game, star, float(p[star]), x), -x, -star)
        if best is None or key > best[0]:
            best = (key, p, x, star)
    if best is None:
        raise AllProgramsInfeasible(
            f"no (target, x) pair admits a solution: {game.n_targets} "
            f"targets, epsilon {cfg.epsilon:g}, {len(grid)} grid values")
    _, p, x, star = best
    delta_star = cache.deltas.delta[star]
    sol = CoverageSolution(
        p=p, x=x, objective=best[0][0], star=star,
        formulation=formulation, method="fpt",
        details={
            **info,
            **counts,
            "epsilon": cfg.epsilon,
            "grid_size": len(grid),
            "guarantee_condition_met": bool(
                x > 0.01 or delta_star > 2.0 ** -game.input_bits),
        },
    )
    sol.details["residuals"] = verify_solution(game, star, p, x)
    return sol


def per_pair_objectives(game: AuditGame, cfg: SolveConfig, formulation: str,
                        cset=None):
    """LP value for every (star, x) pair; None marks infeasible pairs.

    Used by the formulation comparison, so both formulations run as LPs;
    runs strictly serially.
    """
    cache = _ProgramCache(game, cset)
    pairs = _sweep(cache, x_grid(cfg.epsilon),
                   partial(cache.lp_pairs, formulation=formulation), Counter())
    return {(star, x): None if p is None
            else full_objective(game, star, float(p[star]), x)
            for star, x, p in pairs}


def compare_formulations(game: AuditGame, cfg: SolveConfig | None = None,
                         include_extraction: bool = False) -> dict:
    """Single-threaded wall-clock comparison of the two formulations.

    Extraction time is reported separately and excluded from the
    transformed column unless ``include_extraction`` is set.
    """
    cfg = cfg or SolveConfig()
    t0 = time.perf_counter()
    cset = cx.coverage_set(game, cfg.enumeration_cap)
    t_extract = time.perf_counter() - t0

    t0 = time.perf_counter()
    res_t = per_pair_objectives(game, cfg, "transformed", cset)
    t_transformed = time.perf_counter() - t0
    if include_extraction:
        t_transformed += t_extract

    t0 = time.perf_counter()
    res_g = per_pair_objectives(game, cfg, "grid")
    t_grid = time.perf_counter() - t0

    max_diff = 0.0
    mismatches = []
    for key in res_g:
        a, b = res_g[key], res_t[key]
        if (a is None) != (b is None):
            mismatches.append(key)
        elif a is not None:
            max_diff = max(max_diff, abs(a - b))
    feasible = [(v, -k[1], -k[0]) for k, v in res_g.items() if v is not None]
    return {
        "time_grid": t_grid,
        "time_transformed": t_transformed,
        "time_extraction": t_extract,
        "include_extraction": include_extraction,
        "speedup": t_grid / t_transformed if t_transformed > 0 else math.inf,
        "pairs": len(res_g),
        "objective_max_diff": max_diff,
        "feasibility_mismatches": mismatches,
        "best_objective": max(feasible)[0] if feasible else None,
        "n_constraints": len(cset.constraints),
    }
