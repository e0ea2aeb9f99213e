"""Punishment-grid solver: the best program over every (best-response
target, grid x) pair.

For a fixed punishment rate x each best-response program is a linear
program, in either the allocation-variable ("grid") formulation or the
coverage-variable ("transformed") formulation backed by the extracted
constraint set.  The transformed programs are answered in closed form,
one target at a time over the whole grid (``_ProgramCache.closed_form``);
pairs outside the closed form's reach (lenient instances with
``x + delta <= 0``) and every grid program go to the HiGHS LP, over
sparse rows for the grid, which also stays the test oracle.  The returned
solution is the best over every target and every grid value; the
objective is the full defender utility including the constant term of the
assumed attacked target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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
    screen: bool = True  # cheap per-(star, x) infeasibility pre-check

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
    some other target pays the attacker more when fully covered than star
    ever can."""
    u = np.asarray(game.utilities)
    others = np.delete(u[:, 2], star)
    return (others.max(initial=-np.inf) - np.asarray(xs, dtype=float)
            > u[star, 3] + 1e-9)


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

    def transformed_bounds(self):
        return [(0.0, 1.0 if r else 0.0) for r in self.game.auditors]

    def br_rows_transformed(self, star: int, x: float):
        n = self.game.n_targets
        d = self.deltas
        others = [i for i in range(n) if i != star]
        mat = np.zeros((len(others), n))
        rhs = np.empty(len(others))
        for r, i in enumerate(others):
            mat[r, star] = x + d.delta[star]
            mat[r, i] = -(x + d.delta[i])
            rhs[r] = -d.delta_pair[i, star]
        return mat, rhs

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
            mat, rhs = self.br_rows_transformed(star, x)
            mat = np.vstack([mat, self.c_matrix])
            rhs = np.concatenate([rhs, self.c_bound])
            obj = np.zeros(self.game.n_targets)
            obj[star] = p_star_coeff
            return LinearProgram(obj, (mat, ["<="] * rhs.size, rhs),
                                 self.transformed_bounds())
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

        Returns (applies, feasible, p), one entry per x; ``applies`` is
        False where the closed form does not reach, and the LP must decide
        those pairs.  It reaches where s = x + delta[star] > 0 and
        x + delta[i] > 0 for every auditable i != star.  There best-response
        row i asks for p_i >= r_i(p_star) = max(0, (s p_star
        + delta_pair[i, star]) / (x + delta[i])), and C is down-closed, so
        p_star is feasible iff r(p_star) lies in C, the box, and the pinned
        rows.  Each C row sum over r is convex, nondecreasing and piecewise
        linear in p_star, so it is the max of its linear pieces; the pieces
        are the prefixes of the row's targets in breakpoint order, and each
        caps p_star at (bound - intercept) / slope.  The optimum takes the
        largest feasible p_star when its objective coefficient is positive
        and 0 otherwise, and returns p = r(p_star).
        """
        xs = np.asarray(xs, dtype=float)
        step = max(1, _CLOSED_FORM_BLOCK // max(self.c_members.size, 1))
        if xs.size > step:
            parts = [self.closed_form(star, xs[lo:lo + step])
                     for lo in range(0, xs.size, step)]
            return tuple(np.concatenate(z) for z in zip(*parts))
        game, d = self.game, self.deltas
        pinned = np.asarray(game.unauditable, dtype=bool)
        others = np.arange(game.n_targets) != star
        free = others & ~pinned
        s = xs + d.delta[star]
        den = xs[:, None] + d.delta
        applies = (s > 0) & np.all((den > 0) | ~free, axis=1)
        s = s[applies, None]
        den = np.where(free, den[applies], 1.0)
        dp = d.delta_pair[:, star]
        slope = np.where(free, s / den, 0.0)  # r_i = max(0, slope p + icpt)
        icpt = np.where(free, dp / den, 0.0)
        # r_i <= 1, and s p_star <= -delta_pair[i, star] for pinned i
        caps = np.where(free, (den - dp) / s,
                        np.where(pinned & others, -dp / s, np.inf))
        top = np.minimum(0.0 if pinned[star] else 1.0, caps.min(axis=1))
        zero = np.zeros((s.shape[0], 1))
        row_slope = (np.cumsum(np.hstack([slope, zero])[:, self.c_members],
                               axis=2) + self.c_matrix[:, star, None])
        row_icpt = np.cumsum(np.hstack([icpt, zero])[:, self.c_members],
                             axis=2)
        with np.errstate(divide="ignore"):
            row_caps = np.where(
                row_slope > 0,
                (self.c_bound[:, None] - row_icpt) / row_slope, np.inf)
        p_max = np.minimum(top, row_caps.min(axis=(1, 2), initial=np.inf))
        # feasible iff r(0) violates nothing by more than the LP tolerance
        r0 = np.maximum(icpt, 0.0)
        excess = np.maximum(
            (r0 @ self.c_matrix.T - self.c_bound).max(axis=1, initial=0.0),
            (r0 - 1.0).max(axis=1))
        excess = np.maximum(excess, np.max(dp[pinned & others], initial=0.0))
        coeff = d.delta_d[star] - game.cost_a1 * xs[applies]
        p_star = np.where(coeff > 0, np.maximum(p_max, 0.0), 0.0)
        p = np.clip(slope * p_star[:, None] + icpt, 0.0, 1.0)
        p[:, star] = p_star
        feasible = np.zeros(xs.size, dtype=bool)
        feasible[applies] = excess <= FEAS_TOL
        full = np.zeros((xs.size, game.n_targets))
        full[applies] = p
        return applies, feasible, full

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


class _LpPairs:
    """Answers each (star, x) program with one LP in ``formulation``;
    ``counts`` holds the sweep's pair counters."""

    def __init__(self, cache: _ProgramCache, formulation: str):
        self.cache = cache
        self.formulation = formulation
        self.counts = dict.fromkeys(("solved", "screened", "lp_infeasible",
                                     "closed_form", "lp_fallback"), 0)

    def for_star(self, star: int, grid: list):
        """Solver for one target: grid index -> coverage, or None."""
        return lambda i: self.solve_lp(star, grid[i])

    def solve_lp(self, star: int, x: float):
        self.counts["lp_fallback"] += 1
        out = solve_lp(self.cache.build(star, x, self.formulation))
        if out.status != "optimal":
            return None
        return self.cache.coverage_from_solution(self.formulation,
                                                 out.solution)


class _ClosedFormPairs(_LpPairs):
    """Answers transformed programs in closed form, one target over the
    whole grid at once; the LP takes the pairs the closed form does not
    reach."""

    def for_star(self, star: int, grid: list):
        applies, feasible, p = self.cache.closed_form(star, grid)

        def solve(i):
            if not applies[i]:
                return self.solve_lp(star, grid[i])
            self.counts["closed_form"] += 1
            return p[i] if feasible[i] else None
        return solve


def _sweep(game: AuditGame, cfg: SolveConfig, grid: list, pairs: _LpPairs):
    """Walk every (star, x) pair, each target from x = 1 downward.

    Yields (star, x, p), with p None for screened, infeasible and cut
    pairs.  Feasibility is monotone in the punishment rate, so with
    screening on the first infeasible grid point settles all smaller ones.
    """
    counts = pairs.counts
    for star in range(game.n_targets):
        solve = pairs.for_star(star, grid)
        screened = infeasibility_screen(game, star, grid)
        cut = False
        for i in reversed(range(len(grid))):
            x = grid[i]
            p = None
            if cut:
                pass
            elif cfg.screen and screened[i]:
                counts["screened"] += 1
            else:
                p = solve(i)
                if p is None:
                    counts["lp_infeasible"] += 1
                    cut = cfg.screen
                else:
                    counts["solved"] += 1
            yield star, x, p


def solve_fpt(game: AuditGame, cfg: SolveConfig | None = None) -> CoverageSolution:
    """Best solution over every target and every grid punishment value.

    Infeasible (target, x) pairs are expected and skipped; ties break
    toward smaller x, then smaller target index.  ``details`` counts the
    pairs solved, screened and infeasible (``lp_infeasible``), and the
    pairs answered in closed form and by an LP (``lp_fallback``); for a
    transformed solve, ``extraction`` says whether C came from the
    connected subgraphs or the resource subsets.
    """
    cfg = cfg or SolveConfig()
    formulation, cset, info = resolve_formulation(game, cfg)
    cache = _ProgramCache(game, cset)
    grid = x_grid(cfg.epsilon)
    pairs = (_ClosedFormPairs if formulation == "transformed"
             else _LpPairs)(cache, formulation)
    best = None
    for star, x, p in _sweep(game, cfg, grid, pairs):
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
            **pairs.counts,
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
    pairs = _LpPairs(_ProgramCache(game, cset), formulation)
    return {
        (star, x): None if p is None
        else full_objective(game, star, float(p[star]), x)
        for star, x, p in _sweep(game, cfg, x_grid(cfg.epsilon), pairs)
    }


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
