"""Approximation scheme over hyperbola bands in the (coverage, punishment) plane.

For a fixed best-response target, an optimal point can be normalized so
every other target's best-response constraint is either tight (its
coverage becomes a rational function of ``(p_star, x)``) or its coverage
is zero.  Sorting the pairwise attacker offsets splits the square into
bands between consecutive hyperbolas ``p (x + D_star) + offset = 0``;
inside one band the problem reduces to two variables with constraint
boundaries ``p <= f_b(x)`` for rational ``f_b``.  Each band is solved by
collecting candidates at domain corners, at stationary points of the
objective along every boundary, and at pairwise boundary intersections,
with roots isolated to an additive ``2**-l``.

All boundary algebra is kept in cleared polynomial form
``p * den(x) <= num(x)`` so that vanishing or sign-changing denominators
never require division; the rational view is only formed at evaluation
points where the denominator is safely signed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constraints as cx
from .errors import (
    AllProgramsInfeasible,
    DegenerateDenominator,
    VerificationFailed,
    ZeroPolynomial,
)
from .fpt import CoverageSolution, SolveConfig, full_objective, verify_solution
from .model import AuditGame, compute_deltas
from .poly import (
    Polynomial,
    derivative,
    isolate_roots,
    poly_arith,
    poly_mul,
    poly_sub,
)

ON_CURVE_TOL = 1e-9
FEAS_TOL = 1e-7


@dataclass(frozen=True)
class Boundary:
    """One constraint in cleared form ``p * den(x) (<=|>=) num(x)``.

    ``eval_fn``, when set, evaluates (num, den) through the same rational
    arithmetic the solution recovery uses, so envelope values and
    recovered coverages agree to rounding; the cleared polynomials are
    still what the root isolation works on.
    """

    num: Polynomial
    den: Polynomial
    origin: str
    is_upper: bool = True       # upper bound on p when den > 0
    open_strict: bool = False   # points exactly on it are infeasible
    eval_fn: object = None

    def values(self, x: float):
        if self.eval_fn is not None:
            direct = self.eval_fn(x)
            if direct is not None:
                return direct
        return self.num(x), self.den(x)


@dataclass(frozen=True)
class SubproblemEQ:
    """Two-variable band subproblem for one best-response target."""

    star: int
    j: int
    order: tuple       # all non-star targets, ascending attacker offset
    active: tuple      # order[j:], substituted through tight constraints
    zeroed: tuple      # order[:j], coverage pinned to zero
    boundaries: tuple  # of Boundary (upper bounds plus the band lower bound)
    open_lower: Boundary | None   # closed version of the strict band curve
    band_lower: Boundary | None   # closed lower bound from the next hyperbola
    star_pinned: bool
    delta_star: float
    delta_d_star: float
    cost_a: float
    cost_a1: float
    offsets: np.ndarray  # attacker offset of each target vs star


@dataclass
class CandidatePoint:
    p_n: float
    x: float
    objective: float
    provenance: str
    feasible: bool
    on_open_boundary: bool = False


def sort_deltas(game: AuditGame, star: int) -> tuple:
    """Non-star targets in stable ascending order of their attacker offset
    ``ua_unaudited(i) - ua_unaudited(star)``."""
    d = compute_deltas(game)
    others = [i for i in range(game.n_targets) if i != star]
    keys = np.array([d.delta_pair[i, star] for i in others])
    return tuple(others[k] for k in np.argsort(keys, kind="stable"))


def build_subproblem(game: AuditGame, star: int, j: int,
                     cset: cx.ConstraintSet) -> SubproblemEQ:
    """Boundaries of band ``j``: coverage caps of the substituted targets,
    pinned-target rows, the closed strict band curve, the band lower bound,
    and every coverage-set constraint after substitution."""
    d = compute_deltas(game)
    order = sort_deltas(game, star)
    if not 0 <= j <= len(order):
        raise ValueError(f"band index {j} out of range")
    zeroed = order[:j]
    active = order[j:]
    a_star = Polynomial.from_coeffs((d.delta[star], 1.0))  # x + D_star
    cap = 2 * game.n_targets + 4
    boundaries = []

    for i in active:
        offset = d.delta_pair[i, star]
        if game.unauditable[i]:
            # pinned coverage: p (x + D_star) + offset <= 0
            boundaries.append(Boundary(
                num=Polynomial.from_coeffs((-offset,)),
                den=a_star, origin=f"pinned_row:{i}"))
        else:
            # p_(i) <= 1  <=>  p (x + D_star) <= x + D_i - offset
            boundaries.append(Boundary(
                num=Polynomial.from_coeffs((d.delta[i] - offset, 1.0)),
                den=a_star, origin=f"coverage_row:{i}"))

    open_lower = None
    if j >= 1:
        off = d.delta_pair[order[j - 1], star]
        open_lower = Boundary(
            num=Polynomial.from_coeffs((-off,)), den=a_star,
            origin="band-lower-closed", open_strict=True)
        boundaries.append(open_lower)

    band_lower = None
    if j <= len(order) - 1:
        off = d.delta_pair[order[j], star]
        band_lower = Boundary(
            num=Polynomial.from_coeffs((-off,)), den=a_star,
            origin="band-upper", is_upper=False)
        boundaries.append(band_lower)

    active_set = set(active)
    for cid, c in enumerate(cset.constraints):
        members = [t for t in c.target_indices
                   if t in active_set and not game.unauditable[t]]
        has_star = star in c.target_indices
        if not members and not has_star:
            continue  # every member substitutes to zero
        # clear denominators: multiply by prod_t (x + D_t) over members
        big_d = Polynomial.from_coeffs((1.0,))
        for t in members:
            big_d = poly_mul(
                big_d, Polynomial.from_coeffs((d.delta[t], 1.0)), cap=cap)
        num = poly_mul(Polynomial.from_coeffs((c.bound,)), big_d)
        sum_dt = Polynomial.from_coeffs((0.0,))
        for t in members:
            d_t = Polynomial.from_coeffs((1.0,))
            for u in members:
                if u != t:
                    d_t = poly_mul(
                        d_t, Polynomial.from_coeffs((d.delta[u], 1.0)), cap=cap)
            off = Polynomial.from_coeffs((d.delta_pair[t, star],))
            num = poly_sub(num, poly_mul(off, d_t))
            sum_dt = poly_arith(sum_dt, d_t, "add")
        den = poly_mul(a_star, sum_dt, cap=cap)
        if has_star:
            den = poly_arith(den, big_d, "add")
        if den.is_zero and num.is_zero:
            continue

        def _direct(x, members=tuple(members), bound=float(c.bound),
                    has_star=has_star, ds=float(d.delta[star]),
                    deltas=tuple(float(d.delta[t]) for t in members),
                    offs=tuple(float(d.delta_pair[t, star]) for t in members)):
            s1 = s2 = 0.0
            for dt, off in zip(deltas, offs):
                leg = x + dt
                if leg <= 1e-12:
                    return None  # vanishing substitution leg: use cleared form
                s1 += 1.0 / leg
                s2 += off / leg
            return bound - s2, (1.0 if has_star else 0.0) + (x + ds) * s1

        boundaries.append(Boundary(num=num, den=den, origin=f"setC:{cid}",
                                   eval_fn=_direct))

    return SubproblemEQ(
        star=star, j=j, order=order, active=tuple(active),
        zeroed=tuple(zeroed), boundaries=tuple(boundaries),
        open_lower=open_lower, band_lower=band_lower,
        star_pinned=bool(game.unauditable[star]),
        delta_star=float(d.delta[star]),
        delta_d_star=float(d.delta_d[star]),
        cost_a=game.cost_a,
        cost_a1=game.cost_a1,
        offsets=d.delta_pair[:, star].copy(),
    )


def _objective(eq: SubproblemEQ, game_const: float, p: float, x: float) -> float:
    return game_const + p * (eq.delta_d_star - eq.cost_a1 * x) - eq.cost_a * x


def _band_value(eq: SubproblemEQ, p: float, x: float) -> float:
    return p * (x + eq.delta_star)


def _band_membership(eq: SubproblemEQ, p: float, x: float):
    """(in_band, on_open_curve) with the strict side tested at 1e-9."""
    v = _band_value(eq, p, x)
    on_open = False
    if eq.j >= 1:
        lo_off = eq.offsets[eq.order[eq.j - 1]]
        if abs(v + lo_off) <= ON_CURVE_TOL:
            on_open = True
        elif v + lo_off > 0:
            return False, False
    if eq.j <= len(eq.order) - 1:
        hi_off = eq.offsets[eq.order[eq.j]]
        if v + hi_off < -FEAS_TOL:
            return False, on_open
    return True, on_open


def _bounds_at(eq: SubproblemEQ, x: float):
    """(upper, lower, feasible) envelope limits for p at this x, derived
    sign-safely from every cleared boundary."""
    upper = 1.0
    lower = 0.0
    for b in eq.boundaries:
        num_v, den_v = b.values(x)
        scale = max(1.0, abs(num_v))
        if b.is_upper:
            if den_v > 1e-12:
                upper = min(upper, num_v / den_v)
            elif den_v < -1e-12:
                lower = max(lower, num_v / den_v)
            elif num_v < -FEAS_TOL * scale:
                return upper, lower, False
        else:
            if den_v > 1e-12:
                lower = max(lower, num_v / den_v)
            elif den_v < -1e-12:
                upper = min(upper, num_v / den_v)
            elif num_v > FEAS_TOL * scale:
                return upper, lower, False
    return upper, lower, True


def make_feasible(candidates, eq: SubproblemEQ, game_const: float = 0.0):
    """Project raw candidates onto the feasible region of the band.

    Each candidate is (x, forced_p or None, provenance).  The coverage is
    set to the boundary envelope ``min(1, min_b f_b(x))`` unless forced;
    candidates whose projected coverage is negative, below the band's
    lower bound, or on the strict band curve are marked infeasible.
    """
    out = []
    for x_raw, forced_p, provenance in candidates:
        x = min(1.0, max(0.0, float(x_raw)))
        upper, lower, ok = _bounds_at(eq, x)
        ps = []
        if forced_p is None:
            ps.append(upper)
        else:
            # never exceed the envelope: recovery must stay inside C
            ps.append(min(float(forced_p), upper))
        if eq.star_pinned:
            ps = [min(0.0, upper)]
        for p in ps:
            p = min(p, 1.0)
            feasible = ok and p >= -FEAS_TOL and p >= lower - FEAS_TOL
            p = min(1.0, max(0.0, p))
            in_band, on_open = (False, False)
            if feasible:
                in_band, on_open = _band_membership(eq, p, x)
                feasible = in_band and not on_open
            out.append(CandidatePoint(
                p_n=p, x=x,
                objective=_objective(eq, game_const, p, x),
                provenance=provenance,
                feasible=feasible,
                on_open_boundary=on_open,
            ))
    return out


class _RootCache:
    """Root brackets in (0, 1) of one attacked target's polynomials.

    The bands of one target share their coverage rows, band curves and
    most coverage-set rows, so most of their polynomials repeat.  Entries
    are keyed by the exact polynomial and precision and hold the
    ``RootApprox`` tuple, or None for the zero polynomial; boundary pairs
    are also keyed by their four polynomials, so a repeated pair skips
    building its cross product.
    """

    def __init__(self):
        self.found = {}
        self.isolated = 0
        self.hits = 0

    def roots(self, g: Polynomial, l: int):
        key = (g, l)
        if key in self.found:
            self.hits += 1
            return self.found[key]
        self.isolated += 1
        try:
            roots = tuple(isolate_roots(g, (0.0, 1.0), l))
        except ZeroPolynomial:
            roots = None
        self.found[key] = roots
        return roots

    def crossing_roots(self, b1: Boundary, b2: Boundary, l: int, cap: int):
        key = (b1.num, b1.den, b2.num, b2.den, l)
        if key in self.found:
            self.hits += 1
            return self.found[key]
        cross = poly_sub(poly_mul(b1.num, b2.den, cap=cap),
                         poly_mul(b2.num, b1.den, cap=cap))
        roots = self.found[key] = self.roots(cross, l)
        return roots


def _bracket_points(roots):
    """Each root's midpoint, then both ends of its bracket within [0, 1]:
    the midpoint can sit just outside a boundary the root bounds."""
    for r in roots or ():
        yield r.value
        yield max(0.0, r.value - r.radius)
        yield min(1.0, r.value + r.radius)


def _stationary_roots(eq: SubproblemEQ, b: Boundary, l: int, cap: int,
                      cache: _RootCache):
    """Roots of d/dx [ (num/den)(D_D - a1 x) - a x ] cleared by den^2."""
    num, den = b.num, b.den
    dnum, dden = derivative(num), derivative(den)
    wronskian = poly_sub(poly_mul(dnum, den, cap=cap),
                         poly_mul(num, dden, cap=cap))
    gain = Polynomial.from_coeffs((eq.delta_d_star, -eq.cost_a1))
    g = poly_sub(poly_mul(wronskian, gain, cap=cap),
                 poly_mul(Polynomial.from_coeffs((eq.cost_a1,)),
                          poly_mul(num, den, cap=cap), cap=cap))
    g = poly_sub(g, poly_mul(Polynomial.from_coeffs((eq.cost_a,)),
                             poly_mul(den, den, cap=cap), cap=cap))
    return _bracket_points(cache.roots(g, l))


def _min_x_for_fixed_p(eq: SubproblemEQ, p_hat: float, l: int, cap: int,
                       cache: _RootCache):
    """Left endpoints of the feasible x-intervals at coverage ``p_hat``.

    Every boundary and both band conditions become univariate polynomial
    sign constraints; their roots partition [0, 1] and midpoint sampling
    marks the feasible cells.  A left end that is a root also yields its
    bracket's right end (at most the cell midpoint), which lies on the
    feasible side of the root when the midpoint does not.
    """
    conditions = []  # polynomials required >= 0
    for b in eq.boundaries:
        p_den = poly_mul(Polynomial.from_coeffs((p_hat,)), b.den)
        shifted = poly_sub(b.num, p_den)
        if not b.is_upper:
            shifted = poly_sub(p_den, b.num)
        conditions.append(shifted)
    radius = {0.0: 0.0, 1.0: 0.0}  # cut -> bracket radius
    for g in conditions:
        for r in cache.roots(g, l) or ():
            radius[r.value] = max(radius.get(r.value, 0.0), r.radius)
    cuts = sorted(radius)
    lefts = []
    for a, bnd in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + bnd)
        if all(g(mid) >= -FEAS_TOL for g in conditions):
            lefts.append(a)
            if radius[a] > 0.0:
                lefts.append(min(a + radius[a], mid))
    return lefts


def apx_candidates(eq: SubproblemEQ, l: int = 20,
                   game_const: float = 0.0,
                   cache: _RootCache | None = None) -> list:
    """Feasible band candidates, best objective first.

    Candidates: the four domain corners, minimum-x solves at fixed
    coverage 0 and 1, stationary points of the objective along every
    boundary, and all pairwise boundary intersections.  ``cache`` shares
    root isolations between the bands of one attacked target.
    """
    if cache is None:
        cache = _RootCache()
    cap = 2 * max(4, len(eq.order) + 1) + 4
    raw = [(0.0, None, "corner:x=0"), (1.0, None, "corner:x=1")]
    for p_hat in (0.0, 1.0):
        for x_left in _min_x_for_fixed_p(eq, p_hat, l, cap, cache):
            raw.append((x_left, p_hat, f"corner:p={p_hat:g}"))
            raw.append((x_left, None, f"corner:p={p_hat:g}+proj"))
    for b in eq.boundaries:
        for x in _stationary_roots(eq, b, l, cap, cache):
            raw.append((x, None, f"single-boundary({b.origin})"))
    bounds = eq.boundaries
    for i in range(len(bounds)):
        for k in range(i + 1, len(bounds)):
            crossings = cache.crossing_roots(bounds[i], bounds[k], l, cap)
            for x in _bracket_points(crossings):
                raw.append(
                    (x, None,
                     f"intersection({bounds[i].origin},{bounds[k].origin})"))
    candidates = make_feasible(raw, eq, game_const)
    feasible = [c for c in candidates if c.feasible]
    feasible.sort(key=lambda c: (-c.objective, c.x))
    return feasible


def recover_full_solution(game: AuditGame, star: int, eq: SubproblemEQ,
                          p_n: float, x: float) -> CoverageSolution:
    """Expand a band point into the full coverage vector and verify it.

    Active targets take their tight-constraint value, zeroed and pinned
    targets take zero.  A vanishing substitution denominator is accepted
    only when its numerator also vanishes (coverage zero); otherwise the
    band bookkeeping is broken and an error is raised.
    """
    d = compute_deltas(game)
    p = np.zeros(game.n_targets)
    p[star] = p_n
    v = p_n * (x + d.delta[star])
    for i in eq.active:
        if game.unauditable[i]:
            continue
        num = v + d.delta_pair[i, star]
        den = x + d.delta[i]
        if den <= 1e-12:
            if abs(num) <= 1e-7:
                continue
            raise DegenerateDenominator(
                f"target {i}: numerator {num:.3e} over vanishing denominator")
        p[i] = min(1.0, max(0.0, num / den))
    residuals = verify_solution(game, star, p, x)
    return CoverageSolution(
        p=p, x=x,
        objective=full_objective(game, star, p_n, x),
        star=star, formulation="transformed", method="fptas",
        details={"band": eq.j, "residuals": residuals},
    )


def solve_fptas(game: AuditGame, cfg: SolveConfig | None = None) -> CoverageSolution:
    """Best solution over every target and every band.

    Ties break toward smaller x then smaller target index, mirroring the
    grid solver.  Every returned solution is re-verified against the full
    program; candidates that fail (band-edge rounding, or instances
    accepted under lenient validation) are discarded with a count.
    """
    cfg = cfg or SolveConfig()
    cset = cx.coverage_set(game, cfg.enumeration_cap)
    d = compute_deltas(game)
    best = None
    best_sol = None
    band_winners = []
    discarded = 0
    isolated = hits = 0
    for star in range(game.n_targets):
        const = game.utilities[star][1]
        cache = _RootCache()  # the bands of one target share polynomials
        order = sort_deltas(game, star)
        offs = [d.delta_pair[i, star] for i in order]
        for j in range(len(order) + 1):
            if j >= 1 and offs[j - 1] >= 0 and d.delta[star] >= 0:
                continue  # band needs p (x + D_star) < -offset <= 0: empty
            if 1 <= j <= len(order) - 1 and offs[j - 1] == offs[j]:
                continue  # tied offsets leave no room between the curves
            eq = build_subproblem(game, star, j, cset)
            sol = None
            cand = None
            # a candidate within rounding of a band edge can recover
            # inconsistently; the adjacent band owns that point, so fall
            # through to the next-best candidate here
            for cand in apx_candidates(eq, cfg.root_bits, game_const=const,
                                       cache=cache):
                try:
                    sol = recover_full_solution(game, star, eq, cand.p_n,
                                                cand.x)
                    break
                except (VerificationFailed, DegenerateDenominator):
                    discarded += 1
                    sol = None
            if sol is None:
                continue
            band_winners.append(
                {"star": star, "band": j, "objective": sol.objective,
                 "x": sol.x, "p_star": cand.p_n,
                 "provenance": cand.provenance,
                 "boundaries": len(eq.boundaries)})
            key = (sol.objective, -sol.x, -star)
            if best is None or key > best:
                best = key
                best_sol = sol
        isolated += cache.isolated
        hits += cache.hits
    if best_sol is None:
        raise AllProgramsInfeasible("every band of every target is infeasible")
    best_sol.details["band_winners"] = band_winners
    best_sol.details["root_bits"] = cfg.root_bits
    best_sol.details["n_constraints"] = len(cset.constraints)
    best_sol.details["discarded_candidates"] = discarded
    best_sol.details["roots_isolated"] = isolated
    best_sol.details["root_cache_hits"] = hits
    return best_sol
