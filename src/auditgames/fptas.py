"""Approximation scheme over hyperbola bands in the (coverage, punishment) plane.

For a fixed best-response target, an optimal point can be normalized so
every other target's best-response constraint is either tight (its
coverage becomes a rational function of ``(p_star, x)``) or its coverage
is zero.  Sorting the pairwise attacker offsets splits the square into
bands between consecutive hyperbolas ``p (x + D_star) + offset = 0``;
inside one band the problem reduces to two variables with constraint
boundaries ``p <= f_b(x)`` for rational ``f_b``.  A kinetic sweep in x
traces each band's lower envelope of upper bounds and upper envelope of
lower bounds; the candidates are the domain corners, the left ends of the
feasible x-intervals at coverage 0, read off where the box row p >= 0
holds the lower envelope, and along the upper envelope the stationary
points of the objective on each piece, the piece ends and the meets with
the lower envelope, with roots isolated to an additive ``2**-l``.  The
solver skips every band whose objective bound lies strictly below the
best point found so far (branch and bound).

All boundary algebra is kept in cleared polynomial form
``p * den(x) <= num(x)`` so that vanishing or sign-changing denominators
never require division; the rational view is only formed at evaluation
points where the denominator is safely signed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import takewhile
from operator import attrgetter

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
    primitive_part,
    sign_after_zero,
)

ON_CURVE_TOL = 1e-9
FEAS_TOL = 1e-7
# A denominator within this of 0 at an end of [0, 1] may fall inside the
# 1e-12 band where ``_bounds_at`` takes it as vanishing.
NEAR_POLE = 1e-9


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
    is_upper: bool = True  # upper bound on p when den > 0
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
    star_pinned: bool
    delta_star: float
    delta_d_star: float
    cost_a: float
    cost_a1: float
    offsets: np.ndarray  # attacker offset of each target vs star
    closed_below: float = 0.0  # x below which the strict curve is closed


@dataclass
class CandidatePoint:
    p_n: float
    x: float
    objective: float
    provenance: str
    feasible: bool


def sort_deltas(game: AuditGame, star: int) -> tuple:
    """Non-star targets in stable ascending order of their attacker offset
    ``ua_unaudited(i) - ua_unaudited(star)``."""
    d = compute_deltas(game)
    others = [i for i in range(game.n_targets) if i != star]
    keys = np.array([d.delta_pair[i, star] for i in others])
    return tuple(others[k] for k in np.argsort(keys, kind="stable"))


class _TargetAlgebra:
    """The boundaries of one attacked target, each built once.

    Band ``j`` substitutes the targets ``order[j:]``.  Its coverage and
    pinned rows, its two band curves and most of its substituted
    coverage-set rows recur in the neighbouring bands, so each is built on
    first use and the same object is handed to every later band.
    """

    def __init__(self, game: AuditGame, star: int, cset: cx.ConstraintSet):
        self.game, self.star, self.cset = game, star, cset
        self.d = d = compute_deltas(game)
        self.order = sort_deltas(game, star)
        self.a_star = Polynomial.from_coeffs((d.delta[star], 1.0))  # x + D_star
        self.cap = 2 * game.n_targets + 4
        self.rows = {}
        self.curves = {}
        self.set_rows = {}
        self.cleared = {(): (Polynomial.from_coeffs((1.0,)),
                             Polynomial.from_coeffs((0.0,)),
                             Polynomial.from_coeffs((0.0,)))}
        self.position = position = {t: k for k, t in enumerate(self.order)}
        # per constraint: whether it holds the star, and its auditable
        # non-star members with their place in ``order``; band j keeps the
        # members placed at j or later
        self.placed = [
            (star in c.target_indices,
             [(t, position[t]) for t in c.target_indices
              if t != star and not game.unauditable[t]])
            for c in cset.constraints]

    def serves(self, game: AuditGame, star: int, cset) -> bool:
        return self.game is game and self.star == star and self.cset is cset

    def row(self, i: int) -> Boundary:
        """Coverage cap of substituted target ``i``, or its pinned row."""
        b = self.rows.get(i)
        if b is None:
            d, star = self.d, self.star
            offset = d.delta_pair[i, star]
            if self.game.unauditable[i]:
                # pinned coverage: p (x + D_star) + offset <= 0
                b = Boundary(num=Polynomial.from_coeffs((-offset,)),
                             den=self.a_star, origin=f"pinned_row:{i}")
            else:
                # p_(i) <= 1  <=>  p (x + D_star) <= x + D_i - offset
                b = Boundary(
                    num=Polynomial.from_coeffs((d.delta[i] - offset, 1.0)),
                    den=self.a_star, origin=f"coverage_row:{i}")
            self.rows[i] = b
        return b

    def curve(self, k: int, lower_side: bool) -> Boundary:
        """Band curve ``p (x + D_star) + offset(order[k]) = 0``: the closed
        strict lower curve of band k + 1, or the lower bound of band k.
        Targets with tied offsets share their curves."""
        off = self.d.delta_pair[self.order[k], self.star]
        b = self.curves.get((off, lower_side))
        if b is None:
            num = Polynomial.from_coeffs((-off,))
            if lower_side:
                b = Boundary(num=num, den=self.a_star,
                             origin="band-lower-closed")
            else:
                b = Boundary(num=num, den=self.a_star, origin="band-upper",
                             is_upper=False)
            self.curves[(off, lower_side)] = b
        return b

    def set_row(self, cid: int, members: tuple, has_star: bool):
        """Coverage-set row ``cid`` after substituting ``members``, or None
        when it is void."""
        key = (cid, members, has_star)
        if key not in self.set_rows:
            self.set_rows[key] = self._build_set_row(cid, members, has_star)
        return self.set_rows[key]

    def _cleared(self, members: tuple):
        """``(big_d, sum_dt, off_dt)`` over ``members``: ``big_d`` is
        prod_t (x + D_t), ``sum_dt`` is sum_t big_d / (x + D_t) and
        ``off_dt`` is sum_t offset_t big_d / (x + D_t).

        Dropping the member placed first in ``order`` gives the member set
        of a later band, so each set is one leg added to a set already
        built: O(1) products per set.
        """
        chain = []
        while members not in self.cleared:
            first = min(members, key=self.position.__getitem__)
            chain.append((members, first))
            members = tuple(t for t in members if t != first)
        big_d, sum_dt, off_dt = self.cleared[members]
        for members, first in reversed(chain):
            leg = Polynomial.from_coeffs((self.d.delta[first], 1.0))
            off = Polynomial.from_coeffs((self.d.delta_pair[first, self.star],))
            sum_dt = poly_arith(poly_mul(sum_dt, leg, cap=self.cap), big_d, "add")
            off_dt = poly_arith(poly_mul(off_dt, leg, cap=self.cap),
                                poly_mul(off, big_d), "add")
            big_d = poly_mul(big_d, leg, cap=self.cap)
            self.cleared[members] = big_d, sum_dt, off_dt
        return big_d, sum_dt, off_dt

    def _build_set_row(self, cid: int, members: tuple, has_star: bool):
        d, star = self.d, self.star
        c = self.cset.constraints[cid]
        # clear denominators: multiply by prod_t (x + D_t) over the members
        big_d, sum_dt, off_dt = self._cleared(members)
        num = poly_sub(poly_mul(Polynomial.from_coeffs((c.bound,)), big_d),
                       off_dt)
        den = poly_mul(self.a_star, sum_dt, cap=self.cap)
        if has_star:
            den = poly_arith(den, big_d, "add")
        if den.is_zero and num.is_zero:
            return None

        def _direct(x, bound=float(c.bound), has_star=has_star,
                    ds=float(d.delta[star]),
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

        return Boundary(num=num, den=den, origin=f"setC:{cid}",
                        eval_fn=_direct)


def build_subproblem(game: AuditGame, star: int, j: int,
                     cset: cx.ConstraintSet,
                     cache: "_RootCache | None" = None) -> SubproblemEQ:
    """Boundaries of band ``j``: coverage caps of the substituted targets,
    pinned-target rows, the closed strict band curve, the band lower bound,
    and every coverage-set constraint after substitution.  When D_star > 0
    only the lowest coverage cap and the lowest pinned row are kept, as
    each lies below the others of its kind on all of [0, 1].

    ``cache`` is the attacked target's :class:`_RootCache`; it keeps the
    target's :class:`_TargetAlgebra`, so each boundary is built once per
    target and recurs as the same object in every band that has it.
    Without it the band is built from scratch, with equal polynomials.
    """
    if cache is None:
        algebra = _TargetAlgebra(game, star, cset)
    else:
        algebra = cache.algebra_for(game, star, cset)
    d, order = algebra.d, algebra.order
    if not 0 <= j <= len(order):
        raise ValueError(f"band index {j} out of range")
    rows = order[j:]
    if d.delta[star] > 0:
        # each row reads p (x + D_star) <= x + D_i - off_i (coverage) or
        # <= -off_i (pinned) over a denominator positive on [0, 1], so the
        # row of each shape with the least constant (the first in band
        # order on a tie) lies below the others of its shape
        lowest = {}
        for i in rows:
            pinned = game.unauditable[i]
            off = d.delta_pair[i, star]
            level = -off if pinned else d.delta[i] - off
            if pinned not in lowest or level < lowest[pinned][0]:
                lowest[pinned] = level, i
        kept = {i for _, i in lowest.values()}
        rows = [i for i in rows if i in kept]
    boundaries = [algebra.row(i) for i in rows]
    if j >= 1:
        boundaries.append(algebra.curve(j - 1, True))
    if j <= len(order) - 1:
        boundaries.append(algebra.curve(j, False))
    for cid, (has_star, placed) in enumerate(algebra.placed):
        members = tuple(t for t, k in placed if k >= j)
        if not members and not has_star:
            continue  # every member substitutes to zero
        b = algebra.set_row(cid, members, has_star)
        if b is not None:
            boundaries.append(b)

    # the targets on the band's strict curve: order[j - 1] and its ties
    on_curve = takewhile(
        lambda t: d.delta_pair[t, star] == d.delta_pair[order[j - 1], star],
        reversed(order[:j]))
    return SubproblemEQ(
        star=star, j=j, order=order, active=tuple(order[j:]),
        zeroed=tuple(order[:j]), boundaries=tuple(boundaries),
        star_pinned=bool(game.unauditable[star]),
        delta_star=float(d.delta[star]),
        delta_d_star=float(d.delta_d[star]),
        cost_a=game.cost_a,
        cost_a1=game.cost_a1,
        offsets=d.delta_pair[:, star].copy(),
        closed_below=float(max((-d.delta[t] for t in on_curve
                                if not game.unauditable[t]), default=0.0)),
    )


def _objective(eq: SubproblemEQ, game_const: float, p: float, x: float) -> float:
    return game_const + p * (eq.delta_d_star - eq.cost_a1 * x) - eq.cost_a * x


def _in_band(eq: SubproblemEQ, p: float, x: float) -> bool:
    """Whether (p, x) is in the band and off its strict lower curve, the
    strict side tested at 1e-9.  Below ``closed_below`` a target on that
    curve has x + D < 0, so no band with it substituted holds the curve:
    there this band does, at the target's zero coverage."""
    v = p * (x + eq.delta_star)
    if (eq.j >= 1 and x >= eq.closed_below
            and v + eq.offsets[eq.order[eq.j - 1]] >= -ON_CURVE_TOL):
        return False
    return not (eq.j <= len(eq.order) - 1
                and v + eq.offsets[eq.order[eq.j]] < -FEAS_TOL)


def _bounds_at(boundaries, x: float):
    """(upper, lower, feasible) limits for p at this x, derived
    sign-safely from each of ``boundaries`` in cleared form."""
    upper = 1.0
    lower = 0.0
    for b in boundaries:
        num_v, den_v = b.values(x)
        if abs(den_v) > 1e-12:
            # p den <= num bounds p from above where den > 0
            if b.is_upper == (den_v > 0):
                upper = min(upper, num_v / den_v)
            else:
                lower = max(lower, num_v / den_v)
        elif ((num_v if b.is_upper else -num_v)
              < -FEAS_TOL * max(1.0, abs(num_v))):
            return upper, lower, False
    return upper, lower, True


def make_feasible(candidates, eq: SubproblemEQ, game_const: float,
                  envelope):
    """Project raw candidates onto the feasible region of the band.

    Each candidate is (x, forced_p or None, provenance).  The coverage is
    set to the upper envelope ``min(1, min_b f_b(x))`` unless forced;
    candidates whose projected coverage is negative, below the lower
    envelope, or on the strict band curve are marked infeasible.
    ``envelope(x)`` gives (upper, lower, feasible) at x.
    """
    out = []
    for x_raw, forced_p, provenance in candidates:
        x = min(1.0, max(0.0, float(x_raw)))
        upper, lower, ok = envelope(x)
        if eq.star_pinned:
            p = min(0.0, upper)
        elif forced_p is None:
            p = upper
        else:
            # never exceed the envelope: recovery must stay inside C
            p = min(float(forced_p), upper)
        p = min(p, 1.0)
        feasible = ok and p >= -FEAS_TOL and p >= lower - FEAS_TOL
        p = min(1.0, max(0.0, p))
        out.append(CandidatePoint(
            p_n=p, x=x,
            objective=_objective(eq, game_const, p, x),
            provenance=provenance,
            feasible=feasible and _in_band(eq, p, x),
        ))
    return out


class _RootCache:
    """Root brackets and boundary algebra of one attacked target.

    ``build_subproblem`` keeps the target's :class:`_TargetAlgebra` here,
    so the bands share boundary objects.  Each distinct ``(num, den)``
    gets a small id, and root requests are answered at three levels:

    - per boundary id: its stationary points and its denominator's sign
      changes;
    - per pair of ids: the pair's crossings, where ``n1 d2 - n2 d1``
      vanishes.  Its terms are kept per (boundary, denominator), since
      one row meets every coverage row over the same ``x + D_star``;
    - per polynomial: keyed by its primitive part and the precision,
      since ``isolate_roots`` gives ``c * g`` and ``g`` the same brackets.
      The entry is the ``RootApprox`` tuple, or None for zero.

    Every request counts once: as an isolation, or as a hit.  The band
    sweeps add their envelope pieces and crossing requests.
    """

    def __init__(self):
        self.algebra = None
        self.found = {}
        self.ids = {}
        self.stationary = {}
        self.crossings = {}
        self.terms = {}
        self.profiles = {}
        self.isolated = 0
        self.hits = 0
        self.pieces = 0
        self.crossings_requested = 0

    def algebra_for(self, game: AuditGame, star: int, cset) -> _TargetAlgebra:
        if self.algebra is None:
            self.algebra = _TargetAlgebra(game, star, cset)
        elif not self.algebra.serves(game, star, cset):
            raise ValueError("a root cache serves one attacked target")
        return self.algebra

    def boundary_id(self, b: Boundary) -> int:
        return self.ids.setdefault((b.num, b.den), len(self.ids))

    def roots(self, g: Polynomial, l: int):
        key = (primitive_part(g), l)
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

    def _term(self, b: Boundary, bid: int, den: Polynomial, cap: int):
        """``b.num * den``, where ``bid`` is the id of ``b``."""
        key = (bid, den)
        term = self.terms.get(key)
        if term is None:
            term = self.terms[key] = poly_mul(b.num, den, cap=cap)
        return term

    def crossing(self, b1: Boundary, id1: int, b2: Boundary, id2: int,
                 l: int, cap: int):
        """Roots of ``n1 d2 - n2 d1`` for boundaries ``b1`` and ``b2``
        (ids ``id1`` and ``id2``), None when it vanishes, and its sign
        just right of 0."""
        swap = id2 < id1
        if swap:
            b1, id1, b2, id2 = b2, id2, b1, id1
        key = (id1, id2, l)
        found = self.crossings.get(key)
        if found is None:
            cross = poly_sub(self._term(b1, id1, b2.den, cap),
                             self._term(b2, id2, b1.den, cap))
            found = self.crossings[key] = (self.roots(cross, l),
                                           sign_after_zero(cross))
        else:
            self.hits += 1
        roots, sign = found
        return roots, -sign if swap else sign

    def profile(self, b: Boundary, bid: int, l: int):
        """The sign of ``b.den`` just right of 0, its sign changes in
        (0, 1), and whether ``b`` can come near a pole on [0, 1]: its
        denominator vanishes, has a root in (0, 1), or is within
        ``NEAR_POLE`` of 0 at an end."""
        key = (bid, b.origin, l)
        found = self.profiles.get(key)
        if found is not None:
            self.hits += 1
            return found
        roots = self.roots(b.den, l)
        if roots is None:
            found = (0, (), True)
        else:
            near_pole = bool(roots) or any(
                abs(den_v) <= NEAR_POLE
                for x in (0.0, 1.0) for den_v in (b.den(x), b.values(x)[1]))
            found = (sign_after_zero(b.den),
                     tuple(r for r in roots if r.sign_change), near_pole)
        self.profiles[key] = found
        return found


def _bracket_points(roots) -> tuple:
    """Each root's midpoint, then both ends of its bracket within [0, 1]:
    the midpoint can sit just outside a boundary the root bounds."""
    points = []
    for r in roots or ():
        points += (r.value, max(0.0, r.value - r.radius),
                   min(1.0, r.value + r.radius))
    return tuple(points)


def _stationary_roots(eq: SubproblemEQ, b: Boundary, bid: int, l: int,
                      cap: int, cache: _RootCache):
    """Roots of d/dx [ (num/den)(D_D - a1 x) - a x ] cleared by den^2,
    None when that vanishes; ``bid`` is the boundary's id in ``cache``,
    which serves one target, so the objective's constants are fixed."""
    key = (bid, l)
    if key in cache.stationary:
        cache.hits += 1
        return cache.stationary[key]
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
    roots = cache.stationary[key] = cache.roots(g, l)
    return roots


def _near(roots, lo: float, hi: float) -> list:
    """The roots whose brackets meet [lo, hi]."""
    return [r for r in roots or ()
            if r.value + r.radius >= lo and r.value - r.radius <= hi]


def _crossing_points(roots, a, c, forced=None) -> list:
    """Raw candidates at the bracket points of crossings of curves a, c,
    at coverage ``forced`` or on the envelope."""
    first, second = sorted((a, c), key=attrgetter("k"))
    provenance = f"intersection({first.b.origin},{second.b.origin})"
    return [(x, forced, provenance) for x in _bracket_points(roots)]


# The box rows p <= 1 and p >= 0, swept with the band's boundaries.
_BOX_ROWS = (
    Boundary(num=Polynomial.from_coeffs((1.0,)),
             den=Polynomial.from_coeffs((1.0,)), origin="box:p<=1"),
    Boundary(num=Polynomial.from_coeffs((0.0,)),
             den=Polynomial.from_coeffs((1.0,)), origin="box:p>=0",
             is_upper=False),
)


class _Curve:
    """A boundary in the sweep: ``k`` is its place in the band (the box
    rows come last), ``sign`` the sign of its denominator just right of 0
    and ``flips`` the values in (0, 1) where that sign changes."""

    __slots__ = ("k", "b", "bid", "sign", "flips")

    def __init__(self, k: int, b: Boundary, bid: int, sign: int, flips):
        self.k, self.b, self.bid, self.sign = k, b, bid, sign
        self.flips = tuple(r.value for r in flips)

    def den_sign(self, x: float) -> int:
        """Sign of the denominator just right of x."""
        return -self.sign if bisect_right(self.flips, x) & 1 else self.sign

    def caps(self, x: float) -> bool:
        """Whether the boundary bounds p from above just right of x."""
        return self.b.is_upper == (self.den_sign(x) > 0)


@dataclass(frozen=True)
class _Piece:
    """``rep`` is extreme on its envelope from root ``lo`` to root ``hi``
    (None at 0 and 1); ``members`` are the boundaries of the curves equal
    to it there, box rows left out, and ``boxed`` says whether the
    envelope's box row is among those curves."""

    rep: _Curve
    members: tuple
    lo: object
    hi: object
    boxed: bool

    @property
    def start(self) -> float:
        return 0.0 if self.lo is None else self.lo.value

    @property
    def reach(self) -> tuple:
        """The piece's x-range, widened by its end brackets."""
        return (0.0 if self.lo is None else self.lo.value - self.lo.radius,
                1.0 if self.hi is None else self.hi.value + self.hi.radius)


class _Envelopes:
    """A band's lower envelope of upper bounds on p (with p <= 1) and
    upper envelope of lower bounds (with p >= 0), traced by a kinetic
    sweep in x over [0, 1] (Sharir & Agarwal, *Davenport-Schinzel
    Sequences and Their Geometric Applications*, 1995).

    Which side a boundary bounds and how two boundaries compare change
    only at sign-changing roots of a denominator or of a crossing
    ``n1 d2 - n2 d1``.  Counting those roots below x gives the exact order
    just right of x, starting from the exact signs at 0+.  The sweep
    isolates only the crossings of each extreme boundary with the others.
    Events are ordered by root value, so roots closer than ``2**-l`` may be
    taken in the wrong order.
    """

    def __init__(self, eq: SubproblemEQ, l: int, cache: _RootCache):
        self.eq, self.l, self.cache = eq, l, cache
        self.cap = 2 * max(4, len(eq.order) + 1) + 4
        self.n = len(eq.boundaries)
        self.memo = {}
        self.near_pole, self.curves = [], []
        poles = {}
        for k, b in enumerate(eq.boundaries + _BOX_ROWS):
            bid = cache.boundary_id(b)
            sign, flips, near_pole = cache.profile(b, bid, l)
            if near_pole:  # never a box row, whose denominator is 1
                self.near_pole.append(b)
            if sign:
                self.curves.append(_Curve(k, b, bid, sign, flips))
                poles.update((r.value, r) for r in flips)
        self.pole_values = sorted(poles)
        self.poles = [poles[v] for v in self.pole_values]
        self.upper, self.upper_ends = self._trace(True)
        self.lower, self.lower_ends = self._trace(False)
        self.upper_starts = [p.start for p in self.upper]
        self.lower_starts = [p.start for p in self.lower]
        cache.pieces += len(self.upper) + len(self.lower)

    def _cross(self, a: _Curve, c: _Curve):
        """(values, roots) of the sign changes of ``n_a d_c - n_c d_a``,
        its sign just right of 0, and all its roots."""
        got = self.memo.get((a.k, c.k))
        if got is None:
            self.cache.crossings_requested += 1
            roots, sign = self.cache.crossing(a.b, a.bid, c.b, c.bid, self.l,
                                              self.cap)
            flips = tuple(r for r in roots or () if r.sign_change)
            values = tuple(r.value for r in flips)
            got = self.memo[a.k, c.k] = (values, flips, sign, roots)
            self.memo[c.k, a.k] = (values, flips, -sign, roots)
        return got

    def _order(self, a: _Curve, c: _Curve, x: float) -> int:
        """Exact sign of ``c``'s value minus ``a``'s just right of x."""
        values, _, sign, _ = self._cross(a, c)
        if bisect_right(values, x) & 1:
            sign = -sign
        # c - a = -(n_a d_c - n_c d_a) / (d_a d_c)
        return -sign * a.den_sign(x) * c.den_sign(x)

    def _settle(self, x: float, m: _Curve, side: list, want: int) -> _Curve:
        """The extreme curve just right of x, reached from ``m`` by
        exchanges; ``want`` is the sign of a better curve minus ``m``."""
        seen = {m.k}
        moved = True
        while moved:
            moved = False
            for c in side:
                if c.k not in seen and self._order(m, c, x) == want:
                    m = c
                    seen.add(c.k)
                    moved = True
        return m

    def _next_event(self, x: float, m: _Curve, tied: set, side: list,
                    want: int):
        """The least root above x where ``m`` may stop being extreme: a
        sign change of its crossing with a curve on the far side of it, or
        a pole where some curve switches sides; and that curve, None at a
        pole."""
        i = bisect_right(self.pole_values, x)
        hi = self.poles[i] if i < len(self.poles) else None
        partner = None
        for c in side:
            if c.k in tied:
                continue
            values, flips, _, _ = self._cross(m, c)
            j = bisect_right(values, x)
            if (j < len(values) and (hi is None or values[j] < hi.value)
                    and self._order(m, c, x) == -want):
                hi, partner = flips[j], c
        return hi, partner

    def _trace(self, upper: bool):
        """Pieces of one envelope, and the events that end them as
        (root, curve before, partner or None at a pole)."""
        want = -1 if upper else 1
        x = 0.0
        side = [c for c in self.curves if c.caps(x) == upper]
        m = self._settle(x, side[-1], side, want)
        pieces, ends = [], []
        lo = event = rep = None
        members = ()
        while True:
            group = [c for c in side if c is m or self._cross(m, c)[2] == 0]
            best = min(group, key=attrgetter("k"))
            if best is not rep:
                if rep is not None:
                    pieces.append(_Piece(rep, members, lo, event[0], boxed))
                    ends.append(event)
                    lo, members = event[0], ()
                rep = best
                # the box row holds the piece also when a boundary equal to
                # it stands for it, as a band curve at offset 0 does p >= 0
                boxed = any(c.k >= self.n for c in group)
            members += tuple(c.b for c in group
                             if c.k < self.n and c.b not in members)
            hi, partner = self._next_event(x, m, {c.k for c in group}, side,
                                           want)
            if hi is None:
                pieces.append(_Piece(rep, members, lo, None, boxed))
                return pieces, ends
            event = (hi, m, partner)
            x = hi.value
            side = [c for c in self.curves if c.caps(x) == upper]
            # the box row closes every side
            m = next(c for c in (partner, m, side[-1]) if c in side)
            m = self._settle(x, m, side, want)

    def bounds_at(self, x: float):
        """(upper, lower, feasible) at x, as ``_bounds_at`` gives it over
        every boundary, from the pieces whose reach holds x and the
        boundaries that may pass near a pole."""
        boundaries = list(self.near_pole)
        for pieces, starts in ((self.upper, self.upper_starts),
                               (self.lower, self.lower_starts)):
            i = bisect_right(starts, x) - 1
            boundaries += pieces[i].members
            j = i - 1
            while j >= 0 and pieces[j].reach[1] >= x:
                boundaries += pieces[j].members
                j -= 1
            j = i + 1
            while j < len(pieces) and pieces[j].reach[0] <= x:
                boundaries += pieces[j].members
                j += 1
        return _bounds_at(boundaries, x)

    def candidates(self) -> list:
        """Raw (x, forced_p or None, provenance) candidates.

        At coverage 0: the start of each piece of the lower envelope that
        the box row p >= 0 holds, where a feasible x-interval at that
        coverage can begin.  Along the upper envelope: stationary points
        of each piece within its reach, piece ends, poles that end a
        piece, and the meets of the two envelopes, which are also tried at
        coverage 0 where p >= 0 holds the lower side and p <= 1 does not
        hold the upper.  Ends and meets at the box rows count too: the
        feasible set at p = 0 or p = 1 can be a single point.  Coverage 1
        needs no forced candidate: an unforced one takes the upper
        envelope, which is 1 where p <= 1 holds it, and the start of such
        a piece is the x = 0 corner or the end of the piece before it.
        """
        raw = []
        for piece in self.lower:
            if piece.boxed:
                xs = ((0.0,) if piece.lo is None
                      else _bracket_points((piece.lo,)))
                raw += [(x, 0.0, "corner:p=0") for x in xs]
        for piece in self.upper:
            rep = piece.rep
            roots = _stationary_roots(self.eq, rep.b, rep.bid, self.l,
                                      self.cap, self.cache)
            provenance = f"single-boundary({rep.b.origin})"
            raw += [(x, None, provenance) for x in
                    _bracket_points(_near(roots, *piece.reach))]
        poles = {}
        for root, before, partner in self.upper_ends:
            if partner is None:
                poles[root.value] = root
            else:
                raw += _crossing_points((root,), before, partner)
        for root, _, partner in self.lower_ends:
            if partner is None:
                poles[root.value] = root
        for value in sorted(poles):
            raw += [(x, None, "pole") for x in _bracket_points((poles[value],))]
        for u in self.upper:
            for w in self.lower:
                lo = max(u.reach[0], w.reach[0])
                hi = min(u.reach[1], w.reach[1])
                if lo <= hi:
                    roots = _near(self._cross(u.rep, w.rep)[3], lo, hi)
                    raw += _crossing_points(roots, u.rep, w.rep)
                    if w.boxed and not u.boxed:
                        raw += _crossing_points(roots, u.rep, w.rep, 0.0)
        return raw


def apx_candidates(eq: SubproblemEQ, l: int = 20,
                   game_const: float = 0.0,
                   cache: _RootCache | None = None) -> list:
    """Feasible band candidates, best objective first.

    A kinetic sweep traces the band's two envelopes (see
    :class:`_Envelopes`).  Candidates: the domain corners x = 0 and 1,
    the left ends of the feasible x-intervals at coverage 0 that the
    lower envelope's box row gives, and along the upper envelope the
    stationary points of each piece, the piece ends and the meets with the
    lower envelope, each root at its bracket midpoint and both ends.  Each
    candidate's coverage comes from the pieces at its x.  ``cache`` serves
    one attacked target and shares its root requests between its bands.
    """
    if cache is None:
        cache = _RootCache()
    env = _Envelopes(eq, l, cache)
    raw = [(0.0, None, "corner:x=0"), (1.0, None, "corner:x=1")]
    raw += env.candidates()
    candidates = make_feasible(raw, eq, game_const, env.bounds_at)
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


def band_bound(ud_u: float, gain: float, delta_star: float,
               off=None) -> float:
    """Upper bound on the objective ``ud_u + p (gain - a1 x) - a x`` over
    a band of an attacked target with unaudited payoff ``ud_u``, defender
    gain ``gain`` = D_D and attacker loss ``delta_star`` = D_star.
    Costs are nonnegative, so the objective is at most
    ``ud_u + max(0, gain) p``.  ``off`` is the offset of band j's strict
    lower curve (None for band 0); with D_star > 0, :func:`_in_band`
    keeps ``p (x + D_star) <= -off``, so p <= -off / D_star."""
    reach = 1.0
    if off is not None and delta_star > 0:
        reach = min(1.0, -off / delta_star)
    return ud_u + max(0.0, gain) * reach


def solve_fptas(game: AuditGame, cfg: SolveConfig | None = None) -> CoverageSolution:
    """Best solution over every target and every band.

    Ties break toward smaller x then smaller target index, mirroring the
    grid solver.  Every returned solution is re-verified against the full
    program; candidates that fail (band-edge rounding, or instances
    accepted under lenient validation) are discarded with a count.

    Branch and bound (Land & Doig, Econometrica 1960): targets are visited
    in descending ``ud_a`` order, and a band whose :func:`band_bound` lies
    strictly below the best objective found so far is skipped, counted in
    ``details["pruned"]``.  A skipped band cannot hold the best point, and
    a band that ties the best is still solved, so the solution and its
    tie-break are those of solving every band; ``band_winners`` lists the
    solved bands only.
    """
    cfg = cfg or SolveConfig()
    cset = cx.coverage_set(game, cfg.enumeration_cap)
    d = compute_deltas(game)
    best = None
    best_sol = None
    band_winners = []
    discarded = pruned = 0
    isolated = hits = pieces = requested = 0
    for star in sorted(range(game.n_targets),
                       key=lambda s: -game.utilities[s][0]):
        const = game.utilities[star][1]
        cache = _RootCache()  # the bands of one target share their algebra
        order = sort_deltas(game, star)
        offs = [d.delta_pair[i, star] for i in order]
        for j in range(len(order) + 1):
            if j >= 1 and offs[j - 1] >= 0 and d.delta[star] >= 0:
                continue  # band needs p (x + D_star) < -offset <= 0: empty
            if 1 <= j <= len(order) - 1 and offs[j - 1] == offs[j]:
                continue  # tied offsets leave no room between the curves
            if best is not None and band_bound(
                    const, d.delta_d[star], d.delta[star],
                    offs[j - 1] if j >= 1 else None) < best[0]:
                pruned += 1
                continue
            eq = build_subproblem(game, star, j, cset, cache)
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
        pieces += cache.pieces
        requested += cache.crossings_requested
    if best_sol is None:
        raise AllProgramsInfeasible("every band of every target is infeasible")
    best_sol.details["band_winners"] = band_winners
    best_sol.details["root_bits"] = cfg.root_bits
    best_sol.details["n_constraints"] = len(cset.constraints)
    best_sol.details["discarded_candidates"] = discarded
    best_sol.details["pruned"] = pruned
    best_sol.details["roots_isolated"] = isolated
    best_sol.details["root_cache_hits"] = hits
    best_sol.details["envelope_pieces"] = pieces
    best_sol.details["crossings_requested"] = requested
    return best_sol
