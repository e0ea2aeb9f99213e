"""Dense real polynomials and certified root isolation.

Polynomials are stored as coefficient tuples in ascending degree order.
Root isolation combines a Sturm sequence (for certified root counts over
an interval) with plain sign bisection (for refinement to a requested
additive radius ``2**-l``).  Everything runs in double precision; the
requested precision is capped at 40 bits because Sturm signs become
unreliable past that point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import DegreeCapExceeded, PrecisionUnachievable, ZeroPolynomial

MAX_ROOT_BITS = 40
WARN_ROOT_BITS = 30

_REL_EPS = 1e-13


def _trim(coeffs) -> tuple:
    """Drop trailing exact zeros; the zero polynomial becomes ``(0.0,)``."""
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    if not coeffs:
        coeffs = [0.0]
    return tuple(float(c) for c in coeffs)


@dataclass(frozen=True)
class Polynomial:
    coefficients: tuple

    @classmethod
    def from_coeffs(cls, coeffs) -> "Polynomial":
        return cls(_trim(coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coefficients)

    @property
    def degree(self) -> int:
        if self.is_zero:
            return -1
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        return horner(self.coefficients, x)


@dataclass(frozen=True)
class RootApprox:
    """One isolated real root: the truth lies within ``value +- radius``.

    ``sign_change`` is False for even-multiplicity touch roots of the
    original polynomial (the bracket is certified on its square-free part).
    """

    value: float
    radius: float
    sign_change: bool


def horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _horner_with_bound(coeffs, x: float):
    """Evaluate and return (value, running magnitude bound) for zero tests."""
    acc = 0.0
    bound = 0.0
    ax = abs(x)
    for c in reversed(coeffs):
        acc = acc * x + c
        bound = bound * ax + abs(c)
    return acc, bound


def _sign_at(coeffs, x: float) -> int:
    value, bound = _horner_with_bound(coeffs, x)
    if abs(value) <= _REL_EPS * max(bound, 1e-300):
        return 0
    return 1 if value > 0.0 else -1


def poly_arith(p: Polynomial, q: Polynomial, op: str, cap: int | None = None) -> Polynomial:
    """Exact add/sub/mul in working precision; trailing zeros trimmed."""
    a, b = p.coefficients, q.coefficients
    if op in ("add", "sub"):
        n = max(len(a), len(b))
        sign = 1.0 if op == "add" else -1.0
        out = [0.0] * n
        for i in range(n):
            ai = a[i] if i < len(a) else 0.0
            bi = b[i] if i < len(b) else 0.0
            out[i] = ai + sign * bi
    elif op == "mul":
        out = [0.0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0.0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    else:
        raise ValueError(f"unknown op {op!r}")
    result = Polynomial.from_coeffs(out)
    if cap is not None and result.degree > cap:
        raise DegreeCapExceeded(f"degree {result.degree} exceeds cap {cap}")
    return result


def poly_sub(p, q, cap=None):
    return poly_arith(p, q, "sub", cap)


def poly_mul(p, q, cap=None):
    return poly_arith(p, q, "mul", cap)


def derivative(p: Polynomial) -> Polynomial:
    c = p.coefficients
    if len(c) == 1:
        return Polynomial.from_coeffs((0.0,))
    return Polynomial.from_coeffs(tuple(i * c[i] for i in range(1, len(c))))


def _normalize(coeffs) -> list:
    m = max(abs(c) for c in coeffs)
    if m == 0.0:
        return list(coeffs)
    return [c / m for c in coeffs]


def _poly_divmod(a, b):
    """Float polynomial division with relative-tolerance coefficient cleanup."""
    a = list(a)
    b = list(b)
    scale = max(abs(c) for c in a + b)
    q = [0.0] * max(1, len(a) - len(b) + 1)
    r = a[:]
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and any(abs(c) > _REL_EPS * scale for c in r):
        dr = len(r) - 1
        coeff = r[-1] / lead
        q[dr - db] += coeff
        for i in range(db + 1):
            r[dr - db + i] -= coeff * b[i]
        # the leading term cancels by construction
        r.pop()
        while len(r) > 1 and abs(r[-1]) <= _REL_EPS * scale:
            r.pop()
    if not r:
        r = [0.0]
    return q, r


def sturm_sequence(p: Polynomial) -> list:
    """Sturm chain of ``p`` with per-step normalization for stability."""
    chain = [_normalize(p.coefficients)]
    d = derivative(p)
    if d.is_zero:
        return [tuple(chain[0])]
    chain.append(_normalize(d.coefficients))
    while True:
        last = chain[-1]
        if len(last) == 1:
            break
        _, rem = _poly_divmod(chain[-2], last)
        rem = [-c for c in rem]
        if len(rem) == 1 and rem[0] == 0.0:
            break
        chain.append(_normalize(rem))
    return [tuple(c) for c in chain]


def sign_variations(chain, x: float) -> int:
    signs = [s for s in (_sign_at(c, x) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, lo: float, hi: float) -> int:
    """Number of distinct real roots in (lo, hi] of the chain's polynomial."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def _poly_gcd(a, b):
    """Rough float gcd by the Euclidean remainder sequence."""
    a = _normalize(a)
    b = _normalize(b)
    if len(b) > len(a):
        a, b = b, a
    while True:
        if all(c == 0.0 for c in b):
            return a
        _, r = _poly_divmod(a, b)
        if len(r) == 1 and abs(r[0]) <= 1e-10:
            return b
        a, b = b, _normalize(r)
        if len(b) == 1:
            return b


def square_free_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'): same root set, all multiplicities flattened to one."""
    if p.degree <= 1:
        return Polynomial.from_coeffs(_normalize(p.coefficients))
    g = _poly_gcd(p.coefficients, derivative(p).coefficients)
    if len(g) == 1:
        return Polynomial.from_coeffs(_normalize(p.coefficients))
    q, _ = _poly_divmod(_normalize(p.coefficients), g)
    return Polynomial.from_coeffs(_normalize(q))


def _nudge_off_root(chain, x: float, direction: float, span: float) -> float:
    step = span * 2.0 ** -48
    for _ in range(64):
        if _sign_at(chain[0], x) != 0:
            return x
        x += direction * step
        step *= 2.0
    raise PrecisionUnachievable(f"cannot move off a root near x={x}")


def isolate_roots(p: Polynomial, interval, l: int) -> list:
    """Isolate every real root of ``p`` in the open interval.

    Returns one :class:`RootApprox` per distinct root, each certified by a
    Sturm count and refined by bisection to radius at most ``2**-l``.
    Roots within working precision of the interval endpoints are excluded
    (callers cover endpoints through their own corner handling).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if l < 1:
        raise ValueError("l must be >= 1")
    if l > MAX_ROOT_BITS:
        warnings.warn(f"root precision capped at {MAX_ROOT_BITS} bits", stacklevel=2)
        l = MAX_ROOT_BITS
    elif l > WARN_ROOT_BITS:
        warnings.warn(
            f"root precision beyond {WARN_ROOT_BITS} bits is near the double"
            " precision noise floor", stacklevel=2)
    radius_target = 2.0 ** -l
    scale = max(1.0, abs(lo), abs(hi))
    if radius_target < 4.0 * scale * 2.0 ** -52:
        raise PrecisionUnachievable(
            f"2^-{l} below double spacing on [{lo}, {hi}]")

    p = Polynomial.from_coeffs(p.coefficients)
    if p.is_zero:
        raise ZeroPolynomial("every point of a zero polynomial is a root")
    if p.degree == 0:
        return []

    g = square_free_part(p)
    if g.degree < 1:
        return []
    chain = sturm_sequence(g)
    span = hi - lo

    a = _nudge_off_root(chain, lo, +1.0, span)
    b = _nudge_off_root(chain, hi, -1.0, span)
    if not a < b:
        return []

    roots = []
    stack = [(a, b, sign_variations(chain, a), sign_variations(chain, b))]
    while stack:
        x0, x1, v0, v1 = stack.pop()
        count = v0 - v1
        if count <= 0:
            continue
        if count == 1 and _sign_at(chain[0], x0) * _sign_at(chain[0], x1) < 0:
            roots.append(_refine_bracket(p, chain[0], x0, x1, radius_target))
            continue
        if x1 - x0 <= 2.0 ** -50 * scale:
            raise PrecisionUnachievable(
                f"cannot separate {count} roots near [{x0}, {x1}]")
        mid = _nudge_off_root(chain, 0.5 * (x0 + x1), +1.0, x1 - x0)
        if not x0 < mid < x1:
            raise PrecisionUnachievable(f"interval collapsed near {x0}")
        vm = sign_variations(chain, mid)
        stack.append((x0, mid, v0, vm))
        stack.append((mid, x1, vm, v1))
    roots.sort(key=lambda r: r.value)
    return roots


def _refine_bracket(p, g_coeffs, a, b, radius_target) -> RootApprox:
    sa = _sign_at(g_coeffs, a)
    while (b - a) * 0.5 > radius_target:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        sm = _sign_at(g_coeffs, mid)
        if sm == 0:
            # landed on the root: both half-brackets work, keep shrinking
            half = min(radius_target, 0.25 * (b - a))
            a, b = mid - half, mid + half
            break
        if sm == sa:
            a = mid
        else:
            b = mid
    value = 0.5 * (a + b)
    radius = max(0.5 * (b - a), 2.0 ** -52)
    crosses = p(value - radius) * p(value + radius) <= 0.0
    return RootApprox(value=value, radius=radius, sign_change=bool(crosses))
