"""Exact dyadic polynomials and certified root isolation in (0, 1).

A polynomial is stored as Python ints over one shared power of two, so
every double coefficient converts exactly and sums, products and
derivatives are exact.  Roots in (0, 1) are isolated by
Vincent–Collins–Akritas bisection: Descartes' rule of signs counts the
roots of each dyadic interval, and exact integer sign tests at dyadic
points refine each isolated root to an additive ``2**-l``.  No step
compares a value against a tolerance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import zip_longest

from .errors import DegreeCapExceeded, PrecisionUnachievable, ZeroPolynomial

# Dyadic bracket ends past 2^-52 no longer fit a double's significand.
_MAX_DEPTH = 52


@dataclass(frozen=True)
class Polynomial:
    """``sum(ints[i] * 2**shift * x**i)`` in canonical form: trailing zero
    coefficients trimmed and the common power of two moved into
    ``shift``, so equal polynomials compare and hash equal."""

    ints: tuple
    shift: int

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ints, self.shift))

    @classmethod
    def from_coeffs(cls, coeffs) -> "Polynomial":
        ratios = [float(c).as_integer_ratio() for c in coeffs] or [(0, 1)]
        bits = max(den.bit_length() for _, den in ratios)
        return _canonical([num << (bits - den.bit_length())
                           for num, den in ratios], 1 - bits)

    @cached_property
    def coefficients(self) -> tuple:
        """Float view, ascending degree, each coefficient correctly rounded."""
        if self.shift >= 0:
            return tuple(float(c << self.shift) for c in self.ints)
        den = 1 << -self.shift
        return tuple(c / den for c in self.ints)

    @property
    def is_zero(self) -> bool:
        return self.ints == (0,)

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.ints) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


_ZERO = Polynomial((0,), 0)


def _canonical(ints: list, shift: int) -> Polynomial:
    """Canonical form of ``ints * 2**shift``; trims ``ints`` in place."""
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    low = reduce(operator.or_, ints, 0)
    if low == 0:
        return _ZERO
    zeros = (low & -low).bit_length() - 1
    if zeros:
        ints = [c >> zeros for c in ints]
    return Polynomial(tuple(ints), shift + zeros)


@dataclass(frozen=True)
class RootApprox:
    """One isolated real root: the truth lies within ``value +- radius``.

    ``sign_change`` is False for even-multiplicity touch roots of the
    original polynomial (the bracket is certified on its square-free part).
    """

    value: float
    radius: float
    sign_change: bool


def poly_arith(p: Polynomial, q: Polynomial, op: str, cap: int | None = None) -> Polynomial:
    """Exact add/sub/mul; raises DegreeCapExceeded past ``cap``.

    A product of two canonical nonzero polynomials is already canonical:
    its leading coefficient is nonzero, and modulo 2 both factors are
    nonzero in GF(2)[x], which has no zero divisors, so some coefficient
    of the product is odd.
    """
    if op in ("add", "sub"):
        shift = min(p.shift, q.shift)
        a = p.ints if p.shift == shift else [c << (p.shift - shift)
                                             for c in p.ints]
        b = q.ints if q.shift == shift else [c << (q.shift - shift)
                                             for c in q.ints]
        if op == "add":
            out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
        else:
            out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
        result = _canonical(out, shift)
    elif op == "mul":
        if p.is_zero or q.is_zero:
            return _ZERO
        a, b = p.ints, q.ints
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            out = [c * b[0] for c in a]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
        result = Polynomial(tuple(out), p.shift + q.shift)
    else:
        raise ValueError(f"unknown op {op!r}")
    if cap is not None and result.degree > cap:
        raise DegreeCapExceeded(f"degree {result.degree} exceeds cap {cap}")
    return result


def poly_sub(p, q, cap=None):
    return poly_arith(p, q, "sub", cap)


def poly_mul(p, q, cap=None):
    return poly_arith(p, q, "mul", cap)


def primitive_part(p: Polynomial) -> tuple:
    """The integers of ``p`` over their gcd, the leading one positive:
    the same for ``p`` and ``c * p`` at every nonzero c, ``(0,)`` for zero."""
    ints = p.ints
    div = math.gcd(*ints)
    if ints[-1] < 0:
        div = -div
    if div in (0, 1):
        return ints
    return tuple(c // div for c in ints)


def sign_after_zero(p: Polynomial) -> int:
    """Exact sign of ``p`` on (0, eps) for small eps: the sign of its
    lowest nonzero coefficient, 0 for the zero polynomial."""
    for c in p.ints:
        if c:
            return 1 if c > 0 else -1
    return 0


def derivative(p: Polynomial) -> Polynomial:
    return _canonical([i * c for i, c in enumerate(p.ints)][1:] or [0],
                      p.shift)


def _divmod(a: list, b: list):
    """Exact quotient and remainder of ascending coefficient lists; ``b``
    has a nonzero leading coefficient, and the zero remainder is ``[]``."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        top = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[top] = factor
        for i, c in enumerate(b):
            rem[top + i] -= factor * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def sturm_sequence(p: Polynomial) -> list:
    """Exact Sturm chain of ``p`` as ascending Fraction coefficient lists."""
    chain = [[Fraction(c) for c in p.ints]]
    d = derivative(p)
    if not d.is_zero:
        chain.append([Fraction(c) for c in d.ints])
    while len(chain) > 1:
        _, rem = _divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(values) -> int:
    """Sign changes along ``values``, zeros skipped."""
    count, last = 0, 0
    for v in values:
        sign = (v > 0) - (v < 0)
        if sign:
            count += sign == -last
            last = sign
    return count


def count_roots(chain, lo: float, hi: float) -> int:
    """Number of distinct real roots in (lo, hi] of the chain's polynomial."""
    def variations(x):
        x = Fraction(x)
        return _variations(sum(c * x ** i for i, c in enumerate(q))
                           for q in chain)
    return variations(lo) - variations(hi)


def _square_free(a: list) -> list:
    """Integer multiple of a / gcd(a, a'): the same roots, each simple."""
    g, h = a, [i * c for i, c in enumerate(a)][1:]
    while h:
        g, h = h, _divmod(g, h)[1]
    quot, _ = _divmod(a, g)
    scale = math.lcm(*(c.denominator for c in quot))
    return [int(c * scale) for c in quot]


def _taylor_shift(a: list) -> list:
    """Coefficients of a(x + 1)."""
    a = a[:]
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _sign_at(a: list, num: int, e: int) -> int:
    """Exact sign of ``a`` at the dyadic point ``num / 2**e``."""
    acc = 0
    for j, c in enumerate(reversed(a)):
        acc = acc * num + (c << (e * j))
    return (acc > 0) - (acc < 0)


def _bisect(a: list, l: int, square_free: bool):
    """Dyadic brackets ``(lo, hi, e)`` over ``2**e`` of every root of
    ``a`` in (0, 1), or None when a bracket passes depth ``l`` with two or
    more sign variations and ``a`` is not known to be square-free.

    Each stack entry ``(q, c, k)`` maps the bracket ``(c, c + 1) / 2**k``
    onto (0, 1): ``q(x)`` is ``2**(k d) a((c + x) / 2**k)`` with the roots
    at its left end divided out, so it has the sign of ``a`` on the
    bracket, and ``q(0)`` is nonzero.
    """
    brackets = []
    stack = [(a, 0, 0)]
    while stack:
        q, c, k = stack.pop()
        count = _variations(_taylor_shift(q[::-1]))
        if count == 1:
            brackets.append(_refine(a, q[0] > 0, c, k, l))
            continue
        if count == 0:
            continue
        if not square_free and k >= min(l + 1, _MAX_DEPTH):
            return None
        if k >= _MAX_DEPTH:
            raise PrecisionUnachievable(
                f"cannot separate roots near {c / (1 << k)} within 2^-52")
        d = len(q) - 1
        left = [v << (d - i) for i, v in enumerate(q)]
        right = _taylor_shift(left)
        if right[0] == 0:  # the midpoint is a root
            e = max(l, k + 1) + 1
            mid = (2 * c + 1) << (e - k - 1)
            brackets.append((mid - 1, mid + 1, e))
            while right[0] == 0:
                right.pop(0)
        stack.append((left, 2 * c, k + 1))
        stack.append((right, 2 * c + 1, k + 1))
    return brackets


def _refine(a: list, left_positive: bool, c: int, k: int, l: int):
    """Halve the bracket ``(c, c + 1) / 2**k`` of the single root of ``a``
    until its radius is at most ``2**-l``, stopping early on an exact
    root at a midpoint."""
    while k < l - 1:
        mid = 2 * c + 1
        sign = _sign_at(a, mid, k + 1)
        if sign == 0:
            e = l + 1
            mid <<= e - k - 1
            return mid - 1, mid + 1, e
        c, k = (mid if (sign > 0) == left_positive else 2 * c), k + 1
    return c, c + 1, k


def isolate_roots(p: Polynomial, interval, l: int) -> list:
    """Isolate every real root of ``p`` in the open interval (0, 1).

    Returns one :class:`RootApprox` per distinct root, sorted, with radius
    at most ``2**-l`` (``1 <= l <= 52``).  A root at a dyadic midpoint is
    returned with radius at most ``2**-(l + 1)``.  ``sign_change`` comes
    from the exact signs of ``p`` at both bracket ends.  Every sign test
    is unchanged when ``p`` is scaled by a nonzero constant, so the result
    depends on :func:`primitive_part` of ``p`` only.
    """
    if tuple(map(float, interval)) != (0.0, 1.0):
        raise ValueError(f"roots are isolated in (0, 1) only, not {interval}")
    if l < 1:
        raise ValueError("l must be >= 1")
    if l > _MAX_DEPTH:
        raise PrecisionUnachievable(
            f"2^-{l} is below double spacing on (0, 1)")
    if p.is_zero:
        raise ZeroPolynomial("every point of a zero polynomial is a root")
    a = list(p.ints)
    while a[0] == 0:
        a.pop(0)
    if not _variations(a):
        return []  # Descartes: no sign change, no positive root
    brackets = _bisect(a, l, False)
    if brackets is None:
        brackets = _bisect(_square_free(a), l, True)
    roots = []
    for lo, hi, e in brackets:
        scale = 1 << (e + 1)
        roots.append(RootApprox(
            value=(lo + hi) / scale, radius=(hi - lo) / scale,
            sign_change=_sign_at(a, lo, e) * _sign_at(a, hi, e) <= 0))
    roots.sort(key=lambda r: r.value)
    return roots
