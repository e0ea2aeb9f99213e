import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from auditgames.errors import (
    DegreeCapExceeded,
    PrecisionUnachievable,
    ZeroPolynomial,
)
from auditgames.poly import (
    Polynomial,
    _canonical,
    count_roots,
    isolate_roots,
    poly_arith,
    poly_mul,
    sturm_sequence,
)

P = Polynomial.from_coeffs


def from_roots(roots, scale=1.0):
    poly = P((scale,))
    for r in roots:
        poly = poly_mul(poly, P((-r, 1.0)))
    return poly


def test_difference_of_squares():
    assert poly_mul(P((1.0, 1.0)), P((-1.0, 1.0))).coefficients == (-1.0, 0.0, 1.0)
    # scaling by a constant gives the canonical form of the plain product
    scaled = poly_mul(P((0.5,)), P((2.0, 4.0)))
    assert scaled == P((1.0, 2.0))
    assert hash(scaled) == hash(P((1.0, 2.0)))


def test_expansion():
    got = poly_mul(P((0.3, 1.0)), P((0.7, 1.0)))
    assert np.allclose(got.coefficients, (0.21, 1.0, 1.0))
    exact = poly_mul(P((0.1, 1.0)), P((0.2, 1.0)))
    a, b = Fraction(0.1), Fraction(0.2)
    assert [Fraction(c) * Fraction(2) ** exact.shift
            for c in exact.ints] == [a * b, a + b, 1]


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        poly_arith(P((0, 0, 1.0)), P((0, 0, 1.0)), "mul", cap=3)


def test_isolate_simple_root():
    roots = isolate_roots(P((-0.25, 0.0, 1.0)), (0.0, 1.0), 20)
    assert len(roots) == 1
    assert abs(roots[0].value - 0.5) <= 2.0 ** -20
    assert roots[0].sign_change


def test_isolate_two_constructed_roots():
    p = from_roots([0.3, 0.7])
    roots = isolate_roots(p, (0.0, 1.0), 30)
    assert len(roots) == 2
    assert abs(roots[0].value - 0.3) <= 2.0 ** -30
    assert abs(roots[1].value - 0.7) <= 2.0 ** -30


def test_isolate_no_real_roots():
    assert isolate_roots(P((1.0, 0.0, 1.0)), (0.0, 1.0), 20) == []


def test_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        isolate_roots(P((0.0,)), (0.0, 1.0), 10)


def test_even_multiplicity_touch_root():
    p = poly_mul(P((-0.4, 1.0)), P((-0.4, 1.0)))  # (x - 0.4)^2
    roots = isolate_roots(p, (0.0, 1.0), 20)
    assert len(roots) == 1
    assert abs(roots[0].value - 0.4) <= 2.0 ** -18  # sqfree flattening costs bits
    assert not roots[0].sign_change
    # dyadic roots that bisection hits exactly at a midpoint
    for planted, touches in (([0.5, 0.5], True), ([0.5, 0.5, 0.5], False),
                             ([0.25, 0.5], False)):
        roots = isolate_roots(from_roots(planted), (0.0, 1.0), 20)
        assert [r.value for r in roots] == sorted(set(planted))
        for r in roots:
            assert 0.0 < r.radius <= 2.0 ** -20
            assert r.sign_change is not touches


def test_sturm_count_matches_numpy_roots():
    rng = np.random.default_rng(12)
    for _ in range(120):
        deg = int(rng.integers(1, 13))
        n_in = int(rng.integers(0, min(deg, 5) + 1))
        rs = sorted(rng.uniform(0.02, 0.98, n_in))
        if any(b - a < 1e-3 for a, b in zip(rs, rs[1:])):
            continue
        outside = list(rng.uniform(1.1, 3.0, deg - n_in))
        p = from_roots(list(rs) + outside)
        chain = sturm_sequence(p)
        assert count_roots(chain, 0.0, 1.0) == n_in
        found = isolate_roots(p, (0.0, 1.0), 20)
        assert len(found) == n_in
        for want, got in zip(rs, found):
            assert abs(got.value - want) <= 2.0 ** -20 + 1e-9


def test_bracketing_invariant():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rs = np.unique(np.round(rng.uniform(0.05, 0.95, 3), 2))
        if len(rs) < 1:
            continue
        p = from_roots(rs)
        for root in isolate_roots(p, (0.0, 1.0), 20):
            lo = p(root.value - root.radius)
            hi = p(root.value + root.radius)
            assert lo * hi <= 0.0 or not root.sign_change


def test_precision_up_to_52_bits():
    planted = [0.1, 0.3, 0.30001, 0.85]
    p = from_roots(planted + [1.7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for l in (45, 52):
            roots = isolate_roots(p, (0.0, 1.0), l)
            assert len(roots) == len(planted)
            for want, got in zip(planted, roots):
                assert got.radius <= 2.0 ** -l
                assert abs(got.value - want) <= 2.0 ** -l
    with pytest.raises(PrecisionUnachievable):
        isolate_roots(p, (0.0, 1.0), 53)


def _planted(rng):
    """A random polynomial with roots planted in (0, 1), some of them
    dyadic, and a random scale."""
    roots = [float(r) for r in rng.uniform(0.01, 0.99, int(rng.integers(1, 5)))]
    roots += [int(rng.integers(1, 16)) / 16 for _ in range(rng.integers(0, 3))]
    roots += [float(r) for r in rng.uniform(1.05, 3.0, int(rng.integers(0, 3)))]
    return from_roots(roots, scale=float(rng.uniform(-4.0, 4.0)) or 1.0)


def test_isolation_ignores_a_constant_factor():
    rng = np.random.default_rng(21)
    for _ in range(150):
        p = _planted(rng)
        l = int(rng.integers(1, 53))
        want = isolate_roots(p, (0.0, 1.0), l)
        for c in (-7, -0.1, 3, 1e-3, 12345):
            scaled = poly_mul(P((c,)), p)
            assert scaled.ints != p.ints
            assert isolate_roots(scaled, (0.0, 1.0), l) == want


def test_product_of_canonical_factors_is_canonical():
    rng = np.random.default_rng(22)
    for _ in range(300):
        p, q = _planted(rng), _planted(rng)
        if rng.random() < 0.3:
            q = P(tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 4)))))
        school = [0] * (len(p.ints) + len(q.ints) - 1)
        for i, a in enumerate(p.ints):
            for j, b in enumerate(q.ints):
                school[i + j] += a * b
        want = _canonical(school, p.shift + q.shift)
        got = poly_mul(p, q)
        assert got == want
        assert hash(got) == hash(want)
    zero = P((0.0,))
    for p in (P((3.0, -1.0, 0.5)), P((0.25,)), zero):
        assert poly_mul(p, zero) == zero == poly_mul(zero, p)
        assert poly_mul(p, zero, cap=0).is_zero
    with pytest.raises(DegreeCapExceeded):
        poly_mul(P((1.0, 1.0)), P((0.5, 0.0, 3.0)), cap=2)
