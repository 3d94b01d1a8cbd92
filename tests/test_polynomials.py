"""Exact homogeneous polynomial arithmetic."""

import random

import pytest

from conic_census import InvalidInputError, MultiPoly
from conic_census.bundle import discriminant
from conic_census.models import difference_of_squares_bundle, mixed_bundle, two_squares_bundle
from conic_census.polynomials import (
    binary_to_univariate,
    univ_derivative,
    univ_gcd_degree,
    univ_degree,
)


def test_construction_and_degree_guard():
    p = MultiPoly(2, 2, {(2, 0): 1, (1, 1): -3})
    assert p.degree == 2 and p.terms == {(2, 0): 1, (1, 1): -3}
    with pytest.raises(InvalidInputError):
        MultiPoly(2, 2, {(1, 0): 1})  # not homogeneous of declared degree
    z = MultiPoly.zero(3, 5)
    assert z.is_zero() and z.degree == 5


def test_ring_ops_match_pointwise_evaluation():
    rng = random.Random(7)
    for _ in range(40):
        a = MultiPoly(2, 2, {(2, 0): rng.randint(-5, 5), (1, 1): rng.randint(-5, 5), (0, 2): rng.randint(-5, 5)})
        b = MultiPoly(2, 2, {(2, 0): rng.randint(-5, 5), (1, 1): rng.randint(-5, 5), (0, 2): rng.randint(-5, 5)})
        pt = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert (a - b).eval(pt) == a.eval(pt) - b.eval(pt)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (3 * a).eval(pt) == 3 * a.eval(pt)


def test_partial_derivative():
    # d/dy0 (y0^2 y1 + y1^3) = 2 y0 y1
    p = MultiPoly(2, 3, {(2, 1): 1, (0, 3): 1})
    assert p.partial(0) == MultiPoly(2, 2, {(1, 1): 2})
    assert p.partial(1) == MultiPoly(2, 2, {(2, 0): 1, (0, 2): 3})


def test_compose_linear():
    # p(z0, z1) = z0 * z1 under z0 -> w0 + w1, z1 -> w0 - w1 gives w0^2 - w1^2
    p = MultiPoly(2, 2, {(1, 1): 1})
    q = p.compose_linear([[1, 1], [1, -1]])
    assert q == MultiPoly(2, 2, {(2, 0): 1, (0, 2): -1})


def test_min_exponent_and_pretty():
    p = MultiPoly(2, 3, {(1, 2): 2, (2, 1): -1})
    assert p.min_exponent(0) == 1
    assert p.pretty() == "-y0^2*y1 + 2*y0*y1^2"


def test_univariate_helpers():
    # y0 y1 (y0 - y1): dehomogenised u - u^2, derivative 1 - 2u, coprime
    d = binary_to_univariate(MultiPoly(2, 3, {(2, 1): 1, (1, 2): -1}))
    assert d == [0, 1, -1]
    assert univ_degree(d) == 2
    # u(1-u) is squarefree: coprime to its derivative
    assert univ_gcd_degree(d, univ_derivative(d)) == 0
    # (u-1)^2 shares the factor (u-1) with its derivative
    sq = [1, -2, 1]
    assert univ_gcd_degree(sq, univ_derivative(sq)) == 1
    coprime = [2, 0, 1]  # u^2 + 2
    assert univ_gcd_degree(coprime, univ_derivative(coprime)) == 0


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_gcd_degree_matches_sympy():
    # sympy's gcd over Q is the oracle: seeded products sharing a forced
    # factor, each polynomial against its derivative, and the bundles'
    # discriminants (difference_of_squares_bundle(12)'s has degree 23)
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")

    def oracle(f, g):
        pf, pg = sympy.Poly(f[::-1], u), sympy.Poly(g[::-1], u)
        return -1 if pf.is_zero and pg.is_zero else sympy.degree(sympy.gcd(pf, pg), u)

    rng = random.Random(19)
    pairs = []
    for _ in range(150):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        h = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        pairs += [(_times(f, h), _times(g, h)), (f, univ_derivative(f))]
        sq = _times(_times(f, h), h)
        pairs.append((sq, univ_derivative(sq)))
    for make in (two_squares_bundle, mixed_bundle, lambda: difference_of_squares_bundle(12)):
        d = binary_to_univariate(discriminant(make()))
        pairs.append((d, univ_derivative(d)))
    assert univ_degree(pairs[-1][0]) == 23
    for f, g in pairs:
        assert univ_gcd_degree(f, g) == oracle(f, g), (f, g)
