"""Exact height computation, fibre boxes, base bounds."""

import math
import random
from fractions import Fraction

import pytest

from conic_census import (
    HeightModel,
    InvalidInputError,
    base_bound,
    canonicalize,
    fibre_box,
)
from conic_census.arith import nth_root_floor


def make_model(alpha=1):
    return HeightModel(1, (0, 0, 1), 0, alpha)


def height_at_most(model, y, x, bound):
    """Oracle: H*(y; x) = H(y)^A max_j H(y)^(a_j) |x_j| <= bound, decided
    on the q-th powers of both sides as exact rationals (q the
    denominator of A), for canonical y and primitive x."""
    h = Fraction(y.height())
    q = model.A.denominator
    factor = max(h**w * abs(c) for w, c in zip(model.a, x))
    return h ** int(model.A * q) * factor**q <= Fraction(bound) ** q


def test_exponent_A():
    m = make_model(1)
    assert m.A == 2
    m2 = HeightModel(1, (0, 0, 12), 0, 9)
    assert m2.A == -1


def test_threshold_enforced():
    # n = 1 threshold is a0 + a1 + e
    with pytest.raises(InvalidInputError, match="threshold"):
        HeightModel(1, (0, 0, 1), 0, 0)
    with pytest.raises(InvalidInputError, match="threshold"):
        HeightModel(1, (1, 1, 2), 1, 3)  # threshold 3, strict
    HeightModel(1, (1, 1, 2), 1, Fraction(13, 4))  # just above is fine
    # general-base threshold is e + 2(a0+a1+a2)/3
    with pytest.raises(InvalidInputError, match="threshold"):
        HeightModel(2, (0, 1, 1), 1, Fraction(7, 3))
    HeightModel(2, (0, 1, 1), 1, Fraction(8, 3))


def test_fibre_box_example():
    m = make_model(1)
    assert fibre_box(m, canonicalize((1, 3)), 100) == (11, 11, 3)
    assert fibre_box(m, canonicalize((1, 1)), 10**6) == (10**6, 10**6, 10**6)
    # H^(A+a2) = 5^3 > 100: no room for x2 != 0
    assert fibre_box(m, canonicalize((1, 5)), 100)[2] == 0


def test_fibre_box_matches_height_test():
    # |x_j| <= b_j for all j  must be equivalent to  H*(y;x) <= B
    rng = random.Random(9)
    models = [HeightModel(1, (0, 0, 1), 0, alpha) for alpha in (1, Fraction(3, 2), Fraction(5, 4))]
    # weights (0, 0, 12) at alpha = 9 have A = -1: negative exponents
    models.append(HeightModel(1, (0, 0, 12), 0, 9))
    for m in models:
        for _ in range(60):
            y = canonicalize((rng.randint(1, 9), rng.randint(1, 9)))
            for B in (Fraction(rng.randint(50, 4000)), Fraction(12345, 7)):
                box = fibre_box(m, y, B)
                points = [
                    (rng.randint(-14, 14), rng.randint(-14, 14), rng.randint(-6, 6))
                    for _ in range(30)
                ]
                # each side of the box and one step past it
                for j in range(3):
                    for side in (box[j], box[j] + 1):
                        points.append(tuple(side if k == j else 1 for k in range(3)))
                for x in points:
                    if x == (0, 0, 0) or math.gcd(*x) != 1:
                        continue
                    inside = all(abs(x[j]) <= box[j] for j in range(3))
                    assert inside == height_at_most(m, y, x, B)


def test_huge_bounds_stay_exact():
    # a float seed for the q-th root overflowed on all three
    n = 10**400
    r = nth_root_floor(n, 3)
    assert r**3 <= n < (r + 1) ** 3
    m = HeightModel(1, (0, 0, 1), 0, Fraction(4, 3))  # A = 7/3, q = 3
    B = 10**120
    box = fibre_box(m, canonicalize((1, 2)), B)
    for b, p in zip(box, (7, 7, 10)):  # p_j = (A + a_j) q
        assert b**3 * 2**p <= B**3 < (b + 1) ** 3 * 2**p
    T = base_bound(m, 10**150)
    assert T**10 <= 10**450 < (T + 1) ** 10


def test_box_ordering_invariant():
    m = HeightModel(1, (0, 1, 3), 0, 5)  # threshold a0+a1+e = 1
    box = fibre_box(m, canonicalize((2, 3)), 10**5)
    assert box[0] >= box[1] >= box[2]


def test_base_bound_values():
    m = make_model(1)
    assert base_bound(m, 10**6) == 100
    assert base_bound(m, 26) == 2
    assert base_bound(m, 1) == 1
    assert base_bound(m, Fraction(1, 2)) == 0
    # consistency: T = base_bound(B) iff fibre at height T has b2 >= 1
    for B in (7, 26, 27, 63, 64, 1000):
        T = base_bound(m, B)
        assert fibre_box(m, canonicalize((1, T)), B)[2] >= 1
        assert fibre_box(m, canonicalize((1, T + 1)), B)[2] == 0


def test_fractional_alpha_base_bound():
    # A + a2 = 7/2: largest T with T^(7/2) <= 10^6 is T = 51
    m = HeightModel(1, (0, 0, 1), 0, Fraction(3, 2))
    T = base_bound(m, 10**6)
    assert T**7 <= 10**12 < (T + 1) ** 7
