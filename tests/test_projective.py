"""Canonical projective representatives and height-shell enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conic_census import InvalidInputError, ProjPoint, canonicalize, enumerate_base, height


def brute_points(n, T):
    """Oracle: filter every integer vector in the box for canonicality."""
    out = set()
    dim = n + 1

    def rec(prefix):
        if len(prefix) == dim:
            if any(prefix) and math.gcd(*prefix) == 1:
                first = next(c for c in prefix if c != 0)
                if first > 0:
                    out.add(tuple(prefix))
            return
        for c in range(-T, T + 1):
            rec(prefix + [c])

    rec([])
    return out


def totient_count(T):
    """Oracle: #P^1(Q) points of height <= T equals 4 * sum_{q<=T} phi(q)."""
    phi = list(range(T + 1))
    for p in range(2, T + 1):
        if phi[p] == p:  # p prime
            for k in range(p, T + 1, p):
                phi[k] -= phi[k] // p
    return 4 * sum(phi[1 : T + 1])


def test_canonicalize_examples():
    assert canonicalize((Fraction(2, 3), Fraction(4, 9))).coords == (3, 2)
    assert canonicalize((0, -5)).coords == (0, 1)
    assert canonicalize((-4, 6)).coords == (2, -3)
    assert canonicalize((0, 0, 7)).coords == (0, 0, 1)


def test_canonicalize_rejects_zero():
    with pytest.raises(InvalidInputError):
        canonicalize((0, 0))
    with pytest.raises(InvalidInputError):
        canonicalize(())


@given(
    st.lists(st.fractions(max_denominator=40), min_size=2, max_size=4).filter(
        lambda v: any(x != 0 for x in v)
    ),
    st.fractions(max_denominator=12).filter(lambda f: f != 0),
)
def test_canonicalize_scale_invariant(vec, scale):
    a = canonicalize(vec)
    b = canonicalize([scale * v for v in vec])
    assert a == b
    # idempotent and sign-normalised
    assert canonicalize(a.coords) == a
    assert math.gcd(*a.coords) == 1
    assert next(c for c in a.coords if c) > 0


def fraction_canonicalize(raw):
    """Oracle: clear denominators, divide out the gcd, fix the sign."""
    vals = [Fraction(c) for c in raw]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    g = math.gcd(*ints)
    first = next(c for c in ints if c)
    return tuple(c // g * (1 if first > 0 else -1) for c in ints)


def test_canonicalize_int_path_matches_fraction_path():
    import random

    rng = random.Random(41)
    for _ in range(2000):
        n = rng.randint(1, 4)
        ints = [rng.choice((0, rng.randint(-50, 50), rng.randint(-10**30, 10**30))) for _ in range(n)]
        if not any(ints):
            ints[rng.randrange(n)] = rng.choice((-3, 7))
        fracs = [Fraction(c, rng.randint(1, 12)) for c in ints]
        mixed = [c if rng.random() < 0.5 else Fraction(c) for c in ints]
        want = canonicalize([Fraction(c) for c in ints]).coords
        assert canonicalize(ints).coords == want == fraction_canonicalize(ints)
        assert canonicalize(tuple(ints)).coords == want
        assert canonicalize(mixed).coords == want
        assert canonicalize(fracs).coords == fraction_canonicalize(fracs)
    for zero in ((0,), (0, 0, 0), (Fraction(0), 0)):
        with pytest.raises(InvalidInputError):
            canonicalize(zero)


def test_height_of_canonical_rep():
    assert height(canonicalize((Fraction(1, 2), 3))) == 6
    assert ProjPoint((5, -7)).height() == 7


def test_enumeration_height_one():
    got = list(enumerate_base(1, 1))
    assert set(p.coords for p in got) == {(0, 1), (1, 0), (1, 1), (1, -1)}
    assert len(got) == 4


@pytest.mark.parametrize("n,T", [(1, 1), (1, 5), (1, 13), (2, 3), (3, 2)])
def test_enumeration_matches_brute_force(n, T):
    got = [p.coords for p in enumerate_base(n, T)]
    assert len(got) == len(set(got)), "stream has duplicates"
    assert set(got) == brute_points(n, T)


def test_enumeration_order_and_invariants():
    pts = list(enumerate_base(1, 7))
    hs = [p.height() for p in pts]
    assert hs == sorted(hs), "heights must be nondecreasing"
    for h in set(hs):
        shell = [p.coords for p in pts if p.height() == h]
        assert shell == sorted(shell), "lexicographic inside a shell"
    for p in pts:
        assert math.gcd(*p.coords) == 1
        assert next(c for c in p.coords if c) > 0


@pytest.mark.parametrize("T", [1, 2, 10, 50])
def test_p1_count_totient_oracle(T):
    assert sum(1 for _ in enumerate_base(1, T)) == totient_count(T)


def test_p1_count_density():
    # leading term of the point count on P^1 is (12/pi^2) T^2
    T = 300
    got = sum(1 for _ in enumerate_base(1, T))
    expect = 12 / math.pi**2 * T * T
    assert abs(got - expect) / expect < 0.02
