"""Reference computations the benchmark checks the engine against.

Nothing here imports conic_census: the surfaces' Gram matrices, the
fibre boxes, solubility, point counts and local densities are written
out again from their definitions, by the slowest method that is still
affordable on the inputs the benchmark hands them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# base points of P^1


def base_point_count(t: int) -> int:
    """Points of P^1(Q) with height <= t: 4 * sum of phi(h) for h <= t.

    Each height h >= 2 contributes (h : k), (k : h) and (k : -h) with
    0 < k < h coprime to h, plus (h : -k) -- 4 phi(h) in all -- and
    height 1 contributes (0:1), (1:0), (1:1), (1:-1).
    """
    phi = list(range(t + 1))
    for p in range(2, t + 1):
        if phi[p] == p:
            for k in range(p, t + 1, p):
                phi[k] -= phi[k] // p
    return 4 * sum(phi[1:])


def prime_factors(n: int) -> dict[int, int]:
    """Exponents of the primes dividing |n| > 0, by trial division."""
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# the two surfaces, written out from their definitions


def two_squares_gram(y) -> tuple:
    """x0^2 + x1^2 - y0 y1 x2^2."""
    y0, y1 = y
    return ((1, 0, 0), (0, 1, 0), (0, 0, -y0 * y1))


def mixed_gram(y) -> tuple:
    """The dense Gram matrix of mixed_bundle at (s : t)."""
    s, t = y
    f01, f02 = s + t, s - t
    f12 = s * t - t * t
    return (
        (-1, f01, f02),
        (f01, s * t + t * t, f12),
        (f02, f12, -s * s + s * t - t * t),
    )


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def fibre_box(bound: int, h: int, exponents) -> tuple[int, int, int]:
    """b_j = floor(B / H^(A + a_j)) for integral exponents A + a_j."""
    return tuple(bound // h**k for k in exponents)


# Exponents A + a_j of the two benchmark models: two_squares at alpha = 1
# (A = 2, weights (0, 0, 1)) and mixed_bundle at alpha = 2 (A = 2,
# weights (0, 1, 1)).
TWO_SQUARES_EXPONENTS = (2, 2, 3)
MIXED_EXPONENTS = (2, 3, 3)


def smooth_points(t: int, gram) -> list:
    """Canonical points of P^1 (coprime, first nonzero coordinate
    positive) with height <= t and a smooth fibre, shell by shell."""
    pts = []
    for h in range(1, t + 1):
        shell = [(k, s * h) for k in range(h) for s in (1, -1) if k or s > 0]
        shell += [(h, k) for k in range(-h, h + 1)]
        pts += [y for y in shell if math.gcd(*y) == 1 and det3(gram(y)) != 0]
    return pts


# ---------------------------------------------------------------------------
# x0^2 + x1^2 = y0 y1 x2^2


def two_squares_soluble(y) -> bool:
    """Two-squares theorem: t = y0 y1 > 0 and every prime 3 mod 4 divides
    t to an even power."""
    t = y[0] * y[1]
    return t > 0 and all(e % 2 == 0 for p, e in prime_factors(t).items() if p % 4 == 3)


def two_squares_admissible(y) -> bool:
    """y0 y1 > 0 squarefree with every prime 1 mod 4."""
    t = y[0] * y[1]
    return t > 0 and all(e == 1 and p % 4 == 1 for p, e in prime_factors(t).items())


def two_squares_constant(y) -> float:
    """Closed-form constant at alpha = 1 on an admissible fibre:
    8 / (pi H(y)^3) * prod over p | y0 y1 of 2p / (p + 1)."""
    h = max(abs(c) for c in y)
    primes = prime_factors(y[0] * y[1])
    return 8.0 / (math.pi * h**3) * math.prod(2 * p / (p + 1) for p in primes)


# ---------------------------------------------------------------------------
# brute-force point count in a box


def box_cells(box) -> int:
    """Cells a full scan of the box visits: (2 b0 + 1)(2 b1 + 1) b2."""
    b0, b1, b2 = box
    return (2 * b0 + 1) * (2 * b1 + 1) * b2


def brute_count(m, box) -> int:
    """Primitive integer zeros of x^T m x with |x_j| <= b_j and x2 != 0,
    x and -x counted apart, found by testing every cell of the box."""
    b0, b1, b2 = box
    top = max(b0, b1, b2)
    if 9 * max(abs(v) for row in m for v in row) * top * top >= 1 << 62:
        raise ValueError("box too large for int64 evaluation")
    x0 = np.arange(-b0, b0 + 1, dtype=np.int64)[:, None]
    x1 = np.arange(-b1, b1 + 1, dtype=np.int64)[None, :]
    part = m[0][0] * x0 * x0 + 2 * m[0][1] * x0 * x1 + m[1][1] * x1 * x1
    g01 = np.gcd(x0, x1)
    found = 0
    for x2 in range(1, b2 + 1):
        q = part + (2 * m[0][2] * x2) * x0 + (2 * m[1][2] * x2) * x1 + m[2][2] * x2 * x2
        found += int(np.count_nonzero((q == 0) & (np.gcd(g01, x2) == 1)))
    return 2 * found


# ---------------------------------------------------------------------------
# p-adic density by enumeration


def sigma_p_level(m, p: int) -> int:
    """A level K from which N(p^k) / p^(2k) no longer changes.

    A primitive zero x has gradient 2 m x with valuation
    w <= v_p(2) + v_p(det m), since adj(m) m x = det(m) x; Hensel's lemma
    makes every class lift p^2-fold once k >= 2 w + 1.
    """
    d = det3(m)
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return 2 * (v + (p == 2)) + 1


def count_zeros_mod(m, p: int, k: int) -> int:
    """N(p^k): x mod p^k, not all coordinates divisible by p, with
    x^T m x = 0 mod p^k, by visiting all p^(3k) residues."""
    q = p**k
    mr = [[v % q for v in row] for row in m]
    r = np.arange(q, dtype=np.int64)
    x0, x1 = r[:, None], r[None, :]
    part = (mr[0][0] * x0 * x0 + 2 * mr[0][1] * x0 * x1 + mr[1][1] * x1 * x1) % q
    unit01 = (x0 % p != 0) | (x1 % p != 0)
    total = 0
    for x2 in range(q):
        val = (part + (2 * mr[0][2] * x2) * x0 + (2 * mr[1][2] * x2) * x1 + mr[2][2] * x2 * x2) % q
        hit = val == 0
        if x2 % p == 0:
            hit &= unit01
        total += int(np.count_nonzero(hit))
    return total


def sigma_p_enumerated(m, p: int) -> Fraction:
    k = sigma_p_level(m, p)
    return Fraction(count_zeros_mod(m, p, k), p ** (2 * k))
