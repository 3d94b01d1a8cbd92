"""Integer helpers shared across the engine.

Everything here is exact: no floats.  The factoring routine is trial
division backed by deterministic Miller-Rabin and Pollard rho, which is
plenty for the discriminants and resultants that show up at desk scale.
"""

from __future__ import annotations

import math

__all__ = [
    "det3",
    "extgcd",
    "nth_root_floor",
    "is_prime",
    "factorize",
    "prime_divisors",
    "valuation",
    "minors_gcd",
    "squarefree_part",
    "sign",
]


def sign(n) -> int:
    return (n > 0) - (n < 0)


def det3(m) -> int:
    """Determinant of a 3x3 integer matrix."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def minors_gcd(m) -> int:
    """gcd of the nine 2x2 minors of a 3x3 integer matrix."""
    g = 0
    for i in range(3):
        r0, r1 = [k for k in range(3) if k != i]
        for j in range(3):
            c0, c1 = [k for k in range(3) if k != j]
            g = math.gcd(g, m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0])
    return g


def extgcd(x: int, y: int) -> tuple[int, int]:
    """(s, t) with s*x + t*y = gcd(x, y) >= 0."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def nth_root_floor(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n, for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("nth_root_floor needs n >= 0, k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    # integer Newton from a power of two above the root: the iterates
    # fall strictly until they reach the floor of the root, then stop
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a tiny prime
    if n % 2 == 0:
        return 2
    for c in range(1, 40):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of |n| as {p: exponent}; 0 and +-1 give {}."""
    n = abs(n)
    out: dict[int, int] = {}
    f = 2
    while f <= 100000 and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    stack = [n]
    while stack:
        m = stack.pop()
        if m < 2:
            continue
        # m has no prime factor below f, so m < f^2 makes it prime
        if m < f * f or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def valuation(n: int, p: int) -> int:
    """Exponent of p in n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def squarefree_part(n: int) -> int:
    """Squarefree integer m with n = m * (square), preserving sign."""
    if n == 0:
        return 0
    m = sign(n)
    for p, e in factorize(n).items():
        if e % 2:
            m *= p
    return m

