"""Local densities sigma_p and sigma_inf, Tamagawa numbers, Peyre constants.

The p-adic density of a fibre conic is the limit N(p^n)/p^(2n), where
N(p^n) counts solutions x mod p^n with x not identically 0 mod p.  It
depends only on the Z_p-class of the Gram matrix, and a short recursion
on the Jordan splitting over Z_p gives it exactly; the lift-and-count
tree of count_points_mod is its reference oracle.  The archimedean
density integrates the line density along the real conic in the chart
x2 = 1 against the fibre height; a rational parametrization turns it
into a finite sum of elementary integrals.  The Tamagawa number closes
the good-prime tail with the exact Euler product 6/pi^2.

The public functions keep a rel_tol parameter for the callers that pass
it; sigma_inf is exact up to rounding, so it is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .arith import det3, is_prime, valuation
from .bundle import FibreClass
from .conics import TernaryForm, _as_form, _legendre, _smooth_fibre, is_soluble
from .errors import InvalidInputError
from .heights import HeightModel
from .projective import height as base_height

__all__ = [
    "FibreReport",
    "count_points_mod",
    "fibre_report",
    "peyre_constant",
    "sigma_inf",
    "sigma_inf_weights",
    "sigma_p",
    "tamagawa",
]

# ---------------------------------------------------------------------------
# p-adic side
#
# sigma_p depends only on the Z_p-class of M.  Over Z_p, M splits into
# Jordan blocks p^k [c]: at odd p, c is recorded by its Legendre class
# +-1; at p = 2, c is an odd unit mod 8, or c = 0, 2 marks the 2x2 block
# 2^k [[c, 1], [1, c]].  The density of the zeros whose coordinates in
# the marked blocks S are not all 0 mod p (all blocks at the start)
# splits by U, the coordinates in blocks with k = 0:
#
# * A-step: zeros with x_U != 0 mod p.  At odd p the gradient is then a
#   unit vector, so each zero mod p weighs p^-2.  At p = 2 it has
#   valuation exactly 1, so a class x mod 8 with 16 | Q(x) weighs
#   2^(1 - 2*3) = 1/32 and the other classes hold no zero.
# * B-step: x_U = p y_U gives Q = p Q', with exponent 1 on U and k - 1
#   elsewhere, the marks of S - U, and the weight p^(|rest| - 2).
#
# Each step shrinks S or lowers the exponents on S, so the recursion ends.


def _jordan(m, p) -> list[tuple[int, int]]:
    """Jordan blocks (k, c) of the Gram matrix m over Z_p, as above.

    Elimination mod p^(v_p(det) + 3) on an entry of least valuation: a
    diagonal one; else, at odd p, the diagonal that x_i -> x_i + x_j
    makes of an off-diagonal one, and at p = 2 the 2x2 block around it.
    Dividing by a pivot p^k u only multiplies entries divisible by p^k
    with u^-1, so no precision is lost, and every k is at most v_p(det).
    """
    n = valuation(det3(m), p) + 3
    mod = p**n
    a = [[v % mod for v in row] for row in m]

    def val(x):
        return valuation(x, p) if x else n

    left, blocks = [0, 1, 2], []
    while left:
        k, i = min((val(a[i][i]), i) for i in left)
        off = [(val(a[i][j]), i, j) for i in left for j in left if i < j]
        if off and min(off)[0] < k:
            k, i, j = min(off)
            if p == 2:
                piv = (i, j)
            else:
                row = [a[i][l] + a[j][l] for l in range(3)]
                row[i] += a[i][j] + a[j][j]
                for l in left:
                    a[i][l] = a[l][i] = row[l] % mod
                piv = (i,)
        else:
            piv = (i,)
        q = p**k
        left = [l for l in left if l not in piv]
        w = {r: [a[r][c] // q for c in piv] for r in left}
        if len(piv) == 1:
            u = a[i][i] // q
            blocks.append((k, u % 8 if p == 2 else _legendre(u, p)))
            inv = pow(u, -1, mod)
            for r in left:
                for s in left:
                    a[r][s] = (a[r][s] - w[r][0] * w[s][0] * inv * q) % mod
        else:
            # 2^k [[x, b], [b, z]] with x, z even and b odd is equivalent
            # to 2^k [[0, 1], [1, 0]] exactly when xz/4 is even
            x, b, z = a[i][i] // q, a[i][j] // q, a[j][j] // q
            blocks.append((k, x * z // 2 % 4))
            inv = pow(x * z - b * b, -1, mod)
            for r in left:
                for s in left:
                    (ri, rj), (si, sj) = w[r], w[s]
                    cross = z * ri * si - b * (ri * sj + rj * si) + x * rj * sj
                    a[r][s] = (a[r][s] - cross * inv * q) % mod
    return blocks


def _zeros_mod_p(p, units) -> int:
    """Nonzero zeros over F_p of the diagonal form with unit classes units."""
    if len(units) == 3:
        return p * p - 1
    if len(units) == 2:
        return (p - 1) * (1 + (-1) ** (p // 2) * units[0] * units[1])
    return 0


@lru_cache(maxsize=None)  # finitely many keys: exponents clipped at 4
def _settled_mod16(blocks) -> int:
    """Classes x mod 8 with x_U odd somewhere, x_S odd somewhere and 16 | Q(x)."""
    hits = 0
    for x in product(range(8), repeat=3):
        q, pos, unit, marked = 0, 0, False, False
        for k, c, s in blocks:
            if c & 1:
                y = x[pos : pos + 1]
                q += c * y[0] * y[0] << k
            else:
                y = x[pos : pos + 2]
                q += c * (y[0] * y[0] + y[1] * y[1]) + 2 * y[0] * y[1] << k
            pos += len(y)
            odd = any(v & 1 for v in y)
            unit |= odd and k == 0
            marked |= odd and s
        hits += unit and marked and q % 16 == 0
    return hits


@lru_cache(maxsize=1 << 14)
def _jordan_density(p, blocks) -> Fraction:
    """Density of the zeros of the blocks (k, c, marked) whose marked
    coordinates are not all 0 mod p."""
    if not any(s for _, _, s in blocks):
        return Fraction(0)
    rest = sum(2 if p == 2 and c % 2 == 0 else 1 for k, c, _ in blocks if k)
    if p == 2:
        clipped = tuple((min(k, 4), c, s) for k, c, s in blocks)
        total = Fraction(_settled_mod16(clipped), 32)
    else:
        units = [c for k, c, _ in blocks if k == 0]
        free = [c for k, c, s in blocks if k == 0 and not s]
        free_rest = sum(1 for k, _, s in blocks if k and not s)
        hits = _zeros_mod_p(p, units) * p**rest - _zeros_mod_p(p, free) * p**free_rest
        total = Fraction(hits, p * p)
    shifted = tuple(sorted((k - 1, c, s) if k else (1, c, False) for k, c, s in blocks))
    return total + Fraction(p**rest, p * p) * _jordan_density(p, shifted)


def _sigma_p_gram(m, p) -> Fraction:
    """sigma_p of the Gram matrix m, from its Jordan splitting over Z_p."""
    return _jordan_density(p, tuple(sorted((k, c, True) for k, c in _jordan(m, p))))


def count_points_mod(form, p: int, n: int) -> int:
    """Exact N(p^n): solutions of Q = 0 mod p^n with x not 0 mod p.

    Counted by lift-and-count, the reference oracle for sigma_p.
    """
    from ._lifttree import level_count

    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if n < 1:
        raise InvalidInputError("level must be at least 1")
    return level_count(_as_form(form).matrix, p, n)


def sigma_p(surface, y, p: int) -> Fraction:
    """p-adic density of the fibre over y, an exact rational."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    fc, _ = _smooth_fibre(surface, None, y)
    return _sigma_p_gram(fc.gram, p)


# ---------------------------------------------------------------------------
# archimedean side
#
# Through a real point P of the conic, the line with direction
# d(t) = t e_a + e_b meets the conic again at phi(t) = Q(d) P - 2 (P.M d) d;
# e_a, e_b are the unit vectors other than e_k, where |P_k| is the largest
# coordinate of P, so d(t) never points at P.  Then
# phi x phi' = 2 det[P, e_a, e_b] M phi = +-2 P_k M phi, and in the chart
# x2 = 1 the density dx0 / (H |dQ/dx1|) becomes |P_k| dt / max_j w_j |phi_j|.
# Between consecutive real roots of the six quadratics w_i phi_i +- w_j phi_j
# one |w_j phi_j| is the largest and phi_j keeps its sign, so sigma_inf is
# a finite sum of integrals of reciprocal quadratics.

# Relative accuracy of sigma_inf_weights, as certified against 40-digit
# quadrature in tests/test_localdata.py (for weight ratios up to 2000).
SIGMA_INF_REL_ERR = 1e-12


def _real_point(m, det):
    """A real zero of Q as three floats, or None when Q is definite.

    The zero lies on an integer line: a coordinate plane (e_i, e_j) with
    D = m_ij^2 - m_ii m_jj >= 0, or else, when every principal 2x2 minor
    is positive (Sylvester: Q is then definite iff m_00 det > 0), the
    line (e_0, adj(M) e_0), on which D = det (det - m_00 minor_00) > 0.
    So sqrt(D) is the one inexact step, taken with the sign that does
    not cancel.
    """
    for i, j in ((0, 1), (0, 2), (1, 2)):
        qa, qb, qc = m[i][i], m[i][j], m[j][j]
        if qb * qb >= qa * qc:
            v = [int(c == j) for c in range(3)]
            break
    else:
        if m[0][0] * det > 0:
            return None
        i = 0
        v = [
            m[1][1] * m[2][2] - m[1][2] * m[1][2],
            m[0][2] * m[1][2] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ]
        qa, qb, qc = m[0][0], det, det * v[0]
    # Q(s e_i + r v) = qa s^2 + 2 qb s r + qc r^2 vanishes at
    # (s, r) = (-qb -+ sqrt(D), qa)
    if qa == 0:
        return tuple(float(c == i) for c in range(3))
    p = [qa * c for c in v]
    p[i] -= qb
    p[i] += math.copysign(math.sqrt(qb * qb - qa * qc), p[i])
    return tuple(float(c) for c in p)


def _real_roots(a, b, c):
    """Real roots of a t^2 + b t + c, by the cancellation-free formula."""
    if a == 0:
        return (-c / b,) if b else ()
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return ()
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return (q / a, c / q) if q else (0.0,)


def _reciprocal_integral(a, b, c, u, v):
    """|Integral over [u, v] of dt / (a t^2 + b t + c)|, for u < v.

    The interval may be unbounded but holds no root.  Each case works
    from the factored form: an atan2 of the endpoint offsets from the
    centre of complex roots, and for real roots r1 < r2 the log of
    R = (v - r2)(u - r1) / ((v - r1)(u - r2)), as log1p(R - 1) when
    |R - 1| < 1/2.
    """
    roots = _real_roots(a, b, c)
    if not roots:
        if a == 0:
            return (v - u) / abs(c)
        h = -b / (2.0 * a)
        q = math.sqrt(4.0 * a * c - b * b) / (2.0 * abs(a))
        if u == -math.inf:
            theta = math.pi if v == math.inf else math.atan2(q, h - v)
        elif v == math.inf:
            theta = math.atan2(q, u - h)
        else:
            theta = math.atan2((v - u) * q, q * q + (u - h) * (v - h))
        return theta / (abs(a) * q)
    # r2 = inf stands for the missing root of a linear denominator
    r1, r2 = (min(roots), max(roots)) if a else (roots[0], math.inf)
    if r1 == r2:
        return abs(1.0 / (u - r1) - 1.0 / (v - r1)) / abs(a)
    # R - 1 = (v - u)(r2 - r1) / ((v - r1)(u - r2)); each endpoint's
    # factor tends to 1 as the endpoint runs off
    if r2 == math.inf:
        x, ratio = (v - u) / (u - r1), (v - r1) / (u - r1)
    elif u == -math.inf:
        x, ratio = (r1 - r2) / (v - r1), (v - r2) / (v - r1)
    elif v == math.inf:
        x, ratio = (r2 - r1) / (u - r2), (u - r1) / (u - r2)
    else:
        x = (v - u) * (r2 - r1) / ((v - r1) * (u - r2))
        ratio = (v - r2) * (u - r1) / ((v - r1) * (u - r2))
    scale = abs(a) * (r2 - r1) if a else abs(b)
    return abs(math.log1p(x) if abs(x) < 0.5 else math.log(ratio)) / scale


def sigma_inf_weights(form, weights, rel_tol: float = 1e-8) -> float:
    """Real density of the conic against the height max_j(w_j |x_j|).

    The integral of dx0 / (H(x) |dQ/dx1|) over the real locus in the
    chart x2 = 1, summed in closed form over the pieces described above;
    0 for an empty real locus.
    """
    f = _as_form(form)
    w = tuple(float(v) for v in weights)
    if not all(0.0 < v < math.inf for v in w):
        raise InvalidInputError("height weights must be positive and finite")
    m = f.matrix
    p = _real_point(m, f.det)
    if p is None:
        return 0.0
    k = max(range(3), key=lambda i: abs(p[i]))
    a, b = (i for i in range(3) if i != k)
    ga, gb = (sum(m[i][c] * p[c] for c in range(3)) for i in (a, b))
    # phi_j = Q(d) p_j - 2 (ga t + gb) d_j, coefficients of t^2, t, 1
    shift = {a: (ga, gb, 0.0), b: (0.0, ga, gb), k: (0.0, 0.0, 0.0)}
    qd = (m[a][a], 2 * m[a][b], m[b][b])
    phi = [[q * p[j] - 2.0 * s for q, s in zip(qd, shift[j])] for j in range(3)]
    wphi = [[w[j] * c for c in phi[j]] for j in range(3)]
    cuts = sorted({
        t
        for i, j in ((0, 1), (0, 2), (1, 2))
        for s in (1.0, -1.0)
        for t in _real_roots(*(x + s * y for x, y in zip(wphi[i], wphi[j])))
    })
    # one point inside each piece, where the largest |w_j phi_j| is read off
    probes = [0.5 * (u + v) for u, v in zip(cuts, cuts[1:])]
    if cuts:
        probes = [cuts[0] - 1.0 - abs(cuts[0]), *probes, cuts[-1] + 1.0 + abs(cuts[-1])]
    edges = [-math.inf, *cuts, math.inf]
    total = 0.0
    for u, v, t in zip(edges, edges[1:], probes or [0.0]):
        j = max(range(3), key=lambda i: abs((wphi[i][0] * t + wphi[i][1]) * t + wphi[i][2]))
        total += _reciprocal_integral(*phi[j], u, v) / w[j]
    return abs(p[k]) * total


def _archimedean_weights(model: HeightModel, y) -> tuple[float, float, float]:
    h = base_height(y)
    return tuple(float(h) ** float(model.A + a_j) for a_j in model.a)


def sigma_inf(surface, model: HeightModel, y, rel_tol: float = 1e-8) -> float:
    """Archimedean density of the fibre over y for the model height."""
    fc, form = _smooth_fibre(surface, model, y)
    return sigma_inf_weights(form, _archimedean_weights(model, fc.y))


# ---------------------------------------------------------------------------
# Tamagawa number and the Peyre constant


def _local_product(fc: FibreClass, form: TernaryForm, model: HeightModel):
    """(sigma_inf, {p: sigma_p for p | 2 disc}, tau) of one smooth fibre.

    tau = sigma_inf * (6/pi^2) * prod_p sigma_p p^2/(p^2 - 1), the
    rational product taken in ascending prime order and converted to a
    float once, so every caller gets the same bits.
    """
    s_inf = sigma_inf_weights(form, _archimedean_weights(model, fc.y))
    locals_ = {p: _sigma_p_gram(form.matrix, p) for p in form.bad_primes}
    ratio = Fraction(1)
    for p, s in locals_.items():
        ratio *= s * Fraction(p * p, p * p - 1)
    return s_inf, locals_, s_inf * (6.0 / math.pi**2) * float(ratio)


def tamagawa(surface, model: HeightModel, y, rel_tol: float = 1e-8) -> float:
    """sigma_inf * (6/pi^2) * prod over p | 2 disc of sigma_p/(1 - p^-2).

    The infinite product over good primes is folded into the closed
    value prod_p (1 - p^-2) = 6/pi^2 and the bad Euler factors are exact
    rationals, so the closed-form sigma_inf carries the only rounding
    error.
    """
    fc, form = _smooth_fibre(surface, model, y)
    return _local_product(fc, form, model)[2]


def _peyre_constant(fc: FibreClass, form: TernaryForm, model: HeightModel) -> float:
    if not is_soluble(form):
        return 0.0
    return _local_product(fc, form, model)[2]


def peyre_constant(surface, model: HeightModel, y, rel_tol: float = 1e-8) -> float:
    """Predicted leading constant of the fibre count: tau, or 0 if insoluble."""
    fc, form = _smooth_fibre(surface, model, y)
    return _peyre_constant(fc, form, model)


@dataclass(frozen=True)
class FibreReport:
    """Everything local the engine knows about one smooth fibre."""

    y: tuple
    soluble: bool
    sigma_inf: float
    sigma_p: dict = field(default_factory=dict)  # bad primes only
    tamagawa: float = 0.0
    peyre: float = 0.0


def _fibre_report(fc: FibreClass, form: TernaryForm, model: HeightModel) -> FibreReport:
    soluble = is_soluble(form)
    s_inf, locals_, tau = _local_product(fc, form, model)
    return FibreReport(
        y=fc.y.coords,
        soluble=soluble,
        sigma_inf=s_inf,
        sigma_p=locals_,
        tamagawa=tau,
        peyre=tau if soluble else 0.0,
    )


def fibre_report(surface, model: HeightModel, y, rel_tol: float = 1e-8) -> FibreReport:
    fc, form = _smooth_fibre(surface, model, y)
    return _fibre_report(fc, form, model)
