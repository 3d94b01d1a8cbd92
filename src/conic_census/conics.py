"""Exact arithmetic of ternary conics over Q.

A fibre of the bundle is a smooth plane conic x^T M x = 0 with integer
Gram matrix M.  This module decides solubility (Hilbert symbols on an
integer diagonal congruence of M, at inf and at each p | 2 det), finds a
rational point inside the Holzer bounds of the reduced diagonal model,
builds a proper parametrization P^1 -> C, and counts points in height
boxes by two independent strategies that are cross checked in the tests:

* box: sweep (x1, x2) over the box and solve the quadratic for x0; a
  cell counts only where the discriminant form D(x1, x2) is a square,
* parametrized: pull the box back through the parametrization, where the
  exact content bound, |det| / (g^2 c0) times a root-tested power of each
  prime of 2g, turns the box into a finite (u, v) region.  Its exact
  rectangle of rows and columns is scanned in the tiles of the box
  kernel, region test first; a region that reaches row or column
  _ROW_CAP raises BudgetExceeded.

Counts are exact integers throughout; floats only ever enter as seeds
that are corrected by integer arithmetic afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as _np

from .arith import det3, extgcd, factorize, is_prime, prime_divisors, sign, squarefree_part, valuation
from .bundle import FibreClass, fibre_class
from .errors import BudgetExceeded, EngineError, InvalidInputError
from .heights import HeightModel, check_model, fibre_box
from .projective import canonicalize

INF = math.inf

# int64 safety margin for the vectorised scans, and cells per tile
_I64 = 1 << 62
_TILE = 1 << 14

STRATEGIES = ("auto", "box", "parametrized", "both")


class TernaryForm:
    """Integer symmetric 3x3 Gram matrix with nonzero determinant.

    A form stands for one fibre's conic and caches what belongs to it:
    det (on construction), the prime divisors of 2 det, the integer
    diagonal congruence, the places where the conic is locally
    insoluble and the reduced diagonal model.  The
    solubility test reads the diagonal, the point search reduces it, and
    the Euler product of the local densities shares the factorization of
    2 det and the solubility verdict, so each is computed once.
    """

    __slots__ = ("matrix", "_det", "_bad_primes", "_diagonal", "_insoluble", "_reduced")

    def __init__(self, matrix: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in matrix)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise InvalidInputError("a ternary form needs a 3x3 matrix")
        for i in range(3):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidInputError("Gram matrix must be symmetric")
        self.matrix = rows
        self._det = det3(rows)
        if self._det == 0:
            raise InvalidInputError("degenerate conic: det = 0")
        self._bad_primes = None
        self._diagonal = None
        self._insoluble = None
        self._reduced = None

    @property
    def det(self) -> int:
        return self._det

    @property
    def bad_primes(self) -> tuple[int, ...]:
        """Primes dividing 2 det, ascending: the only places besides inf
        where the conic can fail locally or sigma_p can differ from the
        generic 1 - p^-2."""
        if self._bad_primes is None:
            self._bad_primes = tuple(prime_divisors(2 * self._det))
        return self._bad_primes

    def evaluate(self, x: Sequence[int]) -> int:
        m = self.matrix
        return sum(m[i][j] * x[i] * x[j] for i in range(3) for j in range(3))

    def reduced(self) -> tuple[tuple[int, int, int], tuple]:
        """Diagonal model (m0, m1, m2) squarefree and pairwise coprime.

        Returns (m, back) where back is an integer 3x3 matrix sending
        solutions of  m0 w0^2 + m1 w1^2 + m2 w2^2 = 0  to solutions of
        the original form: back^T M back = lam * diag(m) with an integer
        lam > 0, which is checked exactly.
        """
        if self._reduced is None:
            t, d = _congruence(self)
            # d_i = m_i k_i^2 with m_i squarefree; column i over k_i carries
            # m_i, and the common multiple L of the k_i keeps back integral
            coeffs = [squarefree_part(x) for x in d]
            ks = [math.isqrt(x // c) for x, c in zip(d, coeffs)]
            L = math.lcm(*ks)
            back = [[t[r][i] * (L // ks[i]) for i in range(3)] for r in range(3)]
            g = math.gcd(*coeffs)
            coeffs = [c // g for c in coeffs]
            lam = L * L * g
            # pairwise coprime: if p | m_i, m_j then w_k = p w_k' divides p out
            while True:
                i = next((i for i in range(3) if math.gcd(coeffs[i], coeffs[(i + 1) % 3]) > 1), None)
                if i is None:
                    break
                j, k = (i + 1) % 3, (i + 2) % 3
                p = min(factorize(math.gcd(coeffs[i], coeffs[j])))
                coeffs[i] //= p
                coeffs[j] //= p
                coeffs[k] *= p
                for row in back:
                    row[k] *= p
                lam *= p
            m = self.matrix
            for i in range(3):
                for j in range(3):
                    acc = sum(back[r][i] * m[r][s] * back[s][j] for r in range(3) for s in range(3))
                    if acc != (lam * coeffs[i] if i == j else 0):
                        raise EngineError("diagonal reduction failed its own check")
            self._reduced = (tuple(coeffs), tuple(tuple(row) for row in back))
        return self._reduced

    def __eq__(self, other):
        return isinstance(other, TernaryForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"TernaryForm({self.matrix})"


def _as_form(form) -> TernaryForm:
    if isinstance(form, TernaryForm):
        return form
    return TernaryForm(form)


def _smooth_fibre(surface, model: HeightModel | None, y) -> tuple[FibreClass, TernaryForm]:
    """The record and the form of the fibre over y, which must be smooth.

    The public per-fibre functions resolve y here once; the model check
    (skipped for model=None) runs before any solubility gate.
    """
    fc = fibre_class(surface, y)
    if not fc.smooth:
        raise InvalidInputError(f"fibre over {fc.y} is singular")
    if model is not None:
        check_model(surface, model)
    return fc, TernaryForm(fc.gram)


# ---------------------------------------------------------------------------
# integer diagonal congruence


def _congruence(form: TernaryForm) -> tuple[list[list[int]], list[int]]:
    """Integer T with T^T M T = diag(d); returns (T, d), cached on the form.

    A zero pivot is swapped for a later nonzero diagonal entry, or made
    from a cross term when the rest of the diagonal is zero.  The shear
    col_l <- |m_kk| col_l - sgn(m_kk) m_kl col_k scales all later columns
    by |m_kk| together, so each stays a positive multiple of the rational
    elimination's column and a zero-block shear adds like to like.
    """
    if form._diagonal is not None:
        return form._diagonal
    m = [list(row) for row in form.matrix]
    t = [[int(i == j) for j in range(3)] for i in range(3)]

    def combine(l, a, k, b):
        # col_l <- a col_l + b col_k, mirrored on rows to stay congruent
        for i in range(3):
            m[i][l] = a * m[i][l] + b * m[i][k]
        for j in range(3):
            m[l][j] = a * m[l][j] + b * m[k][j]
        for i in range(3):
            t[i][l] = a * t[i][l] + b * t[i][k]

    for k in range(3):
        if m[k][k] == 0:
            pivot = next((l for l in range(k, 3) if m[l][l] != 0), None)
            if pivot is None:
                pair = next(
                    ((l, s) for l in range(k, 3) for s in range(l + 1, 3) if m[l][s] != 0),
                    None,
                )
                if pair is None:
                    raise EngineError("diagonalization hit a zero block on a nonsingular form")
                combine(pair[0], 1, pair[1], 1)
                pivot = pair[0]
            if pivot != k:
                for row in (*t, *m):
                    row[k], row[pivot] = row[pivot], row[k]
                m[k], m[pivot] = m[pivot], m[k]
        a = m[k][k]
        if any(m[k][l] for l in range(k + 1, 3)):
            for l in range(k + 1, 3):
                combine(l, abs(a), k, -m[k][l] if a > 0 else m[k][l])
    form._diagonal = (t, [m[i][i] for i in range(3)])
    return form._diagonal


# ---------------------------------------------------------------------------
# Hilbert symbols and solubility


def _two_unit_eps(u: int) -> int:
    return ((u - 1) // 2) % 2


def _two_unit_omega(u: int) -> int:
    return ((u * u - 1) // 8) % 2


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def hilbert_symbol(a: int, b: int, place) -> int:
    """Hilbert symbol (a, b) at a finite prime or at place=math.inf.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the local
    field.  Formulas split by the parity of the valuations, with the
    unit characters mod 8 doing the work at p = 2.
    """
    if not (isinstance(a, int) and isinstance(b, int)) or a == 0 or b == 0:
        raise InvalidInputError("hilbert symbol needs nonzero integer arguments")
    if place == INF or place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not (isinstance(p, int) and is_prime(p)):
        raise InvalidInputError(f"{place!r} is not a prime or 'inf'")
    alpha, u = 0, a
    while u % p == 0:
        u //= p
        alpha += 1
    beta, v = 0, b
    while v % p == 0:
        v //= p
        beta += 1
    if p == 2:
        e = _two_unit_eps(u) * _two_unit_eps(v)
        e += alpha * _two_unit_omega(v) + beta * _two_unit_omega(u)
        return -1 if e % 2 else 1
    s = -1 if alpha % 2 and beta % 2 and p % 4 == 3 else 1
    if beta % 2:
        s *= _legendre(u, p)
    if alpha % 2:
        s *= _legendre(v, p)
    return s


def local_solubility(form, place) -> bool:
    """Does the conic have a point over Q_p (or over R for place=inf)?"""
    form = _as_form(form)
    _, (d0, d1, d2) = _congruence(form)
    return hilbert_symbol(-d0 * d2, -d1 * d2, place) == 1


def insoluble_places(form) -> tuple:
    """Places (inf and primes dividing 2 det) where the conic fails locally.

    Empty tuple iff the conic has rational points (Hasse-Minkowski): for
    p not dividing 2 det the conic is smooth over Z_p, so it has a point
    mod p that lifts to Q_p, and no other place can obstruct.
    """
    form = _as_form(form)
    if form._insoluble is None:
        bad = [p for p in (INF, *form.bad_primes) if not local_solubility(form, p)]
        form._insoluble = tuple(bad)
    return form._insoluble


def is_soluble(form) -> bool:
    return not insoluble_places(form)


# ---------------------------------------------------------------------------
# rational points

_SEARCH_CAP = 10**9


def find_point(form):
    """A primitive rational point on the conic, or None if there is none.

    On the reduced model a x^2 + b y^2 + c z^2 = 0 a solution exists with
    |x| <= sqrt|bc|, |y| <= sqrt|ac|, |z| <= sqrt|ab|, so sweeping the two
    smallest bounds and solving for the third coordinate always lands.
    """
    form = _as_form(form)
    if not is_soluble(form):
        return None
    m, back = form.reduced()
    bounds = [
        math.isqrt(abs(m[1] * m[2])),
        math.isqrt(abs(m[0] * m[2])),
        math.isqrt(abs(m[0] * m[1])),
    ]
    k = max(range(3), key=lambda i: bounds[i])
    i, j = [t for t in range(3) if t != k]
    if (bounds[i] + 1) * (bounds[j] + 1) > _SEARCH_CAP:
        raise BudgetExceeded("conic coefficients too large for the point search")
    for u in range(bounds[i] + 1):
        base = m[i] * u * u
        for v in range(bounds[j] + 1):
            rhs = -(base + m[j] * v * v)
            t2, rem = divmod(rhs, m[k])
            if rem or t2 < 0:
                continue
            t = math.isqrt(t2)
            if t * t != t2 or (u == 0 and v == 0 and t == 0):
                continue
            w = [0, 0, 0]
            w[i], w[j], w[k] = u, v, t
            x = canonicalize([sum(back[r][s] * w[s] for s in range(3)) for r in range(3)]).coords
            if form.evaluate(x) != 0:
                raise EngineError("point search produced a non-point")
            return x
    raise EngineError("no point inside the Holzer bounds on a soluble conic")


# ---------------------------------------------------------------------------
# parametrization


def _complete_primitive(p: tuple[int, int, int]):
    """Integer vectors E1, E2 with det[p | E1 | E2] = +-1."""
    p0, p1, p2 = p
    g01 = math.gcd(p0, p1)
    if g01 == 0:
        return (1, 0, 0), (0, 1, 0)
    x, y = extgcd(p0, p1)
    s, t = extgcd(g01, p2)
    e1 = (-y, x, 0)
    e2 = (-t * (p0 // g01), -t * (p1 // g01), s)
    return e1, e2


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _mdot(m, a, b):
    return sum(m[i][j] * a[i] * b[j] for i in range(3) for j in range(3))


def _round_div(a: int, b: int) -> int:
    """round(a / b) for b > 0, halves to even as round(Fraction) does."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q


def _size_reduce(e, p):
    # shrink e by integer multiples of p (Euclidean projection)
    k = _round_div(_dot(e, p), _dot(p, p))
    return tuple(e[i] - k * p[i] for i in range(3))


def _reduce_basis(p, e1, e2):
    """Lagrange-reduce (E1, E2) on the plane orthogonal to p."""
    pp = _dot(p, p)

    def perp_dot(a, b):
        # pp times the dot product of the projections onto p's orthogonal
        # plane: an integer, and pp > 0 keeps every comparison below
        return pp * _dot(a, b) - _dot(a, p) * _dot(b, p)

    e1 = _size_reduce(e1, p)
    e2 = _size_reduce(e2, p)
    for _ in range(64):
        n1 = perp_dot(e1, e1)
        if n1 == 0:
            raise EngineError("degenerate completion basis")
        k = _round_div(perp_dot(e1, e2), n1)
        if k:
            e2 = tuple(e2[i] - k * e1[i] for i in range(3))
        if perp_dot(e2, e2) < n1:
            e1, e2 = e2, e1
        else:
            break
    return _size_reduce(e1, p), _size_reduce(e2, p)


def _phi_eval(coeffs, u, v):
    a, b, c = coeffs
    return a * u * u + b * u * v + c * v * v


@dataclass(frozen=True)
class ConicParam:
    """Proper parametrization of a soluble conic.

    phi is a triple of integer binary quadratics; (u : v) -> phi(u, v)
    divided by its gcd is a bijection P^1(Q) -> C(Q).  content_bound
    is the lcm of that gcd over coprime (u, v), which is what makes the
    box pullback finite.  tangent is the parameter mapping to the base
    point itself.
    """

    form: TernaryForm
    point: tuple[int, int, int]
    basis: tuple
    phi: tuple
    content_bound: int
    tangent: tuple[int, int]

    def raw(self, u: int, v: int) -> tuple[int, int, int]:
        return tuple(_phi_eval(c, u, v) for c in self.phi)

    def map_point(self, u: int, v: int) -> tuple[int, int, int]:
        if u == 0 and v == 0:
            raise InvalidInputError("(0, 0) is not a parameter")
        return canonicalize(self.raw(u, v)).coords


def parametrize(form, point=None) -> ConicParam:
    """Build the tangent-line parametrization through a rational point."""
    form = _as_form(form)
    if point is None:
        point = find_point(form)
        if point is None:
            raise InvalidInputError("conic has no rational points")
    else:
        point = canonicalize(point).coords
        if form.evaluate(point) != 0:
            raise InvalidInputError("base point does not lie on the conic")
    e1, e2 = _complete_primitive(point)
    e1, e2 = _reduce_basis(point, e1, e2)

    mm = form.matrix
    qa = _mdot(mm, e1, e1)
    qb = _mdot(mm, e1, e2)
    qc = _mdot(mm, e2, e2)
    l1 = _mdot(mm, point, e1)
    l2 = _mdot(mm, point, e2)
    if l1 == 0 and l2 == 0:
        raise EngineError("base point is a singular point of the form")

    phi = []
    for j in range(3):
        cu2 = qa * point[j] - 2 * l1 * e1[j]
        cuv = 2 * (qb * point[j] - l1 * e2[j] - l2 * e1[j])
        cv2 = qc * point[j] - 2 * l2 * e2[j]
        phi.append((cu2, cuv, cv2))
    c0 = math.gcd(*(abs(c) for triple in phi for c in triple))
    if c0 > 1:
        phi = [tuple(c // c0 for c in triple) for triple in phi]
    phi = tuple(phi)

    # Q(phi) is a binary quartic; vanishing at five distinct parameters
    # forces it to vanish identically
    for (u, v) in ((1, 0), (0, 1), (1, 1), (2, -3), (3, 1)):
        if form.evaluate([_phi_eval(c, u, v) for c in phi]) != 0:
            raise EngineError("parametrization does not land on the conic")

    g = math.gcd(l1, l2)
    tangent = (-l2 // g, l1 // g)
    if tangent[0] < 0 or (tangent[0] == 0 and tangent[1] < 0):
        tangent = (-tangent[0], -tangent[1])
    img = canonicalize(tuple(_phi_eval(c, *tangent) for c in phi)).coords
    if img != point and img != tuple(-t for t in point):
        raise EngineError("tangent parameter misses the base point")

    # phi = [P | E1 | E2] (Q, -2L u, -2L v) / c0, so the content at coprime
    # (u, v) is gcd(Q, 2L) / c0.  At (u, v) = a tangent + b s, L = -+g b, and M
    # in the basis (P, E tangent, E s) is [[0, 0, -+g], [0, alpha, beta], [-+g, beta, gamma]]
    x, y = extgcd(*tangent)
    s = (-y, x)

    def bil(p, r):
        return qa * p[0] * r[0] + qb * (p[0] * r[1] + p[1] * r[0]) + qc * p[1] * r[1]

    alpha = bil(tangent, tangent)
    if alpha * g * g != -form.det:
        raise EngineError("tangent frame does not reproduce the determinant")
    bound, rem = divmod(_content_bound(alpha, bil(tangent, s), bil(s, s), 2 * g), c0)
    if rem:
        raise EngineError("content bound is not a multiple of the coefficient gcd")

    return ConicParam(
        form=form,
        point=point,
        basis=(e1, e2),
        phi=phi,
        content_bound=bound,
        tangent=tangent,
    )


def _val(n: int, p: int, cap: int) -> int:
    """min(v_p(n), cap), with v_p(0) infinite."""
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def _root_digits(A: int, B: int, C: int, p: int, k: int) -> bool:
    """Does A y^2 + B y + C vanish mod p^k at some integer y?  Digit search:
    y = d + p z gives A p^2 z^2 + (2 A d + B) p z + f(d), and a class dies
    once its constant term's valuation is below k and below the others'."""
    stack = [(A, B, C)]
    while stack:
        A, B, C = stack.pop()
        va, vb, vc = _val(A, p, k), _val(B, p, k), _val(C, p, k)
        if min(va, vb, vc) == k:
            return True
        if vc >= min(va, vb):
            stack.extend((A * p * p, (2 * A * d + B) * p, (A * d + B) * d + C) for d in range(p))
    return False


def _has_root(A: int, B: int, C: int, p: int, k: int) -> bool:
    """_root_digits in closed form at odd p: divide out the common power of
    p, then 4A f = (2Ay + B)^2 - D for a unit A, and a unit B alone gives a
    simple root that Hensel lifts."""
    if p == 2:
        return _root_digits(A, B, C, p, k)
    m = min(_val(A, p, k), _val(B, p, k), _val(C, p, k))
    if m == k:
        return True
    q, k = p**m, k - m
    A, B, C = A // q, B // q, C // q
    if A % p == 0:
        return B % p != 0
    D = B * B - 4 * A * C
    v = _val(D, p, k)
    return v == k or (v % 2 == 0 and _legendre(D // p**v, p) == 1)


def _content_bound(alpha: int, beta: int, gamma: int, two_g: int) -> int:
    """lcm of gcd(Q(a, b), two_g b) over coprime (a, b), for alpha != 0 and
    Q = alpha a^2 + 2 beta a b + gamma b^2.

    Off two_g the exponent of p is v_p(alpha): b = 0 attains it, and p^k | b,
    p^k | Q force p^k | alpha.  At p | two_g, e = v_p(two_g), it is v_p(alpha)
    + j for the largest j <= e with p^k | Q(a, b), p^r | b at a primitive
    (a, b), k = v_p(alpha) + j, r = max(0, k - e): a root of Q(1, p^r y) mod
    p^k, or when r = 0 of Q(p x, 1).
    """
    bound = abs(alpha)
    for p, e in factorize(two_g).items():
        v = valuation(alpha, p)
        for j in range(e, 0, -1):
            k = v + j
            q = p ** max(0, k - e)
            if _has_root(gamma * q * q, 2 * beta * q, alpha, p, k) or (
                q == 1 and _has_root(alpha * p * p, 2 * beta * p, gamma, p, k)
            ):
                bound *= p**j
                break
    return bound


# ---------------------------------------------------------------------------
# parametrized counting


# a parameter region that reaches this row or column is too large to scan
_ROW_CAP = 1 << 16


def _surd_sign(p: int, q: int, d: int) -> int:
    """Sign of p + q sqrt(d), for d >= 0."""
    sp, sq = sign(p), sign(q) if d else 0
    if sp * sq >= 0:
        return sp or sq
    t = p * p - q * q * d
    return sp if t > 0 else -sp if t < 0 else 0


def _row_meets(phi, caps, u: int) -> bool:
    """Is there a real v with |phi_j(u, v)| <= caps_j for every j?

    If so, the least such v is an endpoint v = (x + s sqrt(d)) / y of some
    strip, and there y^2 phi_j(u, v) = P + Q sqrt(d) in integers.
    """
    uu = u * u
    ends = []
    for (a, b, c), K in zip(phi, caps):
        for k in (K, -K):
            # the roots of c v^2 + b u v + a u^2 = k
            d = b * b * uu - 4 * c * (a * uu - k)
            if c and d >= 0:
                ends += [(-b * u, 1, d, 2 * c), (-b * u, -1, d, 2 * c)]
            elif not c and b * u:
                ends.append((k - a * uu, 0, 0, b * u))
    for x, s, d, y in ends:
        yy = y * y
        for (a, b, c), K in zip(phi, caps):
            P = a * uu * yy + b * u * x * y + c * (x * x + d)
            Q = s * (b * u * y + 2 * c * x)
            if _surd_sign(K * yy - P, -Q, d) < 0 or _surd_sign(K * yy + P, Q, d) < 0:
                break
        else:
            return True
    return False


def _row_range(phi, caps) -> int:
    """The largest u >= 0 whose row meets |phi_j(u, v)| <= caps_j.

    phi is 2-homogeneous, so the region is star-shaped about 0 and the
    rows that meet it are exactly 0..U: doubling, then bisection.
    """
    lo, hi = 0, 1
    while _row_meets(phi, caps, hi):
        if hi >= _ROW_CAP:
            raise BudgetExceeded(f"the parameter region reaches row or column {_ROW_CAP}")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _row_meets(phi, caps, mid) else (lo, mid)
    return lo


def _tiles(lo1, hi1, lo2, hi2, dtype):
    """Tiles of at most _TILE cells over [lo1, hi1] x [lo2, hi2], for both
    counting kernels: each column block x1, a row vector, with an iterator
    over its row blocks x2, column vectors, so x1 partials are made once."""
    width = min(hi1 - lo1 + 1, _TILE)
    for left in range(lo1, hi1 + 1, width):
        x1 = _np.arange(left, min(left + width, hi1 + 1), dtype=dtype)
        rows = range(lo2, hi2 + 1, _TILE // width)
        yield x1, (_np.arange(top, min(top + rows.step, hi2 + 1), dtype=dtype)[:, None] for top in rows)


def _param_scan(phi, caps, box, rows, cols, dtype) -> int:
    """Coprime (u, v) with u > 0, or (0, 1), whose point lies in the box,
    over tiles of the rectangle 0..rows x -cols..cols: the region test
    |phi_j(u, v)| <= caps_j first, then the other tests on its survivors."""
    count = 0
    for v, us in _tiles(-cols, cols, 0, rows, dtype):
        parts = [(b * v, c * v * v) for _, b, c in phi]
        for u in us:
            w = [a * u * u + bv * u + cvv for (a, _, _), (bv, cvv) in zip(phi, parts)]
            i, j = _np.nonzero((abs(w[0]) <= caps[0]) & (abs(w[1]) <= caps[1]) & (abs(w[2]) <= caps[2]))
            uc, vc = u[i, 0], v[j]
            k = (_np.gcd(uc, abs(vc)) == 1) & ((uc > 0) | (vc > 0))
            w = [wj[i[k], j[k]] for wj in w]
            g = _np.gcd(_np.gcd(abs(w[0]), abs(w[1])), abs(w[2]))
            ok = w[2] != 0
            for wj, bj in zip(w, box):
                ok &= abs(wj) <= g * bj
            count += int(_np.count_nonzero(ok))
    return count


def _count_parametrized(form: TernaryForm, box) -> int:
    param = parametrize(form)
    phi = param.phi
    caps = [param.content_bound * b for b in box]
    rows = _row_range(phi, caps)
    cols = _row_range([(c, b, a) for a, b, c in phi], caps)
    # |phi_j| <= 3 coeff r^2 on every cell of the rectangle, inside the
    # region or not, and the content at a coprime cell divides the bound
    r = max(rows, cols)
    coeff = max(abs(c) for triple in phi for c in triple)
    small = 3 * coeff * r * r < _I64 and max(caps) < _I64
    return _param_scan(phi, caps, box, rows, cols, _np.int64 if small else object)


# ---------------------------------------------------------------------------
# box counting


def _gram_abc(m, x1, x2):
    """Q(x0, x1, x2) = A x0^2 + B x0 + C with A = m00."""
    B = 2 * (m[0][1] * x1 + m[0][2] * x2)
    C = m[1][1] * x1 * x1 + 2 * m[1][2] * x1 * x2 + m[2][2] * x2 * x2
    return B, C


def _count_rows(m, b0, x1s, x2) -> int:
    """Primitive points (x0, x1, x2) of the conic with |x0| <= b0, for
    each x1 in x1s: the integer roots x0 of one quadratic per row."""
    count = 0
    A = m[0][0]
    twoA = 2 * A
    for x1 in x1s:
        B, C = _gram_abc(m, x1, x2)
        if A == 0:
            if B == 0:
                if C == 0:
                    raise EngineError("degenerate pencil line inside the conic")
                continue
            q, r = divmod(-C, B)
            if r == 0 and abs(q) <= b0 and math.gcd(q, x1, x2) == 1:
                count += 1
            continue
        d = B * B - 4 * A * C
        if d < 0:
            continue
        s = math.isqrt(d)
        if s * s != d:
            continue
        for num in ((-B + s), (-B - s)) if s else ((-B),):
            q, r = divmod(num, twoA)
            if r == 0 and abs(q) <= b0 and math.gcd(q, x1, x2) == 1:
                count += 1
    return count


def _count_box_python(m, b0, b1, b2) -> int:
    """Reference box scan, one big-int row per (x1, x2) with x2 >= 1."""
    return sum(_count_rows(m, b0, range(-b1, b1 + 1), x2) for x2 in range(1, b2 + 1))


def _cell_form(m):
    """(p, q, s) of the kernel's cell form p x1^2 + 2 q x1 x2 + s x2^2: D, or C if m00 = 0."""
    (a, m01, m02), (_, m11, m12), (_, _, m22) = m
    return (m01 * m01 - a * m11, m01 * m02 - a * m12, m02 * m02 - a * m22) if a else (m11, m12, m22)


def _count_box_tiled(m, b0, b1, b2) -> int:
    """Box count in int64 over tiles of at most _TILE cells (x1, x2).

    On the conic m00 x0 = -L +- r, L = m01 x1 + m02 x2, r^2 = D.  A cell is
    a hit when r = rint(sqrt(float(D))) has r * r == D, exact for 0 <= D <
    2^62: both roundings leave the float root within 2^31 * 2^-52 < 2^-20 of
    k when D = k^2, and no r has r * r == D for a non-square or negative D.
    Only hits are divided and gcd-tested.  For m00 = 0, x0 = -C / (2 L).
    """
    a, m01, m02 = m[0]
    p, q, s = _cell_form(m)
    count = 0
    for x1, x2s in _tiles(-b1, b1, 1, b2, _np.int64):
        px1, qx1 = p * x1 * x1, 2 * q * x1
        for x2 in x2s:
            F = (x2 * qx1 + px1 + s * x2 * x2).ravel()
            if a:
                r = _np.rint(_np.sqrt(_np.abs(F).astype(_np.float64))).astype(_np.int64)
                k = _np.flatnonzero(r * r == F)
                i, j = _np.divmod(k, len(x1))
                r, L = r[k], m01 * x1[j] + m02 * x2[i, 0]
                roots = [_np.divmod(r - L, a), _np.divmod(-r - L, a)]
                roots[1][1][r == 0] = 1  # a double root counts once
            else:
                L2 = (2 * m01 * x1 + 2 * m02 * x2).ravel()
                if (F[L2 == 0] == 0).any():
                    raise EngineError("degenerate pencil line inside the conic")
                k = _np.flatnonzero((L2 != 0) & (F % _np.where(L2, L2, 1) == 0))
                i, j = _np.divmod(k, len(x1))
                roots = [_np.divmod(-F[k], L2[k])]
            g = _np.gcd(x1[j], x2[i, 0])
            for x0, rem in roots:
                count += int(_np.count_nonzero((rem == 0) & (abs(x0) <= b0) & (_np.gcd(x0, g) == 1)))
    return count


def _box_numpy_safe(m, b0, b1, b2) -> bool:
    """Every coefficient and partial of _count_box_tiled fits in int64, and D < 2^62."""
    a, m01, m02 = m[0]
    p, q, r = _cell_form(m)
    top = abs(p) * b1 * b1 + 2 * abs(q) * b1 * b2 + abs(r) * b2 * b2
    lin = 2 * (abs(m01) * b1 + abs(m02) * b2) + math.isqrt(top) + 1
    return max(top, lin, abs(a), abs(p), 2 * abs(q), abs(r), 2 * abs(m01), 2 * abs(m02)) < _I64


def _count_box(form: TernaryForm, box) -> int:
    kernel = _count_box_tiled if _box_numpy_safe(form.matrix, *box) else _count_box_python
    return kernel(form.matrix, *box)


# ---------------------------------------------------------------------------
# fibre counting

_AUTO_BOX_LIMIT = 200_000


def count_fibre(surface, model: HeightModel, y, bound, strategy: str = "auto") -> int:
    """Number of primitive integer solutions on the fibre over y with
    x2 != 0 and height <= bound, counting x and -x separately.

    The fibre must be smooth.  Each projective point with x2 != 0 has
    exactly two primitive representatives, one with x2 > 0, so this is
    twice the projective count.  The signed convention is the one under
    which count/bound converges to the local density product tamagawa():
    measured against the closed formula on x0^2+x1^2 = t*x2^2 at t=1
    (8/pi) and independently on a split conic calibrated by the exact
    Schanuel constant 12/pi^2, the per-point normalization comes out
    low by exactly the factor 2 that the +-x pair restores.

    The height condition is exactly the box |x_j| <= b_j from the
    model, so both strategies count the same set.
    """
    check_strategy(strategy)
    fc, form = _smooth_fibre(surface, model, y)
    return _count_fibre(fc, form, model, bound, strategy)


def check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise InvalidInputError(f"unknown strategy {strategy!r}")


def _count_fibre(fc: FibreClass, form: TernaryForm, model: HeightModel, bound, strategy: str) -> int:
    """count_fibre on a resolved smooth fibre, with a checked strategy."""
    box = fibre_box(model, fc.y, bound)
    if box[2] < 1 or not is_soluble(form):
        return 0
    if strategy == "both":
        a = _count_box(form, box)
        b = _count_parametrized(form, box)
        if a != b:
            raise EngineError(f"strategies disagree on {fc.y}: box {a}, parametrized {b}")
        return 2 * a
    if strategy == "auto":
        strategy = "box" if (2 * box[1] + 1) * box[2] <= _AUTO_BOX_LIMIT else "parametrized"
    if strategy == "box":
        return 2 * _count_box(form, box)
    return 2 * _count_parametrized(form, box)
