"""Local densities sigma_p and sigma_inf, Tamagawa numbers, Peyre constants.

The p-adic density of a fibre conic is the limit N(p^n)/p^(2n), where
N(p^n) counts solutions x mod p^n with x not identically 0 mod p.  The
archimedean density integrates the line density along the real conic in
the chart x2 = 1 against the fibre height; a rational parametrization
turns it into a finite sum of elementary integrals.  The Tamagawa number
closes the good-prime tail with the exact Euler product 6/pi^2.

The public functions keep a rel_tol parameter for the callers that pass
it; sigma_inf is exact up to rounding, so it is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .arith import det3, is_prime, valuation
from .bundle import FibreClass
from .conics import TernaryForm, _as_form, _smooth_fibre, is_soluble
from .errors import BudgetExceeded, EngineError, InvalidInputError
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

_LIFT_CAP = 3_000_000
_NONZERO_MOD2 = [x for x in product((0, 1), repeat=3) if any(x)]


def _q_val(m, x) -> int:
    x0, x1, x2 = x
    return (
        m[0][0] * x0 * x0
        + m[1][1] * x1 * x1
        + m[2][2] * x2 * x2
        + 2 * (m[0][1] * x0 * x1 + m[0][2] * x0 * x2 + m[1][2] * x1 * x2)
    )


# ---------------------------------------------------------------------------
# p-adic side


def _kernel_basis_mod(m, p):
    """Basis of the null space of m over F_p (p odd)."""
    a = [[m[i][j] % p for j in range(3)] for i in range(3)]
    pivots = []
    r = 0
    for c in range(3):
        pr = next((i for i in range(r, 3) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(3):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(a[i][j] - f * a[r][j]) % p for j in range(3)]
        pivots.append(c)
        r += 1
    free = [c for c in range(3) if c not in pivots]
    basis = []
    for fc in free:
        v = [0, 0, 0]
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-a[ri][fc]) % p
        basis.append(tuple(v))
    return basis


def _level_one(m, p):
    """(regular count, critical solutions) mod p.

    A solution is regular when the gradient 2Mx is a unit vector mod p;
    each regular solution has exactly p^2 lifts at every further level,
    and its lifts stay regular, so only critical solutions need explicit
    tracking.  At p = 2 the gradient is always even, so everything is
    tracked explicitly.
    """
    if p == 2:
        crit = [x for x in _NONZERO_MOD2 if _q_val(m, x) % 2 == 0]
        return 0, crit
    basis = _kernel_basis_mod(m, p)
    rank = 3 - len(basis)
    if rank == 3:
        # smooth conic over F_p: p + 1 projective points, all regular
        return p * p - 1, []
    if rank == 2:
        pair = None
        for i in range(3):
            for j in range(i + 1, 3):
                if (m[i][i] * m[j][j] - m[i][j] ** 2) % p:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            raise EngineError("rank-2 reduction without a nonsingular principal minor")
        i, j = pair
        disc = (m[i][j] ** 2 - m[i][i] * m[j][j]) % p
        split = pow(disc, (p - 1) // 2, p) == 1
        n1 = (2 * p - 1) * p - 1 if split else p - 1
        b = basis[0]
        crit = [tuple(l * c % p for c in b) for l in range(1, p)]
        return n1 - (p - 1), crit
    # rank 1: the zero set equals the kernel plane, every point critical
    b1, b2 = basis
    crit = [
        tuple((i * b1[k] + j * b2[k]) % p for k in range(3))
        for i in range(p)
        for j in range(p)
        if i or j
    ]
    return 0, crit


def _grad_valuation(m, x, p, k):
    """v_p of the gradient 2Mx, or k when it is invisible mod p^k."""
    comps = (
        2 * (m[0][0] * x[0] + m[0][1] * x[1] + m[0][2] * x[2]),
        2 * (m[1][0] * x[0] + m[1][1] * x[1] + m[1][2] * x[2]),
        2 * (m[2][0] * x[0] + m[2][1] * x[1] + m[2][2] * x[2]),
    )
    w = k
    for c in comps:
        v = 0
        while v < w and c % p == 0:
            v += 1
            c //= p
        if c % p and v < w:
            w = v
    return w


def _settled_total(settled, p, k):
    """Descendant count at level k of the closed-form (Hensel) pool.

    A class settled at level kk with gradient valuation w keeps all p^3
    lifts through level kk + w, after which exactly p^2 of each p^3
    survive forever.
    """
    total = 0
    for kk, w, mult in settled:
        if k <= kk + w:
            total += mult * p ** (3 * (k - kk))
        else:
            total += mult * p ** (3 * w) * p ** (2 * (k - kk - w))
    return total


def _evolve_counts(m, p, upto):
    """Exact N(p^k) for k = 1..upto by lift-and-count.

    A solution class x mod p^k is settled once its gradient valuation w
    is readable (w < k) and p^(k+w) | Q(x): quantitative Hensel then
    fixes every deeper count in closed form.  Only the unsettled classes
    are carried as explicit vectors; a lift x + p^k d changes Q at order
    p^(k+1) only through the gradient, so an unsettled class either
    lifts p^3-fold (when p^(k+1) | Q) or dies.
    """
    reg, crit = _level_one(m, p)
    settled = [(1, 0, reg)] if reg else []
    counts = []
    p3 = p**3
    for k in range(1, upto + 1):
        counts.append(_settled_total(settled, p, k) + len(crit))
        if k == upto:
            break
        keep = []
        pool = {}
        for x in crit:
            w = _grad_valuation(m, x, p, k)
            if w < k and _q_val(m, x) % p ** (k + w) == 0:
                pool[w] = pool.get(w, 0) + 1
            else:
                keep.append(x)
        for w, mult in pool.items():
            settled.append((k, w, mult))
        mod_next = p ** (k + 1)
        surv = [x for x in keep if _q_val(m, x) % mod_next == 0]
        if len(surv) * p3 > _LIFT_CAP:
            raise BudgetExceeded("p-adic lift tree exceeded its budget")
        step = p**k
        crit = [
            (x0 + step * d0, x1 + step * d1, x2 + step * d2)
            for (x0, x1, x2) in surv
            for d0 in range(p)
            for d1 in range(p)
            for d2 in range(p)
        ]
    return counts


def count_points_mod(form, p: int, n: int) -> int:
    """Exact N(p^n): solutions of Q = 0 mod p^n with x not 0 mod p."""
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if n < 1:
        raise InvalidInputError("level must be at least 1")
    m = _as_form(form).matrix
    if all(v % p == 0 for row in m for v in row):
        # Q = p Q': a primitive solution mod p^n is any lift of one mod p^(n-1)
        if n == 1:
            return p**3 - 1
        inner = [[v // p for v in row] for row in m]
        return p**3 * count_points_mod(TernaryForm(inner), p, n - 1)
    return _evolve_counts(m, p, n)[n - 1]


def _sigma_p_gram(m, p) -> Fraction:
    if all(v % p == 0 for row in m for v in row):
        inner = [[v // p for v in row] for row in m]
        return p * _sigma_p_gram(inner, p)
    v = valuation(abs(det3(m)), p)
    first = 2 * v + 2
    for n in range(first, first + 9):
        counts = _evolve_counts(m, p, n + 2)
        if counts[n] == p * p * counts[n - 1]:
            if counts[n + 1] != p * p * counts[n]:
                raise EngineError("Hensel stabilization audit failed")
            return Fraction(counts[n - 1], p ** (2 * n))
    raise EngineError(f"p-adic density failed to stabilize at p={p}")


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
