"""Local densities sigma_p and sigma_inf, Tamagawa numbers, Peyre constants.

The p-adic density of a fibre conic is the limit N(p^n)/p^(2n), where
N(p^n) counts solutions x mod p^n with x not identically 0 mod p.  The
archimedean density integrates the line density along the real conic in
the chart x2 = 1 against the fibre height.  The Tamagawa number closes
the good-prime tail with the exact Euler product 6/pi^2.
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
from .quadrature import integrate

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


def _height_factory(w0, w1, w2):
    def hgt(x0, x1):
        return max(w0 * abs(x0), w1 * abs(x1), w2)

    return hgt


def sigma_inf_weights(form, weights, rel_tol: float = 1e-8) -> float:
    """Real density of the conic against the height max_j(w_j |x_j|).

    Integrates dx0 / (H(x) |dQ/dx1|) over both branches of the real
    locus in the chart x2 = 1.  Square-root branch points are removed by
    x0 = r +- v^2 (the vanishing factor cancels exactly against the
    Jacobian); the tails are mapped to [0, 1/X] by u = 1/x0.  Returns 0
    for an empty real locus.
    """
    m = _as_form(form).matrix
    w0, w1, w2 = (float(w) for w in weights)
    if min(w0, w1, w2) <= 0:
        raise InvalidInputError("height weights must be positive")
    hgt = _height_factory(w0, w1, w2)
    m00, m01, m02 = m[0][0], m[0][1], m[0][2]
    m11, m12, m22 = m[1][1], m[1][2], m[2][2]
    tol = rel_tol

    def a1(x0):
        return 2.0 * (m01 * x0 + m12)

    def a0(x0):
        return (m00 * x0 + 2.0 * m02) * x0 + m22

    if m11 == 0:
        # single sheet x1 = -A0/A1; the pole of x1 is a regular point of
        # the integrand because H grows exactly as fast as 1/|A1|
        def f_line(x0):
            num = a1(x0)
            if num == 0.0:
                return 1.0 / (w1 * abs(a0(x0)))
            x1 = -a0(x0) / num
            return 1.0 / (hgt(x0, x1) * abs(num))

        if m01 == 0:
            # A1 is the nonzero constant 2 m12
            x = 1.0 + 2.0 * (abs(m02) + abs(m22) + 1.0) / (abs(m00) + 1.0)
            lim = 1.0 / (w1 * abs(m00)) if m00 else 1.0 / (2.0 * w0 * abs(m12))
            total = integrate(f_line, -x, x, tol)
        else:
            pole = -m12 / m01
            x = 1.0 + 2.0 * abs(pole) + (abs(m00) + abs(m02) + abs(m22) + 1.0) / abs(m01)
            slope = abs(m00 / (2.0 * m01))
            lim = 1.0 / (max(w0, w1 * slope) * 2.0 * abs(m01))
            total = integrate(f_line, -x, pole, tol) + integrate(f_line, pole, x, tol)

        def f_tail(u):
            if u == 0.0:
                return lim
            return f_line(1.0 / u) / (u * u)

        total += integrate(f_tail, 0.0, 1.0 / x, tol)
        total += integrate(f_tail, -1.0 / x, 0.0, tol)
        return total

    # two sheets x1 = (-A1 +- 2 sqrt(d)) / (2 m11) over d(x0) >= 0
    c2 = m01 * m01 - m11 * m00
    c1 = 2 * (m01 * m12 - m11 * m02)
    c0 = m12 * m12 - m11 * m22
    disc = c1 * c1 - 4 * c2 * c0  # equals -4 m11 det != 0 when c2 != 0

    def branch_val(x0, sqrtd, sign):
        x1 = (-a1(x0) + 2.0 * sign * sqrtd) / (2.0 * m11)
        return 1.0 / (hgt(x0, x1) * 2.0 * sqrtd)

    def d_of(x0):
        return (c2 * x0 + c1) * x0 + c0

    def plain(lo, hi):
        s = 0.0
        for sign in (1.0, -1.0):
            s += integrate(lambda x0: branch_val(x0, math.sqrt(d_of(x0)), sign), lo, hi, tol)
        return s

    def tail(xstart, side):
        # u = 1/x0 from the side where |x0| >= xstart > 0
        s = 0.0
        for sign in (1.0, -1.0):
            slope = abs((-m01 + sign * side * math.sqrt(c2)) / m11)
            lim = 1.0 / (max(w0, w1 * slope) * 2.0 * math.sqrt(c2))

            def g(u, sign=sign, lim=lim):
                if u == 0.0:
                    return lim
                x0 = 1.0 / u
                sq = math.sqrt(d_of(x0))
                x1 = (-a1(x0) + 2.0 * sign * sq) / (2.0 * m11)
                return 1.0 / ((u * u) * hgt(x0, x1) * 2.0 * sq)

            if side > 0:
                s += integrate(g, 0.0, 1.0 / xstart, tol)
            else:
                s += integrate(g, -1.0 / xstart, 0.0, tol)
        return s

    def vroot_piece(r, orient, dfac_fn, vmax):
        # x0 = r + orient v^2; sqrt(d) = v sqrt(dfac(v)) cancels the root
        s = 0.0
        for sign in (1.0, -1.0):

            def g(v, sign=sign):
                x0 = r + orient * v * v
                df = dfac_fn(v)
                if df <= 0.0:
                    return 0.0
                x1 = (-a1(x0) + 2.0 * sign * v * math.sqrt(df)) / (2.0 * m11)
                return 1.0 / (hgt(x0, x1) * math.sqrt(df))

            s += integrate(g, 0.0, vmax, tol)
        return s

    if c2 == 0:
        # c1 = 0 would force det = 0, so the domain is a half line
        r = -c0 / c1
        orient = 1.0 if c1 > 0 else -1.0
        w = 1.0 + abs(r)
        total = vroot_piece(r, orient, lambda v: float(abs(c1)), math.sqrt(w))
        # tail via x0 = r + orient/u^2: d = |c1| / u^2 exactly; both
        # sign branches share the slope, so the u = 0 limit carries a 2
        slope = abs(m01 / m11)
        lim = 2.0 / (max(w0, w1 * slope) * math.sqrt(abs(c1)))

        def g_far(u):
            if u == 0.0:
                return lim
            x0 = r + orient / (u * u)
            sq = math.sqrt(abs(c1)) / u
            s = 0.0
            for sign in (1.0, -1.0):
                x1 = (-a1(x0) + 2.0 * sign * sq) / (2.0 * m11)
                s += (2.0 / (u**3)) / (hgt(x0, x1) * 2.0 * sq)
            return s

        total += integrate(g_far, 0.0, 1.0 / math.sqrt(w), tol)
        return total

    if disc <= 0:
        if c2 < 0:
            return 0.0  # d < 0 everywhere: empty real locus off x2 = 0
        # d > 0 on all of R: a core window plus two tails
        x = 1.0 + (2.0 * abs(c1) + math.sqrt(float(abs(disc)) + 4.0 * c2 * abs(c0))) / c2
        return plain(-x, x) + tail(x, +1) + tail(x, -1)

    sq = math.sqrt(float(disc))
    roots = sorted(((-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2)))
    r1, r2 = roots
    gap = r2 - r1
    if c2 < 0:
        # bounded band [r1, r2], met from each end up to the midpoint
        vmax = math.sqrt(gap / 2.0)
        total = vroot_piece(r1, 1.0, lambda v: -c2 * (gap - v * v), vmax)
        total += vroot_piece(r2, -1.0, lambda v: -c2 * (gap - v * v), vmax)
        return total
    # c2 > 0: two unbounded sides (-inf, r1] and [r2, inf)
    w = 1.0 + 0.5 * (abs(r1) + abs(r2))
    xfar = max(r2 + w, 1.0 + 2.0 * (abs(r1) + abs(r2)))
    total = vroot_piece(r2, 1.0, lambda v: c2 * (v * v + gap), math.sqrt(w))
    total += plain(r2 + w, xfar) + tail(xfar, +1)
    xfar_l = min(r1 - w, -(1.0 + 2.0 * (abs(r1) + abs(r2))))
    total += vroot_piece(r1, -1.0, lambda v: c2 * (v * v + gap), math.sqrt(w))
    total += plain(xfar_l, r1 - w) + tail(abs(xfar_l), -1)
    return total


def _archimedean_weights(model: HeightModel, y) -> tuple[float, float, float]:
    h = base_height(y)
    return tuple(float(h) ** float(model.A + a_j) for a_j in model.a)


def sigma_inf(surface, model: HeightModel, y, rel_tol: float = 1e-8) -> float:
    """Archimedean density of the fibre over y for the model height."""
    fc, form = _smooth_fibre(surface, model, y)
    return sigma_inf_weights(form, _archimedean_weights(model, fc.y), rel_tol)


# ---------------------------------------------------------------------------
# Tamagawa number and the Peyre constant


def _local_product(fc: FibreClass, form: TernaryForm, model: HeightModel, rel_tol: float):
    """(sigma_inf, {p: sigma_p for p | 2 disc}, tau) of one smooth fibre.

    tau = sigma_inf * (6/pi^2) * prod_p sigma_p p^2/(p^2 - 1), the
    rational product taken in ascending prime order and converted to a
    float once, so every caller gets the same bits.
    """
    s_inf = sigma_inf_weights(form, _archimedean_weights(model, fc.y), rel_tol)
    locals_ = {p: _sigma_p_gram(form.matrix, p) for p in form.bad_primes}
    ratio = Fraction(1)
    for p, s in locals_.items():
        ratio *= s * Fraction(p * p, p * p - 1)
    return s_inf, locals_, s_inf * (6.0 / math.pi**2) * float(ratio)


def tamagawa(surface, model: HeightModel, y, rel_tol: float = 1e-8) -> float:
    """sigma_inf * (6/pi^2) * prod over p | 2 disc of sigma_p/(1 - p^-2).

    The infinite product over good primes is folded into the closed
    value prod_p (1 - p^-2) = 6/pi^2, so quadrature is the only error
    source; the bad Euler factors are exact rationals.
    """
    fc, form = _smooth_fibre(surface, model, y)
    return _local_product(fc, form, model, rel_tol)[2]


def _peyre_constant(fc: FibreClass, form: TernaryForm, model: HeightModel, rel_tol: float) -> float:
    if not is_soluble(form):
        return 0.0
    return _local_product(fc, form, model, rel_tol)[2]


def peyre_constant(surface, model: HeightModel, y, rel_tol: float = 1e-8) -> float:
    """Predicted leading constant of the fibre count: tau, or 0 if insoluble."""
    fc, form = _smooth_fibre(surface, model, y)
    return _peyre_constant(fc, form, model, rel_tol)


@dataclass(frozen=True)
class FibreReport:
    """Everything local the engine knows about one smooth fibre."""

    y: tuple
    soluble: bool
    sigma_inf: float
    quad_tol: float
    sigma_p: dict = field(default_factory=dict)  # bad primes only
    tamagawa: float = 0.0
    peyre: float = 0.0


def _fibre_report(fc: FibreClass, form: TernaryForm, model: HeightModel, rel_tol: float) -> FibreReport:
    soluble = is_soluble(form)
    s_inf, locals_, tau = _local_product(fc, form, model, rel_tol)
    return FibreReport(
        y=fc.y.coords,
        soluble=soluble,
        sigma_inf=s_inf,
        quad_tol=rel_tol,
        sigma_p=locals_,
        tamagawa=tau,
        peyre=tau if soluble else 0.0,
    )


def fibre_report(surface, model: HeightModel, y, rel_tol: float = 1e-8) -> FibreReport:
    fc, form = _smooth_fibre(surface, model, y)
    return _fibre_report(fc, form, model, rel_tol)
