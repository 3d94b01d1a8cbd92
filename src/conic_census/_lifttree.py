"""Level counts N(p^n) by lift-and-count, and the density they stabilize to.

This is the reference oracle for the closed-form sigma_p of localdata:
it counts solutions x mod p^n of Q = 0, x not identically 0 mod p, by
walking the tree of lifts, and needs nothing from the Z_p-class of the
Gram matrix.  Only count_points_mod and the tests import it, so
`import conic_census` never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .arith import det3, valuation
from .errors import BudgetExceeded, EngineError

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


def _divide_out(m, p):
    """m / p when p divides every entry, else None."""
    if all(v % p == 0 for row in m for v in row):
        return [[v // p for v in row] for row in m]
    return None


def level_count(m, p: int, n: int) -> int:
    """N(p^n) of the Gram matrix m, for a prime p and n >= 1."""
    inner = _divide_out(m, p)
    if inner is not None:
        # Q = p Q': a primitive solution mod p^n is any lift of one mod p^(n-1)
        return p**3 - 1 if n == 1 else p**3 * level_count(inner, p, n - 1)
    return _evolve_counts(m, p, n)[n - 1]


def lift_tree_density(m, p: int) -> Fraction:
    """sigma_p = N(p^n) / p^(2n) once the level counts grow p^2-fold.

    Each level n from 2 v_p(det) + 2 on restarts the tree to level
    n + 2; the first n with N(p^(n+1)) = p^2 N(p^n) gives the density,
    and the next level must grow p^2-fold too.
    """
    inner = _divide_out(m, p)
    if inner is not None:
        return p * lift_tree_density(inner, p)
    v = valuation(det3(m), p)
    first = 2 * v + 2
    for n in range(first, first + 9):
        counts = _evolve_counts(m, p, n + 2)
        if counts[n] == p * p * counts[n - 1]:
            if counts[n + 1] != p * p * counts[n]:
                raise EngineError("Hensel stabilization audit failed")
            return Fraction(counts[n - 1], p ** (2 * n))
    raise EngineError(f"p-adic density failed to stabilize at p={p}")
