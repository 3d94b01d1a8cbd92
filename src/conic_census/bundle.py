"""Conic bundle hypersurfaces over a rational projective base.

A surface is the zero locus of  sum_ij f_ij(y) x_i x_j  inside the
P^2-bundle over P^n with twisting weights (a0, a1, a2) and an offset e;
entry f_ij must be homogeneous of degree a_i + a_j + e.  The Gram matrix
stores the symmetric entries themselves, so forms whose cross terms have
odd coefficients must be pre-scaled by 2 by the caller.

The discriminant det(f_ij) cuts out the singular fibres; over a P^1 base
it must be squarefree (checked here exactly), which is what keeps the
surface itself smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .arith import det3, extgcd, minors_gcd
from .polynomials import (
    MultiPoly,
    binary_to_univariate,
    univ_derivative,
    univ_gcd_degree,
)
from .projective import InvalidInputError, ProjPoint, canonicalize


class SurfaceError(InvalidInputError):
    """The supplied bundle data does not describe a valid smooth surface."""


class ConicBundleSurface:
    __slots__ = ("n", "a", "e", "gram", "_disc")

    def __init__(self, n: int, a: Sequence[int], e: int, gram: Sequence[Sequence[MultiPoly]]):
        self.n = int(n)
        self.a = tuple(int(w) for w in a)
        self.e = int(e)
        self.gram = tuple(tuple(row) for row in gram)
        self._disc: MultiPoly | None = None

    def __getstate__(self):
        return (self.n, self.a, self.e, self.gram)

    def __setstate__(self, state):
        self.n, self.a, self.e, self.gram = state
        self._disc = None

    def __eq__(self, other):
        if isinstance(other, ConicBundleSurface):
            return (self.n, self.a, self.e, self.gram) == (other.n, other.a, other.e, other.gram)
        return NotImplemented

    def entry_degree(self, i: int, j: int) -> int:
        return self.a[i] + self.a[j] + self.e

    def gram_at(self, y: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
        """The integer Gram matrix of the fibre conic over y."""
        vals = [[f.eval(y) for f in row] for row in self.gram]
        return tuple(tuple(row) for row in vals)

    def __repr__(self):
        return f"ConicBundleSurface(n={self.n}, a={self.a}, e={self.e})"


@dataclass(frozen=True)
class FibreClass:
    """Exact local data of the fibre over a base point.

    Computed once per fibre by fibre_class: the canonical base point, the
    integer Gram matrix, its determinant disc and whether the fibre is
    smooth (disc != 0).  The arithmetic that only smooth fibres need
    (factorization of 2 disc, solubility) is cached on the fibre's
    TernaryForm instead.
    """

    y: ProjPoint
    gram: tuple[tuple[int, int, int], ...]
    disc: int
    smooth: bool

    @property
    def minors_gcd(self) -> int:
        """gcd of the 2x2 minors of the Gram matrix, computed on demand."""
        return minors_gcd(self.gram)


def discriminant(surface: ConicBundleSurface) -> MultiPoly:
    """det(f_ij) as an exact form of degree 2(a0+a1+a2) + 3e."""
    if surface._disc is not None:
        return surface._disc
    surface._disc = det3(surface.gram)
    return surface._disc


def validate(surface: ConicBundleSurface) -> None:
    """Raise SurfaceError unless the bundle data is well formed.

    Checks the weight normalisation, the degree matrix, symmetry, a
    nonzero discriminant, and (over a P^1 base) that the discriminant is
    squarefree: gcd(D(1,u), D'(1,u)) must be constant and the factor at
    infinity at most linear.  For n > 1 squarefreeness is asserted, not
    checked.
    """
    if surface.n < 1:
        raise SurfaceError("base dimension must be >= 1")
    if len(surface.a) != 3:
        raise SurfaceError("exactly three bundle weights expected")
    if not (surface.a[0] <= surface.a[1] <= surface.a[2]):
        raise SurfaceError("bundle weights must be nondecreasing")
    if 2 * surface.a[0] + surface.e < 0:
        raise SurfaceError("entry degree a_i + a_j + e must be nonnegative")
    g = surface.gram
    if len(g) != 3 or any(len(row) != 3 for row in g):
        raise SurfaceError("Gram matrix must be 3x3")
    nv = surface.n + 1
    for i in range(3):
        for j in range(3):
            f = g[i][j]
            if not isinstance(f, MultiPoly) or f.nvars != nv:
                raise SurfaceError(f"entry ({i},{j}) is not a form in {nv} variables")
            if f.degree != surface.entry_degree(i, j):
                raise SurfaceError(
                    f"entry ({i},{j}) has degree {f.degree}, "
                    f"expected {surface.entry_degree(i, j)}"
                )
            if f != g[j][i]:
                raise SurfaceError("Gram matrix must be symmetric")
    disc = discriminant(surface)
    if disc.is_zero():
        raise SurfaceError("discriminant vanishes identically")
    if surface.n == 1:
        coeffs = binary_to_univariate(disc)
        if univ_gcd_degree(coeffs, univ_derivative(coeffs)) > 0:
            raise SurfaceError("discriminant is not squarefree")
        if disc.min_exponent(0) > 1:
            raise SurfaceError("discriminant is not squarefree (double factor at infinity)")


def fibre_class(surface: ConicBundleSurface, y) -> FibreClass:
    """Gram matrix, discriminant and minor gcd of the fibre over y."""
    pt = y if isinstance(y, ProjPoint) else canonicalize(y)
    if len(pt) != surface.n + 1:
        raise InvalidInputError("base point has wrong dimension")
    gram = surface.gram_at(pt.coords)
    disc = det3(gram)
    return FibreClass(y=pt, gram=gram, disc=disc, smooth=disc != 0)


# -- importing a cubic surface with a rational line ---------------------


def _unimodular_row_reduce(rows: list[list[int]]) -> list[list[int]]:
    """Unimodular T with T^-1 * A upper-trapezoidal.

    A is handed in as a list of m rows of width 2.  Each unimodular 2-row
    move E = [[s, t], [-q, p]] on A is recorded as E^-1 = [[p, -t], [q, s]]
    on the right of T, so T is the inverse of the product of the moves
    without ever being inverted.  T^-1 * A has zeros below the first two
    rows and below the (1,1) pivot.
    """
    m = len(rows)
    a = [row[:] for row in rows]
    cols = [[int(i == j) for j in range(m)] for i in range(m)]  # columns of T

    def combine(r0: int, r1: int, col: int):
        # unimodular 2-row move making a[r1][col] zero
        x, y = a[r0][col], a[r1][col]
        if y == 0:
            return
        if x == 0:
            a[r0], a[r1] = a[r1], a[r0]
            cols[r0], cols[r1] = cols[r1], cols[r0]
            return
        g = math.gcd(x, y)
        s, t = extgcd(x, y)
        p, q = x // g, y // g
        a[r0], a[r1] = (
            [s * u + t * v for u, v in zip(a[r0], a[r1])],
            [-q * u + p * v for u, v in zip(a[r0], a[r1])],
        )
        cols[r0], cols[r1] = (
            [p * u + q * v for u, v in zip(cols[r0], cols[r1])],
            [-t * u + s * v for u, v in zip(cols[r0], cols[r1])],
        )

    for r in range(1, m):
        combine(0, r, 0)
    for r in range(2, m):
        combine(1, r, 1)
    if a[1][1] == 0:
        raise SurfaceError("the two points do not span a line")
    return [list(row) for row in zip(*cols)]


def import_cubic_with_line(cubic: MultiPoly, p, q) -> ConicBundleSurface:
    """Blow up a cubic hypersurface along a rational line it contains.

    The line through p and q is moved to {z_2 = ... = 0} by an integer
    unimodular change of coordinates, after which substituting
    (z_0, ..., z_{n+2}) = (x_0, x_1, y_0 x_2, ..., y_n x_2) and dividing
    by x_2 leaves a bidegree-(1,2) bundle surface with weights (0,0,1).
    Cross terms with odd coefficients force a global scaling by 2 so the
    Gram entries stay integral (the zero locus is unchanged).
    """
    m = cubic.nvars
    n = m - 3
    if n < 1:
        raise SurfaceError("cubic must live in at least 4 variables")
    if cubic.degree != 3:
        raise SurfaceError("a cubic form is required")
    pp = p if isinstance(p, ProjPoint) else canonicalize(p)
    qq = q if isinstance(q, ProjPoint) else canonicalize(q)
    if len(pp) != m or len(qq) != m:
        raise SurfaceError("spanning points have the wrong dimension")
    if pp == qq:
        raise SurfaceError("the two points do not span a line")
    cols = [[pp[i], qq[i]] for i in range(m)]
    t = _unimodular_row_reduce(cols)
    moved = cubic.compose_linear(t)
    # containment: no monomial may avoid w_2..w_{m-1} entirely
    for exps, c in moved.terms.items():
        if exps[0] + exps[1] == 3:
            raise SurfaceError("the line does not lie on the cubic")

    # substitute w = (x0, x1, y0*x2, ..., yn*x2) and divide by x2
    quad: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
    for exps, c in moved.terms.items():
        alpha, beta = exps[0], exps[1]
        gamma = exps[2:]
        k = sum(gamma)
        xmono = [0, 0, 0]
        xmono[0], xmono[1], xmono[2] = alpha, beta, k - 1
        # x-part after dividing by x2 is degree 2; name it by index pair
        pair = []
        for idx, e in enumerate(xmono):
            pair.extend([idx] * e)
        key = (pair[0], pair[1])
        quad.setdefault(key, {})[gamma] = quad.get(key, {}).get(gamma, 0) + c

    scale = 1
    for (i, j), terms in quad.items():
        if i != j and any(c % 2 for c in terms.values()):
            scale = 2
            break

    a = (0, 0, 1)
    e = 1
    nv = n + 1
    gram_rows = []
    for i in range(3):
        row = []
        for j in range(3):
            deg = a[i] + a[j] + e
            key = (min(i, j), max(i, j))
            terms = quad.get(key, {})
            div = 1 if i == j else 2
            entries = {ex: c * scale // div for ex, c in terms.items()}
            row.append(MultiPoly(nv, deg, entries))
        gram_rows.append(row)
    surface = ConicBundleSurface(n, a, e, gram_rows)
    validate(surface)
    return surface
