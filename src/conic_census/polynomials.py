"""Homogeneous integer polynomials in several variables.

Terms live in a dict mapping exponent tuples to nonzero integer
coefficients; every exponent tuple must sum to the declared degree, so a
zero polynomial still remembers the degree it was declared at.  That
declared degree is what the surface validator checks against.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from .projective import InvalidInputError


class MultiPoly:
    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms: Mapping[tuple, int] | None = None):
        if nvars < 1 or degree < 0:
            raise InvalidInputError("MultiPoly needs nvars >= 1, degree >= 0")
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            c = int(c)
            if c == 0:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps) or sum(exps) != degree:
                raise InvalidInputError(
                    f"monomial {exps} does not fit a degree-{degree} form in {nvars} variables"
                )
            clean[exps] = clean.get(exps, 0) + c
        self.nvars = nvars
        self.degree = degree
        self.terms = {e: c for e, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "MultiPoly":
        return cls(nvars, degree, {})

    # -- ring operations ----------------------------------------------

    def _check_like(self, other: "MultiPoly"):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise InvalidInputError("degree or variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_like(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return MultiPoly(self.nvars, self.degree, t)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, self.degree, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.nvars, self.degree, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise InvalidInputError("variable count mismatch")
        t: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, self.degree + other.degree, t)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (
                self.nvars == other.nvars
                and self.degree == other.degree
                and self.terms == other.terms
            )
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    # -- evaluation and calculus --------------------------------------

    def eval(self, point: Sequence) -> int:
        if len(point) != self.nvars:
            raise InvalidInputError("evaluation point has wrong length")
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def partial(self, i: int) -> "MultiPoly":
        t: dict[tuple[int, ...], int] = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            e[i] -= 1
            t[tuple(e)] = t.get(tuple(e), 0) + c * exps[i]
        return MultiPoly(self.nvars, max(self.degree - 1, 0), t)

    def compose_linear(self, matrix: Sequence[Sequence[int]]) -> "MultiPoly":
        """Substitute variable i -> sum_j matrix[i][j] * w_j (integer matrix)."""
        m = len(matrix[0])
        forms = [
            MultiPoly(m, 1, {tuple(1 if k == j else 0 for k in range(m)): row[j] for j in range(m)})
            for row in matrix
        ]
        out = MultiPoly.zero(m, self.degree)
        for exps, c in self.terms.items():
            prod = MultiPoly(m, 0, {tuple([0] * m): c})
            for i, e in enumerate(exps):
                for _ in range(e):
                    prod = prod * forms[i]
            if prod.degree != self.degree:  # happens only for degree-0 input
                prod = MultiPoly(m, self.degree, prod.terms)
            out = out + prod
        return out

    def min_exponent(self, i: int) -> int:
        """Smallest exponent of variable i over all terms (degree for the zero poly)."""
        if not self.terms:
            return self.degree
        return min(e[i] for e in self.terms)

    # -- display ------------------------------------------------------

    def pretty(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"y{i}" for i in range(self.nvars)]
        bits = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                (names[i] if e == 1 else f"{names[i]}^{e}") for i, e in enumerate(exps) if e
            )
            if not mono:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = mono
            else:
                piece = f"{abs(c)}*{mono}"
            bits.append(("- " if c < 0 else "+ ") + piece)
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self):
        return f"MultiPoly({self.pretty()})"


# -- univariate helpers (used by the squarefree test) ------------------


def binary_to_univariate(poly: MultiPoly) -> list[int]:
    """Coefficients of p(1, u) for a binary form p, index = power of u."""
    if poly.nvars != 2:
        raise InvalidInputError("binary form expected")
    coeffs = [0] * (poly.degree + 1)
    for (_, j), c in poly.terms.items():
        coeffs[j] += c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def univ_degree(coeffs: Sequence) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] != 0:
            return i
    return -1  # zero polynomial


def univ_derivative(coeffs: Sequence) -> list:
    return [i * coeffs[i] for i in range(1, len(coeffs))] or [0]


def univ_gcd_degree(a: Iterable[int], b: Iterable[int]) -> int:
    """Degree of gcd(a, b) over Q (-1 if both zero).

    Euclid on primitive pseudo-remainders in integers: scaling by a
    nonzero integer keeps the gcd over Q, and dividing out each
    remainder's content keeps the coefficients small.
    """
    a, b = list(a), list(b)
    while (db := univ_degree(b)) >= 0:
        r = a
        while (dr := univ_degree(r)) >= db:
            q = r[dr]
            r = [b[db] * c for c in r]
            for i in range(db + 1):
                r[dr - db + i] -= q * b[i]
        g = math.gcd(*r)
        a, b = b, [c // g for c in r] if g else r
    return univ_degree(a)
