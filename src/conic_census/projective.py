"""Rational points of projective space with exact canonical representatives.

A point of P^n(Q) is stored as the unique integer vector with gcd 1 whose
first nonzero coordinate is positive.  The exponential Weil height of that
representative is simply max |coordinate|, and enumeration walks height
shells in increasing order (lexicographic inside a shell), so downstream
counts never depend on iteration luck.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInputError


class ProjPoint:
    """Canonical representative of a point of P^n(Q)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[int]):
        pt = canonicalize(coords)
        self.coords = pt.coords

    @classmethod
    def _wrap(cls, coords: tuple[int, ...]) -> "ProjPoint":
        # fast path for enumeration: coords already canonical
        self = object.__new__(cls)
        self.coords = coords
        return self

    def height(self) -> int:
        return max(abs(c) for c in self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        if isinstance(other, ProjPoint):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


def canonicalize(raw: Iterable) -> ProjPoint:
    """Canonical integer representative of a rational projective point.

    Accepts any mix of ints and Fractions.  Clears denominators, divides
    out the gcd and flips signs so the first nonzero coordinate is
    positive.  The zero vector is rejected.
    """
    ints = list(raw)
    # integer vectors, the common case, skip the Fraction detour
    if not all(type(c) is int for c in ints):
        vals = [Fraction(c) for c in ints]
        den = math.lcm(*(v.denominator for v in vals))
        ints = [int(v * den) for v in vals]
    g = math.gcd(*ints)
    if g == 0:
        raise InvalidInputError("projective point needs a nonzero coordinate")
    ints = [c // g for c in ints]
    for c in ints:
        if c != 0:
            if c < 0:
                ints = [-x for x in ints]
            break
    return ProjPoint._wrap(tuple(ints))


def height(point: ProjPoint) -> int:
    """Exponential Weil height: max |coordinate| of the canonical rep."""
    return point.height()


def _shell(n: int, h: int) -> Iterator[tuple[int, ...]]:
    """Canonical points of P^n(Q) with height exactly h, lexicographic."""
    dim = n + 1

    def rec(prefix: list[int], seen_nonzero: bool, seen_max: bool):
        k = len(prefix)
        if k == dim:
            if math.gcd(*prefix) == 1:
                yield tuple(prefix)
            return
        lo = -h if seen_nonzero else 0
        if k == dim - 1 and not seen_max:
            candidates: Iterable[int] = (c for c in (-h, h) if c >= lo)
        else:
            candidates = range(lo, h + 1)
        for c in candidates:
            prefix.append(c)
            yield from rec(prefix, seen_nonzero or c != 0, seen_max or abs(c) == h)
            prefix.pop()

    yield from rec([], False, False)


def enumerate_base(n: int, max_height: int) -> Iterator[ProjPoint]:
    """All points of P^n(Q) of height <= max_height.

    Heights are nondecreasing along the stream; inside a height shell the
    order is lexicographic on the canonical coordinates.
    """
    if n < 1:
        raise InvalidInputError("base dimension must be >= 1")
    if max_height < 1:
        return
    for h in range(1, max_height + 1):
        for tup in _shell(n, h):
            yield ProjPoint._wrap(tup)
