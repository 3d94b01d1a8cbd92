"""Non-anticanonical heights on a conic bundle, decided exactly.

The height of a bundle point (y; x) is

    H(y)^A * max_j( H(y)^{a_j} * |x_j| ),    A = n + 1 + alpha - (a0+a1+a2+e),

with alpha a rational parameter.  alpha must exceed the regime threshold
(a0 + a1 + e over a P^1 base, e + 2(a0+a1+a2)/3 in general) and A + a2
must be positive, otherwise fibre boxes never close up.

All comparisons against rational bounds are decided by raising both
sides to the q-th power (q the denominator of alpha) and comparing
integers, never by floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .arith import fraction_root_floor
from .projective import InvalidInputError, ProjPoint, canonicalize


class HeightModel:
    __slots__ = ("n", "a", "e", "alpha", "A")

    def __init__(self, n: int, a: Sequence[int], e: int, alpha):
        self.n = int(n)
        self.a = tuple(int(w) for w in a)
        self.e = int(e)
        self.alpha = Fraction(alpha)
        self.A = self.n + 1 + self.alpha - (sum(self.a) + self.e)
        if self.n == 1:
            threshold = Fraction(self.a[0] + self.a[1] + self.e)
        else:
            threshold = self.e + Fraction(2 * sum(self.a), 3)
        if not self.alpha > threshold:
            raise InvalidInputError(
                f"alpha = {self.alpha} does not exceed the regime threshold {threshold}"
            )
        if not self.A + self.a[2] > 0:
            raise InvalidInputError("A + a2 must be positive; boxes never close up")

    @classmethod
    def for_surface(cls, surface, alpha) -> "HeightModel":
        return cls(surface.n, surface.a, surface.e, alpha)

    def __getstate__(self):
        return (self.n, self.a, self.e, self.alpha, self.A)

    def __setstate__(self, state):
        self.n, self.a, self.e, self.alpha, self.A = state

    def __repr__(self):
        return f"HeightModel(n={self.n}, a={self.a}, e={self.e}, alpha={self.alpha})"


def check_model(surface, model: HeightModel) -> None:
    """Raise unless the height model was built for the surface's bundle data."""
    if (model.n, model.a, model.e) != (surface.n, surface.a, surface.e):
        raise InvalidInputError("height model does not match the surface")


class ExactHeight:
    """Value H(y)^A * m held as (integer base, rational exponent, rational factor).

    The q-th power of the value is rational, so ordering against rational
    bounds (and between heights from the same model) is exact.
    """

    __slots__ = ("base", "exponent", "factor")

    def __init__(self, base: int, exponent: Fraction, factor: Fraction):
        self.base = base
        self.exponent = Fraction(exponent)
        self.factor = Fraction(factor)

    def _qth_power(self, q: int) -> Fraction:
        r = self.exponent * q
        assert r.denominator == 1
        return Fraction(self.base) ** int(r) * self.factor**q

    def compare(self, bound) -> int:
        """-1, 0 or 1 against a rational bound, decided exactly."""
        b = Fraction(bound)
        if b < 0:
            return 1
        q = self.exponent.denominator
        lhs = self._qth_power(q)
        rhs = b**q
        return (lhs > rhs) - (lhs < rhs)

    def __le__(self, other):
        if isinstance(other, ExactHeight):
            return self._sub_cmp(other) <= 0
        return self.compare(other) <= 0

    def __lt__(self, other):
        if isinstance(other, ExactHeight):
            return self._sub_cmp(other) < 0
        return self.compare(other) < 0

    def __eq__(self, other):
        if isinstance(other, ExactHeight):
            return self._sub_cmp(other) == 0
        return self.compare(other) == 0

    def _sub_cmp(self, other: "ExactHeight") -> int:
        q = math.lcm(self.exponent.denominator, other.exponent.denominator)
        lhs, rhs = self._qth_power(q), other._qth_power(q)
        return (lhs > rhs) - (lhs < rhs)

    def as_fraction(self) -> Fraction:
        """Exact value when the exponent is integral (raises otherwise)."""
        if self.exponent.denominator != 1:
            raise InvalidInputError("height is irrational; use approx()")
        return Fraction(self.base) ** int(self.exponent) * self.factor

    def approx(self) -> float:
        return float(self.base) ** float(self.exponent) * float(self.factor)

    def __repr__(self):
        return f"~{self.approx():.6g}"


def standard_height(model: HeightModel, y, x: Sequence[int]) -> ExactHeight:
    """H*(y; x) for the canonical representatives of y and x."""
    pty = y if isinstance(y, ProjPoint) else canonicalize(y)
    if len(pty) != model.n + 1:
        raise InvalidInputError("base point has wrong dimension")
    ptx = x if isinstance(x, ProjPoint) else canonicalize(x)
    if len(ptx) != 3:
        raise InvalidInputError("fibre point needs three coordinates")
    hy = pty.height()
    factor = max(Fraction(hy) ** model.a[j] * abs(ptx[j]) for j in range(3))
    return ExactHeight(hy, model.A, factor)


def fibre_box(model: HeightModel, y, bound) -> tuple[int, int, int]:
    """Componentwise box (b0, b1, b2) with |x_j| <= b_j  iff  H* <= bound.

    b_j = floor(bound / H(y)^(A + a_j)), computed exactly.  Over Q the
    box test is equivalent to the height test, not just an approximation.
    The box is empty for counting purposes when b2 = 0: no fibre point
    with x2 != 0 fits.
    """
    pty = y if isinstance(y, ProjPoint) else canonicalize(y)
    b = Fraction(bound)
    if b <= 0:
        return (0, 0, 0)
    hy = pty.height()
    q = model.A.denominator
    bq = b**q
    out = []
    for j in range(3):
        p = int((model.A + model.a[j]) * q)
        out.append(fraction_root_floor(bq / Fraction(hy) ** p, q))
    return tuple(out)


def base_bound(model: HeightModel, bound) -> int:
    """Largest base height T whose fibres can carry points of height <= bound."""
    b = Fraction(bound)
    if b < 1:
        return 0
    q = model.A.denominator
    p2 = int((model.A + model.a[2]) * q)
    return fraction_root_floor(b**q, p2)
