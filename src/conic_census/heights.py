"""Non-anticanonical heights on a conic bundle, decided exactly.

The height of a bundle point (y; x) is

    H(y)^A * max_j( H(y)^{a_j} * |x_j| ),    A = n + 1 + alpha - (a0+a1+a2+e),

with alpha a rational parameter.  alpha must exceed the regime threshold
(a0 + a1 + e over a P^1 base, e + 2(a0+a1+a2)/3 in general) and A + a2
must be positive, otherwise fibre boxes never close up.

A point lies under a rational bound B exactly when it lies in the box
of fibre_box.  Each side of that box is one integer q-th root (q the
denominator of alpha): both sides of the height test are raised to the
q-th power, so integers decide it, never floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arith import nth_root_floor
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
    num, den = b.numerator**q, b.denominator**q
    out = []
    for w in model.a:
        # b_j^q <= B^q / H(y)^p with p = (A + a_j) q; b_j^q is an integer,
        # so comparing it with the floor of the right side is exact
        p = model.A.numerator + w * q
        out.append(nth_root_floor(num // (den * hy**p) if p >= 0 else num * hy**-p // den, q))
    return tuple(out)


def base_bound(model: HeightModel, bound) -> int:
    """Largest base height T whose fibres can carry points of height <= bound."""
    b = Fraction(bound)
    if b < 1:
        return 0
    q = model.A.denominator
    p2 = model.A.numerator + model.a[2] * q
    return nth_root_floor(b.numerator**q // b.denominator**q, p2)
