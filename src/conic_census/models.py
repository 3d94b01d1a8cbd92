"""Ready-made bundle surfaces used by the probes, the docs and the tests."""

from __future__ import annotations

from .bundle import ConicBundleSurface, validate
from .polynomials import MultiPoly
from .projective import InvalidInputError


def two_squares_bundle() -> ConicBundleSurface:
    """x0^2 + x1^2 = y0 y1 x2^2 over P^1, weights (0, 0, 1), e = 0.

    The fibre over (1 : t) is the conic x0^2 + x1^2 = t x2^2, the main
    worked example for the conjecture probes.
    """
    c1 = MultiPoly(2, 0, {(0, 0): 1})
    z0 = MultiPoly.zero(2, 0)
    z1 = MultiPoly.zero(2, 1)
    f22 = MultiPoly(2, 2, {(1, 1): -1})
    surface = ConicBundleSurface(1, (0, 0, 1), 0, [[c1, z0, z1], [z0, c1, z1], [z1, z1, f22]])
    validate(surface)
    return surface


def difference_of_squares_bundle(a: int, f: MultiPoly | None = None) -> ConicBundleSurface:
    """x0^2 - x1^2 = f(y0, y1) x2^2 over P^1, weights (0, 0, a), e = 0.

    Needs 3 | a and a > 9 so the section height exponent 3 - a/3 goes
    negative.  The default f is the squarefree product of the 2a linear
    forms y0 - j*y1, j = 0 .. 2a-1.
    """
    if a % 3 or a <= 9:
        raise InvalidInputError("need 3 | a and a > 9")
    if f is None:
        f = MultiPoly(2, 0, {(0, 0): 1})
        for j in range(2 * a):
            f = f * MultiPoly(2, 1, {(1, 0): 1, (0, 1): -j})
    if f.nvars != 2 or f.degree != 2 * a:
        raise InvalidInputError(f"f must be a binary form of degree {2 * a}")
    c1 = MultiPoly(2, 0, {(0, 0): 1})
    z0 = MultiPoly.zero(2, 0)
    za = MultiPoly.zero(2, a)
    gram = [[c1, z0, za], [z0, -1 * c1, za], [za, za, -1 * f]]
    surface = ConicBundleSurface(1, (0, 0, a), 0, gram)
    validate(surface)
    return surface


def mixed_bundle() -> ConicBundleSurface:
    """A dense Gram matrix over P^1 with weights (0, 1, 1), e = 0.

    Frozen from a small-coefficient search; its discriminant
    s^4 + 3 s^3 t - 2 s t^3 + 4 t^4 is squarefree and most small fibres
    are real-indefinite, so it exercises the non-diagonal code paths.
    """
    f00 = MultiPoly(2, 0, {(0, 0): -1})
    f01 = MultiPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    f02 = MultiPoly(2, 1, {(1, 0): 1, (0, 1): -1})
    f11 = MultiPoly(2, 2, {(1, 1): 1, (0, 2): 1})
    f12 = MultiPoly(2, 2, {(1, 1): 1, (0, 2): -1})
    f22 = MultiPoly(2, 2, {(2, 0): -1, (1, 1): 1, (0, 2): -1})
    surface = ConicBundleSurface(
        1, (0, 1, 1), 0, [[f00, f01, f02], [f01, f11, f12], [f02, f12, f22]]
    )
    validate(surface)
    return surface


def sample_cubic_with_line() -> tuple[MultiPoly, tuple[int, ...], tuple[int, ...]]:
    """A smooth cubic surface containing the line z2 = z3 = 0.

    Returns (cubic, p, q) ready for import_cubic_with_line; the blow-up
    along that line is the bundle with Gram diag(y0, y1, y0^3 + y1^3).
    """
    cubic = MultiPoly(
        4,
        3,
        {
            (2, 0, 1, 0): 1,  # z0^2 z2
            (0, 2, 0, 1): 1,  # z1^2 z3
            (0, 0, 3, 0): 1,  # z2^3
            (0, 0, 0, 3): 1,  # z3^3
        },
    )
    return cubic, (1, 0, 0, 0), (0, 1, 0, 0)
