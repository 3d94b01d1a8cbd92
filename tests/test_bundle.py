"""Surface validation, discriminants, fibre data and the cubic import."""

import math
import random

import pytest
import sympy

from conic_census import (
    ConicBundleSurface,
    MultiPoly,
    SurfaceError,
    canonicalize,
    discriminant,
    fibre_class,
    import_cubic_with_line,
    validate,
)
from conic_census.bundle import _unimodular_row_reduce
from conic_census.models import (
    difference_of_squares_bundle,
    mixed_bundle,
    sample_cubic_with_line,
    two_squares_bundle,
)


def brute_det(gram, y):
    """Oracle: numeric determinant of the evaluated Gram matrix."""
    m = [[f.eval(y) for f in row] for row in gram]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_two_squares_bundle_validates_and_disc():
    s = two_squares_bundle()
    validate(s)
    d = discriminant(s)
    assert d == MultiPoly(2, 2, {(1, 1): -1})  # det diag(1, 1, -y0 y1)


def test_discriminant_matches_pointwise_oracle():
    rng = random.Random(11)
    for s in (two_squares_bundle(), mixed_bundle()):
        d = discriminant(s)
        for _ in range(25):
            y = (rng.randint(-30, 30), rng.randint(-30, 30))
            assert d.eval(y) == brute_det(s.gram, y)


def test_degree_matrix_enforced():
    # f22 of degree 1 cannot sit in a (0,0,1), e=0 bundle (needs degree 2)
    c1 = MultiPoly(2, 0, {(0, 0): 1})
    z0 = MultiPoly.zero(2, 0)
    z1 = MultiPoly.zero(2, 1)
    bad = MultiPoly(2, 1, {(1, 0): 1})
    s = ConicBundleSurface(1, (0, 0, 1), 0, [[c1, z0, z1], [z0, c1, z1], [z1, z1, bad]])
    with pytest.raises(SurfaceError, match="degree"):
        validate(s)


def test_symmetry_enforced():
    c1 = MultiPoly(2, 0, {(0, 0): 1})
    z0 = MultiPoly.zero(2, 0)
    z1 = MultiPoly.zero(2, 1)
    y0y1 = MultiPoly(2, 2, {(1, 1): 1})
    lin = MultiPoly(2, 1, {(1, 0): 1})
    rows = [[c1, z0, lin], [z0, c1, z1], [z1, z1, y0y1]]  # f02 != f20
    with pytest.raises(SurfaceError, match="symmetric"):
        validate(ConicBundleSurface(1, (0, 0, 1), 0, rows))


def test_zero_discriminant_rejected():
    z0 = MultiPoly.zero(2, 0)
    z1 = MultiPoly.zero(2, 1)
    z2 = MultiPoly.zero(2, 2)
    c1 = MultiPoly(2, 0, {(0, 0): 1})
    s = ConicBundleSurface(1, (0, 0, 1), 0, [[c1, z0, z1], [z0, z0, z1], [z1, z1, z2]])
    with pytest.raises(SurfaceError, match="vanishes"):
        validate(s)


def test_non_squarefree_rejected():
    # f22 = -(y0 - y1)^2 gives disc = -(y0 - y1)^2: finite double root
    c1 = MultiPoly(2, 0, {(0, 0): 1})
    z0 = MultiPoly.zero(2, 0)
    z1 = MultiPoly.zero(2, 1)
    f22 = MultiPoly(2, 2, {(2, 0): -1, (1, 1): 2, (0, 2): -1})
    s = ConicBundleSurface(1, (0, 0, 1), 0, [[c1, z0, z1], [z0, c1, z1], [z1, z1, f22]])
    with pytest.raises(SurfaceError, match="squarefree"):
        validate(s)
    # f22 = -y0^2: double factor at infinity (invisible after setting y0 = 1)
    f22b = MultiPoly(2, 2, {(2, 0): -1})
    s2 = ConicBundleSurface(1, (0, 0, 1), 0, [[c1, z0, z1], [z0, c1, z1], [z1, z1, f22b]])
    with pytest.raises(SurfaceError, match="squarefree"):
        validate(s2)


def test_fibre_class_values():
    s = two_squares_bundle()
    fc = fibre_class(s, canonicalize((1, 6)))
    assert fc.gram == ((1, 0, 0), (0, 1, 0), (0, 0, -6))
    assert fc.disc == -6
    assert fc.minors_gcd == 1
    assert fc.smooth
    sing = fibre_class(s, canonicalize((1, 0)))
    assert sing.disc == 0 and not sing.smooth


def test_minor_gcd_cubed_divides_disc_squared():
    rng = random.Random(23)
    surfaces = [two_squares_bundle(), mixed_bundle(), import_cubic_with_line(*sample_cubic_with_line())]
    for s in surfaces:
        for _ in range(80):
            y = canonicalize((rng.randint(-40, 40), rng.choice([c for c in range(-40, 41) if c])))
            fc = fibre_class(s, y)
            if not fc.smooth:
                continue
            assert (fc.disc * fc.disc) % (fc.minors_gcd**3) == 0


def test_minor_gcd_bounded_over_p1():
    # over P^1 the minor gcd takes only finitely many values: the sup over
    # heights <= 25 already equals the sup over heights <= 5
    for s in (two_squares_bundle(), mixed_bundle()):
        sup_small = 0
        sup_large = 0
        from conic_census import enumerate_base

        for y in enumerate_base(1, 25):
            fc = fibre_class(s, y)
            if not fc.smooth:
                continue
            if y.height() <= 5:
                sup_small = max(sup_small, fc.minors_gcd)
            sup_large = max(sup_large, fc.minors_gcd)
        assert sup_large == sup_small


def test_import_cubic_fixture():
    cubic, p, q = sample_cubic_with_line()
    s = import_cubic_with_line(cubic, p, q)
    assert s.n == 1 and s.a == (0, 0, 1) and s.e == 1
    y0 = MultiPoly(2, 1, {(1, 0): 1})
    y1 = MultiPoly(2, 1, {(0, 1): 1})
    cubes = MultiPoly(2, 3, {(3, 0): 1, (0, 3): 1})
    assert s.gram[0][0] == y0
    assert s.gram[1][1] == y1
    assert s.gram[2][2] == cubes
    for i in range(3):
        for j in range(3):
            if i != j:
                assert s.gram[i][j].is_zero()


def test_import_cubic_rejects_line_not_on_cubic():
    cubic, p, q = sample_cubic_with_line()
    with pytest.raises(SurfaceError, match="does not lie"):
        import_cubic_with_line(cubic, (1, 0, 0, 0), (0, 0, 1, 0))


def test_import_cubic_rejects_degenerate_span():
    cubic, p, q = sample_cubic_with_line()
    with pytest.raises(SurfaceError, match="span"):
        import_cubic_with_line(cubic, (1, 0, 0, 0), (2, 0, 0, 0))


def test_import_cubic_moved_line():
    # same cubic after swapping z0 <-> z2 and z1 <-> z3: the line is now
    # z0 = z1 = 0, spanned by e2, e3; the import must still succeed
    cubic, _, _ = sample_cubic_with_line()
    swapped = cubic.compose_linear([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    s = import_cubic_with_line(swapped, (0, 0, 1, 0), (0, 0, 0, 1))
    validate(s)
    # blow-up of the same cubic along the same line: identical fibre data
    ref = import_cubic_with_line(*sample_cubic_with_line())
    for y in [(1, 1), (1, 2), (2, 1), (1, -3), (5, 2)]:
        a = fibre_class(ref, canonicalize(y))
        b = fibre_class(s, canonicalize(y))
        assert abs(a.disc) == abs(b.disc)


def test_unimodular_row_reduce_moves_line_to_first_plane():
    # sympy checks that T is unimodular and that T^-1 sends p and q into
    # span(e0, e1), the plane the cubic import substitutes into
    rng = random.Random(29)
    done = 0
    while done < 200:
        m = rng.randint(4, 6)
        p = [rng.randint(-9, 9) for _ in range(m)]
        q = [rng.randint(-9, 9) for _ in range(m)]
        pq = sympy.Matrix([p, q]).T
        if pq.rank() < 2:
            continue
        t = sympy.Matrix(_unimodular_row_reduce([[a, b] for a, b in zip(p, q)]))
        assert t.det() in (1, -1)
        moved = t.inv() * pq
        assert all(v.is_integer for v in moved)
        assert moved[2:, :].is_zero_matrix
        done += 1


def test_northcott_surface_validates():
    s = difference_of_squares_bundle(12)
    d = discriminant(s)
    assert d.degree == 24
    # disc = product of the 24 distinct linear forms y0 - j y1
    prod = MultiPoly(2, 0, {(0, 0): 1})
    for j in range(24):
        prod = prod * MultiPoly(2, 1, {(1, 0): 1, (0, 1): -j})
    assert d == prod
