"""Solubility, point finding, parametrization and the two counting strategies."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conic_census import (
    BudgetExceeded,
    EngineError,
    HeightModel,
    InvalidInputError,
    TernaryForm,
    count_fibre,
    find_point,
    hilbert_symbol,
    insoluble_places,
    is_soluble,
    local_solubility,
    parametrize,
)
from conic_census.conics import (
    _AUTO_BOX_LIMIT,
    _box_numpy_safe,
    _count_box,
    _count_box_numpy,
    _count_box_python,
    _count_parametrized,
    _has_root,
    _quad_abs_le,
    _reduce_basis,
    _root_digits,
    _row_range,
    _surd_sign,
)
from conic_census.arith import det3, factorize, minors_gcd
from conic_census.bundle import fibre_class
from conic_census.census import count_total
from conic_census.heights import fibre_box
from conic_census.models import difference_of_squares_bundle, mixed_bundle, two_squares_bundle
from conic_census.projective import enumerate_base

INF = math.inf


def diag(a, b, c):
    return TernaryForm([[a, 0, 0], [0, b, 0], [0, 0, c]])


CIRCLE = diag(1, 1, -1)


def model_x(alpha=1):
    return HeightModel(n=1, a=(0, 0, 1), e=0, alpha=Fraction(alpha))


def brute_box_count(form, bounds):
    """Oracle: direct triple loop over the box, canonical reps with x2 >= 1."""
    b0, b1, b2 = bounds
    m = form.matrix
    total = 0
    for x2 in range(1, b2 + 1):
        for x1 in range(-b1, b1 + 1):
            for x0 in range(-b0, b0 + 1):
                v = (x0, x1, x2)
                if form.evaluate(v) == 0 and math.gcd(x0, x1, x2) == 1:
                    total += 1
    return total


def random_nondiagonal_forms(seed, count, size=9):
    """Seeded nondegenerate forms with a nonzero cross term.  Every third
    has m00 = m11 = 0, so that the plane x2 = 0 meets the conic in both
    (1 : 0 : 0) and (0 : 1 : 0)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c, d, e, f = (rng.randint(-size, size) for _ in range(6))
        if len(out) % 3 == 0:
            a = b = 0
        if d == e == f == 0:
            continue
        try:
            out.append(TernaryForm([[a, d, e], [d, b, f], [e, f, c]]))
        except InvalidInputError:
            continue
    return out


def seeded_special_forms(seed, count, size=9):
    """Seeded nondegenerate nondiagonal forms in four kinds, taken in
    turn: generic, m00 = 0, leading 2x2 minor m00 m11 - m01^2 = 0 with
    m00 != 0, and whole diagonal zero.  The last three send the
    diagonal congruence through a pivot swap or a zero-block shear."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c, d, e, f = (rng.randint(-size, size) for _ in range(6))
        kind = len(out) % 4
        if kind == 1:
            a = 0
        elif kind == 2:
            a = rng.choice([x for x in range(-size, size + 1) if x])
            g, h = rng.randint(-3, 3), rng.randint(-3, 3)
            a, b, d = a * g * g, a * h * h, a * g * h
        elif kind == 3:
            a = b = c = 0
        if d == e == f == 0:
            continue
        try:
            out.append(TernaryForm([[a, d, e], [d, b, f], [e, f, c]]))
        except InvalidInputError:
            continue
    return out


# ---------------------------------------------------------------------------
# TernaryForm basics


def test_form_validation():
    with pytest.raises(InvalidInputError, match="symmetric"):
        TernaryForm([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InvalidInputError, match="degenerate"):
        TernaryForm([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert CIRCLE.det == -1
    assert minors_gcd(CIRCLE.matrix) == 1
    assert CIRCLE.evaluate((3, 4, 5)) == 0
    assert CIRCLE.evaluate((1, 1, 1)) == 1


def test_reduction_is_congruence_up_to_scale():
    # back^T M back must be an exact positive rational multiple of diag(m)
    rng = random.Random(5)
    tested = 0
    special = seeded_special_forms(5, 80)
    while tested < 40 + len(special):
        if tested < 40:
            entries = [rng.randint(-9, 9) for _ in range(6)]
            a, b, c, d, e, f = entries
            mat = [[a, d, e], [d, b, f], [e, f, c]]
            try:
                form = TernaryForm(mat)
            except InvalidInputError:
                continue
        else:
            form = special[tested - 40]
            mat = form.matrix
        (m0, m1, m2), back = form.reduced()
        m = (m0, m1, m2)
        prod = [[sum(back[k][i] * mat[k][l] * back[l][j] for k in range(3) for l in range(3))
                 for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert prod[i][j] == 0
        lam = Fraction(prod[0][0], m[0])
        assert lam > 0
        assert all(Fraction(prod[i][i], m[i]) == lam for i in range(3))
        # reduced coefficients are squarefree and pairwise coprime
        for i in range(3):
            for j in range(i + 1, 3):
                assert math.gcd(m[i], m[j]) == 1
        assert all(v == int(v) for row in back for v in row)
        assert all(max(factorize(c).values(), default=1) == 1 for c in m)
        tested += 1


def test_parabola_reduces_to_unit_coefficients():
    par = TernaryForm([[0, 0, -1], [0, 2, 0], [-1, 0, 0]])
    coeffs, _ = par.reduced()
    assert sorted(abs(c) for c in coeffs) == [1, 1, 1]


def test_zero_block_shear_matches_rational_elimination():
    # the pivot swap leaves one later column with a zero cross term; it is
    # scaled with the other, so the zero-block shear that follows adds
    # like to like and the model is the rational elimination's (-15, -1, 1),
    # where a mismatched scale would give (-5, -1, 1)
    form = TernaryForm([[0, 0, -10], [0, -12, 6], [-10, 6, -3]])
    assert form.reduced()[0] == (-15, -1, 1)
    assert find_point(form) == (0, 1, 2)


# ---------------------------------------------------------------------------
# Hilbert symbols and local solubility


HILBERT_TABLE = [
    # worked by hand from the p-adic square classes
    (5, 3, 2, 1),
    (2, 5, 2, -1),
    (-1, -1, 2, -1),
    (3, 3, 3, -1),
    (5, 5, 5, 1),
    (-1, -1, INF, -1),
    (2, 7, 7, 1),
    (7, 7, 7, -1),
]


@pytest.mark.parametrize("a,b,p,expect", HILBERT_TABLE)
def test_hilbert_hand_table(a, b, p, expect):
    assert hilbert_symbol(a, b, p) == expect


def test_hilbert_symmetry_and_multiplicativity():
    rng = random.Random(7)
    places = [2, 3, 5, 7, 11, INF]
    for _ in range(200):
        a = rng.choice([x for x in range(-30, 31) if x])
        b = rng.choice([x for x in range(-30, 31) if x])
        c = rng.choice([x for x in range(-30, 31) if x])
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
        assert hilbert_symbol(a, -a, v) == 1
        assert hilbert_symbol(a, a * a, v) == 1


def test_hilbert_product_formula():
    from conic_census.arith import prime_divisors

    rng = random.Random(13)
    for _ in range(100):
        a = rng.choice([x for x in range(-50, 51) if x])
        b = rng.choice([x for x in range(-50, 51) if x])
        prod = hilbert_symbol(a, b, INF)
        for p in prime_divisors(2 * a * b):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1


def test_hilbert_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(InvalidInputError):
        hilbert_symbol(1, 1, 6)
    # non-integer places and arguments are rejected, not truncated
    for a, b, place in ((2, 3, 3.5), (5, 3, 7.9), (1.5, 2, 3), (2, 3, "x"), (2.0, 3, 3)):
        with pytest.raises(InvalidInputError):
            hilbert_symbol(a, b, place)
    with pytest.raises(InvalidInputError):
        local_solubility(CIRCLE, "INF")


def test_local_solubility_examples():
    for place in (INF, 2, 3, 5, 7):
        assert local_solubility(CIRCLE, place)
    assert not local_solubility(diag(1, 1, 1), INF)
    assert not local_solubility(diag(1, 1, -3), 3)
    assert insoluble_places(diag(1, 1, -3)) == (2, 3)
    assert insoluble_places(diag(1, 1, 1)) == (INF, 2)
    assert insoluble_places(CIRCLE) == ()


def test_mod_27_brute_force_agrees_at_3():
    # x0^2 + x1^2 = 3 x2^2 has no primitive solution mod 27
    form = diag(1, 1, -3)
    for x0 in range(27):
        for x1 in range(27):
            for x2 in range(27):
                if x0 % 3 == 0 and x1 % 3 == 0 and x2 % 3 == 0:
                    continue
                assert (x0 * x0 + x1 * x1 - 3 * x2 * x2) % 27 != 0


def test_insoluble_place_count_is_even():
    rng = random.Random(3)
    for _ in range(120):
        c = [rng.choice([x for x in range(-15, 16) if x]) for _ in range(3)]
        form = diag(*c)
        assert len(insoluble_places(form)) % 2 == 0
    for form in seeded_special_forms(3, 200, size=30):
        assert len(insoluble_places(form)) % 2 == 0


def test_local_solubility_matches_lift_tree_and_signature():
    # an independent witness per place: at p | 2 det, the lift tree's
    # density is positive exactly when the conic has a Q_p-point; at inf,
    # a real point exists exactly when M is indefinite (Sylvester)
    from conic_census._lifttree import lift_tree_density

    forms = seeded_special_forms(11, 160, size=9) + [diag(1, 1, -3), diag(1, 1, 1), CIRCLE]
    for form in forms:
        m = form.matrix
        minor = m[0][0] * m[1][1] - m[0][1] ** 2
        definite = m[0][0] != 0 and minor > 0 and (m[0][0] > 0) == (form.det > 0)
        assert local_solubility(form, INF) == (not definite)
        for p in form.bad_primes:
            if p <= 13:
                assert local_solubility(form, p) == (lift_tree_density(m, p) > 0), (m, p)


def test_is_soluble_fermat_pattern():
    assert is_soluble(diag(1, 1, -5))
    assert not is_soluble(diag(1, 1, -3))
    assert is_soluble(diag(1, 1, -65))
    assert not is_soluble(diag(1, 1, -7))
    assert is_soluble(diag(1, 1, -13 * 17))


# ---------------------------------------------------------------------------
# point finding


def test_find_point_examples():
    assert find_point(CIRCLE) == (1, 0, 1)
    p = find_point(diag(1, 1, -5))
    assert p is not None
    assert p[0] ** 2 + p[1] ** 2 == 5 * p[2] ** 2
    assert sorted(abs(c) for c in p) == [1, 1, 2]
    assert find_point(diag(1, 1, 3)) is None
    assert find_point(diag(1, 1, -7)) is None


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 41, 53, 61])
def test_find_point_holzer_bound_on_diagonal(p):
    # on x0^2 + x1^2 = p x2^2 a Holzer-reduced point has |x2| <= 1
    pt = find_point(diag(1, 1, -p))
    assert pt is not None
    x0, x1, x2 = pt
    assert x0 * x0 + x1 * x1 == p * x2 * x2
    assert abs(x2) == 1
    assert max(abs(x0), abs(x1)) <= math.isqrt(p)


def test_find_point_always_on_conic():
    rng = random.Random(17)
    found = 0
    while found < 60:
        c = [rng.choice([x for x in range(-20, 21) if x]) for _ in range(3)]
        form = diag(*c)
        pt = find_point(form)
        if pt is None:
            assert not is_soluble(form)
            continue
        assert form.evaluate(pt) == 0
        assert math.gcd(*pt) == 1
        found += 1
    for form in seeded_special_forms(17, 120, size=12):
        pt = find_point(form)
        assert (pt is None) == (not is_soluble(form))
        if pt is not None:
            assert form.evaluate(pt) == 0
            assert math.gcd(*pt) == 1


# ---------------------------------------------------------------------------
# parametrization


def fraction_reduce_basis(p, e1, e2):
    """Oracle: Lagrange reduction of (E1, E2) on the plane orthogonal to p
    in Fractions, rounding halves to even through round(Fraction)."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def size_reduce(e):
        k = round(Fraction(dot(e, p), dot(p, p)))
        return tuple(e[i] - k * p[i] for i in range(3))

    def perp_dot(a, b):
        return dot(a, b) - Fraction(dot(a, p) * dot(b, p), dot(p, p))

    e1, e2 = size_reduce(e1), size_reduce(e2)
    for _ in range(64):
        n1 = perp_dot(e1, e1)
        k = round(perp_dot(e1, e2) / n1)
        if k:
            e2 = tuple(e2[i] - k * e1[i] for i in range(3))
        if perp_dot(e2, e2) < n1:
            e1, e2 = e2, e1
        else:
            break
    return size_reduce(e1), size_reduce(e2)


def test_reduce_basis_matches_fraction_oracle_on_half_ties():
    # exact halves in the Lagrange step (p = (0, 0, 1), e1 = (2, 0, 0)) and
    # in the size reduction (p = (1, 1, 0), p.p = 2), on both sides of zero
    ties = [((0, 0, 1), (2, 0, 0), (x, 3, 0)) for x in (-5, -3, -1, 1, 3, 5)]
    ties += [((1, 1, 0), (x, 0, 0), (0, 0, 1)) for x in (-3, -1, 1, 3)]
    ties += [((1, 1, 0), (x, x + 1, 0), (x, -x, 2)) for x in (-2, -1, 1, 2)]
    assert _reduce_basis(*ties[1]) == ((2, 0, 0), (1, 3, 0))  # -3/2 rounds to -2
    assert _reduce_basis(*ties[3]) == ((2, 0, 0), (1, 3, 0))  # 1/2 rounds to 0
    rng = random.Random(53)
    cases = list(ties)
    while len(cases) < len(ties) + 300:
        p, e1, e2 = (tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(3))
        if det3((p, e1, e2)):
            cases.append((p, e1, e2))
    for p, e1, e2 in cases:
        assert _reduce_basis(p, e1, e2) == fraction_reduce_basis(p, e1, e2)


def test_parametrize_circle_shape():
    par = parametrize(CIRCLE)
    assert par.phi == ((-1, 0, 1), (0, 2, 0), (1, 0, 1))
    assert par.content_bound == 2
    # Q(phi(u, v)) vanishes identically: check the 5 quartic coefficients
    coeffs = [0] * 5
    for j in range(3):
        row = par.phi[j]
        quart = [0] * 5
        for s in range(3):
            for t in range(3):
                quart[s + t] += row[s] * row[t] * (1, 1, -1)[j]
        for k in range(5):
            coeffs[k] += quart[k]
    assert coeffs == [0] * 5


def test_parametrize_identity_for_random_forms():
    rng = random.Random(23)
    done = 0
    while done < 30:
        c = [rng.choice([x for x in range(-12, 13) if x]) for _ in range(3)]
        form = diag(*c)
        if not is_soluble(form):
            continue
        par = parametrize(form)
        for u, v in [(1, 0), (0, 1), (1, 1), (3, -2), (7, 5), (-4, 9)]:
            assert form.evaluate(par.raw(u, v)) == 0
        done += 1


# forms whose content bound carries a deep prime power: the Gram matrix
# [[0, 0, -c], [0, d, 0], [-c, 0, 0]] has g = c at the base point (1 : 0 : 0)
DEEP_FORMS = [
    TernaryForm([[0, 0, -c], [0, d, 0], [-c, 0, 0]])
    for c, d in ((2**3, 1), (2**7, 1), (2**13, 1), (2**20, 1), (3**9, 1), (3**9, 2),
                 (5**6, 1), (5**6, 2), (7**5, 2), (2**13 * 3, 6))
]


def soluble_seeded_forms(seed, count, size=9):
    return [f for f in seeded_special_forms(seed, count, size) if is_soluble(f)]


def test_parametrize_content_divides_bound():
    rng = random.Random(29)
    forms = []
    while len(forms) < 25:
        c = [rng.choice([x for x in range(-12, 13) if x]) for _ in range(3)]
        form = diag(*c)
        if is_soluble(form):
            forms.append(form)
    forms += soluble_seeded_forms(31, 120) + DEEP_FORMS
    for form in forms:
        par = parametrize(form)
        for u in range(-12, 13):
            for v in range(-12, 13):
                if math.gcd(u, v) != 1:
                    continue
                w = par.raw(u, v)
                g = math.gcd(*w)
                assert g >= 1
                assert par.content_bound % g == 0


def test_content_bound_is_exact():
    # gcd(phi(u, v), CB) depends on (u, v) mod CB only, and every class
    # with gcd(u0, v0, CB) = 1 holds a coprime pair, so the bound is the
    # lcm of the content exactly when these gcds reach CB together
    checked = 0
    for form in soluble_seeded_forms(37, 200) + soluble_seeded_forms(41, 100, size=30):
        par = parametrize(form)
        cb = par.content_bound
        if cb > 300:
            continue
        seen = 1
        for u in range(cb):
            for v in range(cb):
                if math.gcd(u, v, cb) == 1:
                    seen = math.lcm(seen, math.gcd(*par.raw(u, v), cb))
        assert seen == cb, form
        checked += 1
    assert checked >= 150
    # deep prime powers: small parameters already reach the bound
    expect = [16, 256, 16384, 2097152, 39366, 19683, 31250, 15625, 16807, 8192]
    for form, cb in zip(DEEP_FORMS, expect):
        par = parametrize(form)
        seen = 1
        for u in range(-64, 65):
            for v in range(0, 65):
                if math.gcd(u, v) == 1:
                    seen = math.lcm(seen, math.gcd(*par.raw(u, v)))
        assert par.content_bound == seen == cb


def resultant_sweep_bound(phi):
    """Reference: the content bound by resultants and a lifting sweep.

    A common divisor of the three values divides every pairwise resultant
    (via the Bezout cubics, Res u^3 and Res v^3 are combinations of the
    phi_j); if all three vanish, phi_i + lam phi_j against phi_k for small
    lam restores one.  Each prime p <= 257 of their gcd is then cut to
    the largest k with a primitive common zero mod p^k, found by
    breadth-first lifting of all p^2 residues per level.  Returns (bound,
    swept): swept is False when a prime was left uncut, being > 257 or
    outgrowing 20,000 nodes, and then the bound is only a multiple.
    """

    def ev(c, u, v):
        return c[0] * u * u + c[1] * u * v + c[2] * v * v

    def res(f, g):
        (a1, b1, c1), (a2, b2, c2) = f, g
        return (a1 * c2 - a2 * c1) ** 2 - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1)

    g0 = math.gcd(*(res(phi[i], phi[j]) for i in range(3) for j in range(i + 1, 3)))
    for lam in (1, -1, 2, -2, 3, 5):
        if g0:
            break
        for i in range(3):
            for j in range(3):
                if i != j:
                    mixed = tuple(phi[i][t] + lam * phi[j][t] for t in range(3))
                    g0 = math.gcd(g0, res(mixed, phi[3 - i - j]))
    assert g0
    bound, swept = 1, True
    for p, cap in factorize(g0).items():
        if p > 257:
            bound *= p**cap
            swept = False
            continue
        mod, k = p, 0
        sols = [
            (u, v) for u in range(p) for v in range(p) if (u or v) and all(ev(c, u, v) % p == 0 for c in phi)
        ]
        while sols and k < cap:
            k += 1
            if k == cap:
                break
            sols = [
                (uu, vv)
                for (u, v) in sols
                for uu in range(u, u + p * mod, mod)
                for vv in range(v, v + p * mod, mod)
                if (uu % p or vv % p) and all(ev(c, uu, vv) % (mod * p) == 0 for c in phi)
            ]
            mod *= p
            if len(sols) > 20000:
                k, swept = cap, False
                break
        bound *= p**k
    return bound, swept


def test_content_bound_matches_resultant_sweep():
    forms = soluble_seeded_forms(43, 160) + soluble_seeded_forms(47, 120, size=30)
    forms += [f for f in random_nondiagonal_forms(53, 80, size=30) if is_soluble(f)]
    swept = 0
    for form in forms + DEEP_FORMS:
        par = parametrize(form)
        ref, ok = resultant_sweep_bound(par.phi)
        if ok:
            assert par.content_bound == ref, form
            swept += 1
        else:
            assert ref % par.content_bound == 0, form
    assert swept >= 200
    # 2^28 by the sweep, whose lifting tree outgrows its budget
    assert resultant_sweep_bound(parametrize(DEEP_FORMS[2]).phi) == (2**28, False)


def test_root_test_matches_brute_force():
    rng = random.Random(59)
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7))
        k = rng.randint(1, {2: 7, 3: 4, 5: 3, 7: 2}[p])
        A, B, C = (rng.randint(-40, 40) * p ** rng.choice((0, 0, 1, 2)) for _ in range(3))
        mod = p**k
        brute = any((A * y * y + B * y + C) % mod == 0 for y in range(mod))
        assert _has_root(A, B, C, p, k) == brute, (A, B, C, p, k)
        assert _root_digits(A, B, C, p, k) == brute, (A, B, C, p, k)


def test_root_closed_form_matches_digit_search_deep():
    # odd p at depths beyond brute force, with coefficients that share
    # powers of p and discriminants of high valuation
    rng = random.Random(61)
    for _ in range(600):
        p = rng.choice((3, 5, 7, 11))
        k = rng.randint(4, 14)
        A, B, C = (rng.randint(-50, 50) * p ** rng.randint(0, 6) for _ in range(3))
        if rng.random() < 0.3:
            y0 = rng.randint(0, p**k)
            C = -(A * y0 * y0 + B * y0) + rng.randint(-2, 2) * p ** rng.randint(0, k + 2)
        assert _has_root(A, B, C, p, k) == _root_digits(A, B, C, p, k), (A, B, C, p, k)


def test_parametrize_bijection_against_box_enumeration():
    # every canonical point in the box appears exactly once as map_point(u, v)
    for form in (CIRCLE, diag(1, 1, -5), diag(2, 3, -5), diag(1, -2, -1)):
        bound = 30
        box_pts = set()
        for x2 in range(1, bound + 1):
            for x1 in range(-bound, bound + 1):
                for x0 in range(-bound, bound + 1):
                    if (
                        form.evaluate((x0, x1, x2)) == 0
                        and math.gcd(x0, x1, x2) == 1
                    ):
                        box_pts.add((x0, x1, x2))
        par = parametrize(form)
        seen = {}
        for u in range(0, 151):
            for v in range(-150, 151):
                # one primitive representative per (u : v)
                if math.gcd(u, v) != 1 or (u == 0 and v != 1):
                    continue
                pt = par.map_point(u, v)
                key = pt if pt[2] > 0 else tuple(-c for c in pt)
                if key in box_pts:
                    prev = seen.setdefault(key, (u, v))
                    assert prev == (u, v), f"{key} hit twice: {prev}, {(u, v)}"
        assert set(seen) == box_pts


def test_parametrize_insoluble_and_bad_point():
    with pytest.raises(InvalidInputError, match="no rational points"):
        parametrize(diag(1, 1, 1))
    with pytest.raises(InvalidInputError, match="does not lie"):
        parametrize(CIRCLE, (1, 1, 1))


# ---------------------------------------------------------------------------
# interval engine behind the parametrized strategy


@given(
    st.integers(-9, 9),
    st.integers(-30, 30),
    st.integers(-60, 60),
    st.integers(0, 120),
    st.integers(-40, 40),
    st.integers(-40, 40),
)
def test_quad_abs_le_matches_brute_scan(a, b, c, k, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    ivals = _quad_abs_le(a, b, c, k, lo, hi)
    member = set()
    for lo_i, hi_i in ivals:
        assert lo <= lo_i <= hi_i <= hi
        member.update(range(lo_i, hi_i + 1))
    for v in range(lo, hi + 1):
        inside = abs(a * v * v + b * v + c) <= k
        assert (v in member) == inside


# ---------------------------------------------------------------------------
# the parameter row range


def test_surd_sign_matches_exact_oracle():
    sympy = pytest.importorskip("sympy")
    cases = [(p, q, d) for p in range(-6, 7) for q in range(-3, 4) for d in range(13)]
    # p^2 - q^2 d = +-1 far beyond float precision, and p^2 = q^2 d exactly
    big = 10**20
    for p, q, d in ((big + 1, -1, big * big + 2 * big), (big, -1, big * big + 1), (big, 1, big * big),
                    (-big, 1, big * big), (0, -3, big), (5, 0, big)):
        cases += [(p, q, d), (-p, -q, d)]
    for p, q, d in cases:
        assert _surd_sign(p, q, d) == int(sympy.sign(p + q * sympy.sqrt(d))), (p, q, d)


def extent_floor(phi, caps):
    """floor of sup{u : |phi_j(u, v)| <= caps_j for all j}, apart from the engine.

    With v = u w the sup is 1 / sqrt(F*), where F* is the least value of
    F(w) = max_j |phi_j(1, w)| / caps_j.  F* is attained at the vertex of
    some phi_j(1, w) or where two |phi_j(1, w)| / caps_j cross; mpmath
    evaluates F there to 50 digits.  An extent within 1e-30 of an integer n
    counts as n when n^2 F(w) <= 1 holds in Fractions at a rational candidate.
    """
    mp = pytest.importorskip("mpmath")
    g = [[Fraction(x, K) for x in t] for t, K in zip(phi, caps)]
    rational = [-b / (2 * c) for a, b, c in g if c]
    roots = []
    for i in range(3):
        for j in range(i + 1, 3):
            for sign in (1, -1):
                a, b, c = (x + sign * y for x, y in zip(g[i], g[j]))
                disc = b * b - 4 * a * c
                if not c:
                    rational += [-a / b] if b else []
                elif disc >= 0 and all(math.isqrt(n) ** 2 == n for n in (disc.numerator, disc.denominator)):
                    r = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
                    rational += [(-b + r) / (2 * c), (-b - r) / (2 * c)]
                elif disc > 0:
                    roots.append((b, c, disc))

    def big_f(w):
        return max(abs(a + b * w + c * w * w) for a, b, c in g)

    with mp.workdps(50):
        def mpq(x):
            return mp.mpf(x.numerator) / x.denominator

        ws = [mpq(w) for w in rational]
        for b, c, disc in roots:
            ws += [(-mpq(b) + t * mp.sqrt(mpq(disc))) / (2 * mpq(c)) for t in (1, -1)]
        least = min(max(abs(mpq(a) + mpq(b) * w + mpq(c) * w * w) for a, b, c in g) for w in ws)
        e = 1 / mp.sqrt(least)
        n = int(mp.nint(e))
        if abs(e - n) > mp.mpf(10) ** -30:
            return int(mp.floor(e))
    return n if any(big_f(w) * n * n <= 1 for w in rational) else n - 1


def parametrized_census_fibres(surface, alpha, bound, max_height, both):
    """(form, box) on each soluble fibre that count_total counts by the
    parametrized strategy: all of them under "both", else those past the
    box limit of "auto"."""
    model = HeightModel.for_surface(surface, alpha)
    for y in enumerate_base(1, max_height):
        box = fibre_box(model, y, bound)
        if box[2] < 1 or (not both and (2 * box[1] + 1) * box[2] <= _AUTO_BOX_LIMIT):
            continue
        fc = fibre_class(surface, y)
        if fc.smooth and is_soluble(TernaryForm(fc.gram)):
            yield TernaryForm(fc.gram), box


def test_row_range_matches_extent_oracle():
    cases = list(parametrized_census_fibres(two_squares_bundle(), 1, 10**6, 100, False))
    mixed = list(parametrized_census_fibres(mixed_bundle(), 2, 2000, 12, True))
    assert (len(cases), len(mixed)) == (103, 30)
    rng = random.Random(41)
    for form in soluble_seeded_forms(43, 60):
        cases.append((form, tuple(rng.randint(1, 400) for _ in range(3))))
    for form, box in cases + mixed:
        par = parametrize(form)
        caps = [par.content_bound * b for b in box]
        for phi in (par.phi, [(c, b, a) for a, b, c in par.phi]):
            assert _row_range(phi, caps) == extent_floor(phi, caps), (form, box)


def test_row_range_on_a_long_thin_region():
    # x0^2 - x1^2 + 2.54e28 x2^2: the region is about 1.0e17 rows long and
    # 632 columns wide, so the row cap stops the scan before it starts
    surface = difference_of_squares_bundle(12)
    fc = fibre_class(surface, (1, 2))
    box = fibre_box(HeightModel.for_surface(surface, 9), fc.y, 10**5)
    par = parametrize(TernaryForm(fc.gram))
    caps = [par.content_bound * b for b in box]
    swapped = [(c, b, a) for a, b, c in par.phi]
    assert _row_range(swapped, caps) == extent_floor(swapped, caps) == 632
    assert 10**17 < extent_floor(par.phi, caps) < 2 * 10**17
    with pytest.raises(BudgetExceeded):
        _row_range(par.phi, caps)


def test_object_kernel_matches_int64_kernel(monkeypatch):
    surface = two_squares_bundle()
    model = HeightModel.for_surface(surface, 1)
    native = count_total(surface, model, 10**5, "parametrized")
    monkeypatch.setattr("conic_census.conics._I64", 1)
    big = count_total(surface, model, 10**5, "parametrized")
    assert native.total == big.total == 368664
    assert native.fibres == big.fibres


# ---------------------------------------------------------------------------
# counting


def test_count_box_points_matches_brute():
    rng = random.Random(31)
    done = 0
    while done < 20:
        c = [rng.choice([x for x in range(-8, 9) if x]) for _ in range(3)]
        form = diag(*c)
        bounds = (rng.randint(3, 14), rng.randint(3, 14), rng.randint(3, 14))
        assert _count_box(form, bounds) == brute_box_count(form, bounds)
        done += 1


def test_count_box_points_frozen_values():
    assert _count_box(CIRCLE, (50, 50, 50)) == 60
    assert _count_box(diag(1, 1, -5), (30, 30, 13)) == 32
    assert _count_box(CIRCLE, (5, 5, 5)) == 12


def test_plane_slice_of_hyperbolic_form_has_two_points():
    # 2 x0 x1 = x2^2 meets x2 = 0 in (1 : 0 : 0) and (0 : 1 : 0); the box
    # count leaves that plane out, as the oracle does
    hyp = TernaryForm([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert _count_box(hyp, (5, 5, 5)) == brute_box_count(hyp, (5, 5, 5))


def test_count_box_points_matches_brute_on_nondiagonal_forms():
    rng = random.Random(43)
    for form in random_nondiagonal_forms(43, 30):
        bounds = tuple(rng.randint(2, 12) for _ in range(3))
        assert _count_box(form, bounds) == brute_box_count(form, bounds)


def test_numpy_box_kernel_matches_python_reference():
    # _count_box and count_fibre pick the numpy kernel whenever it
    # is int64-safe, so the big-int reference is checked here directly
    rng = random.Random(47)
    for form in random_nondiagonal_forms(47, 30):
        b0, b1, b2 = (rng.randint(5, 60) for _ in range(3))
        m = form.matrix
        assert _box_numpy_safe(m, b0, b1, b2)
        assert _count_box_numpy(m, b0, b1, b2) == _count_box_python(m, b0, b1, b2)


def test_point_search_cap_is_a_budget_error():
    # (1 : 2 : 1) lies on this conic, but the Holzer sweep of its reduced
    # model has about 1.4e10 cells
    form = diag(100003, 100019, -500079)
    assert is_soluble(form)
    with pytest.raises(BudgetExceeded) as info:
        find_point(form)
    assert not isinstance(info.value, (EngineError, InvalidInputError))


def test_strategies_agree_on_soluble_diagonal_forms():
    rng = random.Random(37)
    done = 0
    while done < 25:
        c = [rng.choice([x for x in range(-10, 11) if x]) for _ in range(3)]
        form = diag(*c)
        if not is_soluble(form):
            continue
        bounds = tuple(rng.randint(20, 150) for _ in range(3))
        assert _count_box(form, bounds) == _count_parametrized(form, bounds)
        done += 1


def test_strategies_agree_on_parabola():
    par = TernaryForm([[0, 0, -1], [0, 2, 0], [-1, 0, 0]])
    assert _count_box(par, (300, 300, 300)) == 383
    assert _count_parametrized(par, (300, 300, 300)) == 383
    assert _count_parametrized(par, (10**4, 10**4, 10**4)) == 12175


def test_parabola_tracks_schanuel_constant():
    # split conic u^2 : uv : v^2 carries the exact P^1 constant 12/pi^2
    par = TernaryForm([[0, 0, -1], [0, 2, 0], [-1, 0, 0]])
    b = 10**4
    n = _count_parametrized(par, (b, b, b))
    assert abs(n / b - 12 / math.pi**2) < 0.01


def test_count_fibre_values_and_conventions():
    surf = two_squares_bundle()
    model = model_x()
    # B = 1: the four unit solutions, each with its +-x pair
    assert count_fibre(surf, model, (1, 1), 1, "both") == 8
    assert count_fibre(surf, model, (1, 1), 1000, "both") == 2536
    assert count_fibre(surf, model, (1, 5), 1000, "both") == 32
    # insoluble fibre counts zero without error
    assert count_fibre(surf, model, (1, 3), 1000) == 0
    assert count_fibre(surf, model, (1, 7), 10**6) == 0


def test_count_fibre_monotone_in_bound():
    surf = two_squares_bundle()
    model = model_x()
    prev = 0
    for b in (1, 10, 100, 1000, 5000):
        n = count_fibre(surf, model, (1, 1), b)
        assert n >= prev
        prev = n


def test_count_fibre_tracks_density():
    # 8/pi per unit height on the t=1 fibre under the signed convention
    surf = two_squares_bundle()
    model = model_x()
    n = count_fibre(surf, model, (1, 1), 10**5, strategy="parametrized")
    assert abs(n / 10**5 - 8 / math.pi) / (8 / math.pi) < 0.01


def test_count_fibre_input_errors():
    surf = two_squares_bundle()
    model = model_x()
    with pytest.raises(InvalidInputError, match="singular"):
        count_fibre(surf, model, (1, 0), 100)
    with pytest.raises(InvalidInputError, match="strategy"):
        count_fibre(surf, model, (1, 1), 100, "fastest")
    other = HeightModel(n=1, a=(0, 1, 1), e=0, alpha=Fraction(3))
    with pytest.raises(InvalidInputError, match="model"):
        count_fibre(surf, other, (1, 1), 100)


def test_count_fibre_empty_box():
    surf = two_squares_bundle()
    model = model_x()
    # H(y)^(A + a2) = 5^3 > B kills the box outright
    assert count_fibre(surf, model, (1, 5), 100) == 0
