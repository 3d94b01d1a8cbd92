import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conic_census.arith import det3
from conic_census.bundle import fibre_class
from conic_census.conics import TernaryForm, count_fibre, is_soluble
from conic_census.errors import BudgetExceeded, EngineError, InvalidInputError
from conic_census.heights import HeightModel
from conic_census.localdata import (
    FibreReport,
    _archimedean_weights,
    count_points_mod,
    fibre_report,
    peyre_constant,
    sigma_inf,
    sigma_inf_weights,
    sigma_p,
    tamagawa,
)
from conic_census.models import difference_of_squares_bundle, mixed_bundle, two_squares_bundle
from conic_census.projective import enumerate_base


def diag(a, b, c):
    return TernaryForm([[a, 0, 0], [0, b, 0], [0, 0, c]])


def brute_count_mod(gram, p, n):
    """Direct triple loop over (Z/p^n)^3 minus the classes divisible by p."""
    q = p**n
    m = gram.matrix if isinstance(gram, TernaryForm) else gram
    total = 0
    for x0 in range(q):
        for x1 in range(q):
            for x2 in range(q):
                if x0 % p == 0 and x1 % p == 0 and x2 % p == 0:
                    continue
                v = (
                    m[0][0] * x0 * x0
                    + m[1][1] * x1 * x1
                    + m[2][2] * x2 * x2
                    + 2 * (m[0][1] * x0 * x1 + m[0][2] * x0 * x2 + m[1][2] * x1 * x2)
                )
                if v % q == 0:
                    total += 1
    return total


def random_form(rng):
    while True:
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        try:
            return TernaryForm(m)
        except InvalidInputError:
            continue


# -- p-adic point counts ----------------------------------------------------


def test_count_points_mod_matches_brute():
    rng = random.Random(11)
    grid = [(2, 4), (3, 3), (5, 2)]
    for _ in range(10):
        form = random_form(rng)
        for p, nmax in grid:
            for n in range(1, nmax + 1):
                assert count_points_mod(form, p, n) == brute_count_mod(form, p, n)


def test_count_eight_is_sixtyfour():
    # the 2-adic density of x0^2 + x1^2 = t x2^2 is exactly 1 for t = 1 mod 4
    for t in (1, 5, 13, 17, 65):
        assert count_points_mod(diag(1, 1, -t), 2, 3) == 64


def test_count_points_scaling_law():
    # N_{pQ}(p^n) = p^3 N_Q(p^(n-1)): scaling Q by p shifts every level
    rng = random.Random(5)
    for _ in range(6):
        form = random_form(rng)
        scaled = TernaryForm([[3 * v for v in row] for row in form.matrix])
        for n in (2, 3):
            assert count_points_mod(scaled, 3, n) == 27 * count_points_mod(form, 3, n - 1)


def test_count_points_unit_invariance():
    # multiplying Q by a unit mod p permutes nothing but the values: the
    # level counts, hence sigma_p, are unchanged
    rng = random.Random(7)
    for _ in range(6):
        form = random_form(rng)
        scaled = TernaryForm([[3 * v for v in row] for row in form.matrix])
        for n in (1, 2):
            assert count_points_mod(scaled, 5, n) == count_points_mod(form, 5, n)


def test_count_points_input_errors():
    with pytest.raises(InvalidInputError):
        count_points_mod(diag(1, 1, -1), 6, 2)
    with pytest.raises(InvalidInputError):
        count_points_mod(diag(1, 1, -1), 3, 0)


# -- sigma_p ----------------------------------------------------------------


def test_sigma_p_frozen_values():
    s = two_squares_bundle()
    assert sigma_p(s, (1, 5), 5) == Fraction(8, 5)
    assert sigma_p(s, (1, 5), 3) == Fraction(8, 9)
    assert sigma_p(s, (1, 5), 2) == 1
    assert sigma_p(s, (1, 1), 2) == 1
    assert sigma_p(s, (1, 65), 5) == Fraction(8, 5)
    assert sigma_p(s, (1, 65), 13) == Fraction(24, 13)
    assert sigma_p(s, (1, 3), 3) == 0
    assert sigma_p(s, (1, 3), 2) == 0


def test_sigma_p_bad_prime_formula():
    # sigma_p = 2(1 - 1/p) at every odd p | t, squarefree t
    s = two_squares_bundle()
    for t, p in ((5, 5), (13, 13), (65, 5), (65, 13), (145, 29)):
        assert sigma_p(s, (1, t), p) == 2 * (1 - Fraction(1, p))


def test_sigma_p_doubled_parabola():
    # integer model of the half-integral parabola x1^2 - x0 x2 is doubled,
    # and sigma_2 scales by 2 with it: 3/2 = 2 * (3/4)
    from conic_census.localdata import _sigma_p_gram

    parab = ((0, 0, -1), (0, 2, 0), (-1, 0, 0))
    assert _sigma_p_gram(parab, 2) == Fraction(3, 2)


def test_sigma_p_anisotropic_vanishes():
    # diag(1, 3, 9) is anisotropic over Q_3: the density is exactly 0
    from conic_census.localdata import _sigma_p_gram

    m = ((1, 0, 0), (0, 3, 0), (0, 0, 9))
    assert _sigma_p_gram(m, 3) == 0
    assert count_points_mod(TernaryForm(m), 3, 2) == brute_count_mod(m, 3, 2) == 54
    assert count_points_mod(TernaryForm(m), 3, 3) == 0


def _oracle_forms(rng, count):
    """Seeded Gram matrices in five families, each count strong.

    Diagonal and dense forms with entries in [-60, 60]; dense forms with
    an even diagonal, whose 2-adic splitting has 2x2 blocks;
    diag(d) M diag(d) with d_i in {1, 2, 3, 4, 9}, for deep 2- and
    3-adic valuations; and dense forms times p, so every entry is
    divisible by p (returned with that p, else with None).
    """

    def dense(size, diagonal=False, even=False):
        while True:
            m = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    if i == j or not diagonal:
                        m[i][j] = m[j][i] = rng.randint(-size, size) * (1 + (even and i == j))
            if det3(m):
                return m

    out = []
    for _ in range(count):
        out.append((dense(60, diagonal=True), None))
        out.append((dense(60), None))
        out.append((dense(30, even=True), None))
        d = [rng.choice((1, 2, 3, 4, 9)) for _ in range(3)]
        m = dense(6)
        out.append(([[d[i] * m[i][j] * d[j] for j in range(3)] for i in range(3)], None))
        p = rng.choice((2, 3, 5, 7))
        out.append(([[p * v for v in row] for row in dense(8)], p))
    return out


def test_sigma_p_matches_lift_tree_oracle(monkeypatch):
    # the Jordan recursion against lift-and-count, wherever the tree fits
    # a budget lowered so that the deep trees give up fast; the sample
    # must reach p | det, 2x2 blocks at p = 2 and forms with every entry
    # divisible by p
    from conic_census import _lifttree
    from conic_census.localdata import _jordan, _sigma_p_gram

    monkeypatch.setattr(_lifttree, "_LIFT_CAP", 50_000)
    rng = random.Random(2024)
    compared = divides_det = two_by_two = scaled = 0
    for m, scale in _oracle_forms(rng, 20):
        for p in (2, 3, 5, 7, 11, 13):
            try:
                ref = _lifttree.lift_tree_density(m, p)
            except BudgetExceeded:
                continue
            assert _sigma_p_gram(m, p) == ref, (m, p)
            compared += 1
            divides_det += det3(m) % p == 0
            two_by_two += p == 2 and any(c % 2 == 0 for _, c in _jordan(m, 2))
            scaled += scale == p
    assert compared >= 550 and divides_det >= 200 and two_by_two >= 30 and scaled == 20


def test_former_budget_faults_pinned():
    # the lift tree ran out of budget on the first two; 3960/1369 is the
    # tree's own value, and 3/2 was checked by a direct count mod 2^K
    # (K = 17..22, after an integer change of variables) beyond the tree
    s = mixed_bundle()
    assert sigma_p(s, (14, 9), 43) == Fraction(1848, 1849)
    assert sigma_p(s, (22, -7), 47) == Fraction(2208, 2209)
    assert sigma_p(s, (15, -8), 37) == Fraction(3960, 1369)
    assert sigma_p(s, (9, -29), 2) == Fraction(3, 2)
    model = HeightModel.for_surface(s, 2)
    for y in ((14, 9), (22, -7)):
        assert peyre_constant(s, model, y) > 0


def test_sigma_p_within_budget_on_every_mixed_fibre():
    s = mixed_bundle()
    fibres = [fc for fc in (fibre_class(s, y) for y in enumerate_base(1, 28)) if fc.smooth]
    assert len(fibres) == 967
    for fc in fibres:
        for p in TernaryForm(fc.gram).bad_primes:
            assert sigma_p(s, fc.y, p) >= 0


def test_import_does_not_load_the_lift_tree():
    # the oracle stays off the import path: count_points_mod loads it
    import conic_census

    root = os.path.dirname(os.path.dirname(conic_census.__file__))
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import conic_census; "
        "assert 'conic_census._lifttree' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_sigma_p_good_primes_exact():
    # 100 random smooth fibres across the sample surfaces, three smallest
    # good odd primes each: the density is 1 - p^-2 on the nose
    surfaces = [two_squares_bundle(), difference_of_squares_bundle(12), mixed_bundle()]
    rng = random.Random(20)
    from conic_census.bundle import fibre_class

    checked = 0
    while checked < 100:
        s = surfaces[checked % 3]
        y = (rng.randint(-30, 30), rng.randint(-30, 30))
        if y == (0, 0):
            continue
        fc = fibre_class(s, y)
        if not fc.smooth:
            continue
        good = []
        p = 3
        while len(good) < 3:
            if _is_prime(p) and fc.disc % p:
                good.append(p)
            p += 2
        for p in good:
            assert sigma_p(s, y, p) == 1 - Fraction(1, p * p)
        checked += 1


def _is_prime(p):
    from conic_census.arith import is_prime

    return is_prime(p)


def test_sigma_p_input_errors():
    s = two_squares_bundle()
    with pytest.raises(InvalidInputError):
        sigma_p(s, (1, 5), 10)
    with pytest.raises(InvalidInputError):
        sigma_p(s, (1, 0), 5)  # singular fibre


# -- sigma_inf ----------------------------------------------------------------


def model_x(alpha=1):
    return HeightModel.for_surface(two_squares_bundle(), alpha)


def test_sigma_inf_closed_form():
    # pi / t^(2+alpha) on x0^2 + x1^2 = t x2^2, alpha = 1
    s = two_squares_bundle()
    m = model_x()
    for t in (1, 2, 5):
        got = sigma_inf(s, m, (1, t), 1e-9)
        assert got == pytest.approx(math.pi / t**3, rel=1e-8)


def test_sigma_inf_empty_real_locus():
    s = two_squares_bundle()
    assert sigma_inf(s, model_x(), (1, -1)) == 0.0


def brute_sigma_inf(m, w, n=2_000_001):
    """Midpoint Riemann sum over x0 = tan(theta), solving both sheets."""
    w0, w1, w2 = w
    m00, m01, m02 = m[0][0], m[0][1], m[0][2]
    m11, m12, m22 = m[1][1], m[1][2], m[2][2]
    th = -math.pi / 2 + (np.arange(n) + 0.5) * (math.pi / n)
    x0 = np.tan(th)
    jac = 1.0 / np.cos(th) ** 2
    a1 = 2.0 * (m01 * x0 + m12)
    a0 = (m00 * x0 + 2.0 * m02) * x0 + m22
    if m11 == 0:
        ok = a1 != 0
        x1 = np.where(ok, -a0 / np.where(ok, a1, 1.0), 0.0)
        h = np.maximum(np.maximum(w0 * np.abs(x0), w1 * np.abs(x1)), w2)
        vals = np.where(ok, 1.0 / (h * np.abs(np.where(ok, a1, 1.0))), 0.0)
        return float(np.sum(vals * jac) * (math.pi / n))
    disc = a1 * a1 - 4.0 * m11 * a0
    ok = disc > 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    total = np.zeros_like(x0)
    for sign in (1.0, -1.0):
        x1 = (-a1 + sign * sq) / (2.0 * m11)
        h = np.maximum(np.maximum(w0 * np.abs(x0), w1 * np.abs(x1)), w2)
        total += np.where(ok, 1.0 / (h * np.where(ok, sq, 1.0)), 0.0)
    return float(np.sum(total * jac) * (math.pi / n))


BRANCH_GEOMETRIES = [
    [[1, 0, 0], [0, 1, 0], [0, 0, -1]],  # bounded band of x0
    [[1, 0, 0], [0, -1, 0], [0, 0, -1]],  # two unbounded sides
    [[1, 0, 0], [0, -1, 0], [0, 0, 3]],  # branches over all of R
    [[0, 0, 1], [0, 1, 0], [1, 0, -3]],  # half line (degenerate leading coeff)
    [[0, 0, -1], [0, 2, 0], [-1, 0, 0]],  # single sheet with a pole
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],  # single sheet, no pole
    [[2, 1, 0], [1, -3, 1], [0, 1, 5]],
    [[1, 2, 1], [2, 1, -1], [1, -1, -4]],
]


def test_sigma_inf_matches_riemann_sum():
    for m in BRANCH_GEOMETRIES:
        got = sigma_inf_weights(m, (1.0, 1.3, 0.7), 1e-9)
        ref = brute_sigma_inf(m, (1.0, 1.3, 0.7))
        assert got == pytest.approx(ref, rel=3e-3), m


def test_sigma_inf_weight_scaling():
    # H -> lambda H divides the density by lambda
    m = [[1, 0, 0], [0, 1, 0], [0, 0, -5]]
    base = sigma_inf_weights(m, (1.0, 1.0, 1.0), 1e-10)
    scaled = sigma_inf_weights(m, (3.0, 3.0, 3.0), 1e-10)
    assert scaled == pytest.approx(base / 3.0, rel=1e-9)


def test_sigma_inf_weight_validation():
    with pytest.raises(InvalidInputError):
        sigma_inf_weights(BRANCH_GEOMETRIES[0], (1.0, 0.0, 1.0))
    nan, inf = float("nan"), float("inf")
    for w in ((1.0, nan, 1.0), (1.0, 1.0, inf), (nan, 1.0, 1.0), (inf, 1.0, 1.0)):
        with pytest.raises(InvalidInputError):
            sigma_inf_weights(BRANCH_GEOMETRIES[0], w)


def test_sigma_inf_rejects_foreign_model():
    s = two_squares_bundle()
    wrong = HeightModel(1, (0, 0, 2), 0, 3)
    with pytest.raises(InvalidInputError):
        sigma_inf(s, wrong, (1, 5))


def seeded_gram(rng, span):
    """A nonsingular symmetric integer matrix with entries in [-span, span]."""
    while True:
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                m[i][j] = m[j][i] = rng.randint(-span, span)
        if det3(m):
            return m


def test_sigma_inf_invariances():
    # sigma_inf depends only on the conic and the height: permuting the
    # coordinates of M and w together, flipping a coordinate's sign and
    # M -> -M leave it unchanged, and scaling M by k divides it by |k|
    rng = random.Random(41)
    for _ in range(60):
        m = seeded_gram(rng, 20)
        w = tuple(rng.uniform(0.5, 50.0) for _ in range(3))
        base = sigma_inf_weights(m, w)
        perm = rng.sample(range(3), 3)
        sign = [rng.choice((1, -1)) for _ in range(3)]
        k = rng.choice((2, 3, -5, 12))
        variants = [
            ([[m[perm[i]][perm[j]] for j in range(3)] for i in range(3)], [w[i] for i in perm], 1),
            ([[sign[i] * sign[j] * m[i][j] for j in range(3)] for i in range(3)], w, 1),
            ([[-v for v in row] for row in m], w, 1),
            ([[k * v for v in row] for row in m], w, abs(k)),
        ]
        for mm, ww, scale in variants:
            assert sigma_inf_weights(mm, ww) * scale == pytest.approx(base, rel=1e-12, abs=0.0)


def mp_sigma_inf(m, w):
    """sigma_inf to 40 digits by mpmath quadrature, apart from the engine.

    The real point P mixes a positive and a negative eigenvector of M so
    that Q(P) = 0, and e1, e2 complete it to an orthogonal frame.  With
    d(t) = t e1 + e2 and phi(t) = Q(d) P - 2 (P.M d) d,
    sigma_inf = |det[P, e1, e2]| * integral over R of dt / max_j w_j |phi_j|.
    The integrand is smooth between the real roots of the six quadratics
    w_i phi_i +- w_j phi_j, where the largest |w_j phi_j| can change, so
    each such piece is integrated on its own; the vertex of each phi_j,
    where 1/|phi_j| peaks, is cut too, so a narrow peak sits at an end
    of a piece, where the tanh-sinh nodes cluster.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        M = mp.matrix(m)
        lam, vec = mp.eigsy(M)
        pairs = [(i, j) for i in range(3) for j in range(3) if lam[i] > 0 > lam[j]]
        if not pairs:
            return mp.mpf(0)
        # the pair of eigenvalues closest in size keeps the frame balanced
        i, j = min(pairs, key=lambda ij: abs(mp.log(-lam[ij[0]] / lam[ij[1]])))
        a, b = mp.sqrt(lam[i]), mp.sqrt(-lam[j])
        P = b * vec[:, i] + a * vec[:, j]
        e1 = a * vec[:, i] - b * vec[:, j]
        e2 = vec[:, 3 - i - j]

        def bil(x, y):
            return (x.T * M * y)[0]

        q2, q1, q0 = bil(e1, e1), 2 * bil(e1, e2), bil(e2, e2)
        g1, g2 = bil(P, e1), bil(P, e2)
        wphi = [
            [
                mp.mpf(w[r]) * c
                for c in (
                    q2 * P[r] - 2 * g1 * e1[r],
                    q1 * P[r] - 2 * (g2 * e1[r] + g1 * e2[r]),
                    q0 * P[r] - 2 * g2 * e2[r],
                )
            ]
            for r in range(3)
        ]
        cuts = set()
        for r, s in ((0, 1), (0, 2), (1, 2)):
            for sgn in (1, -1):
                c2, c1, c0 = (x + sgn * y for x, y in zip(wphi[r], wphi[s]))
                disc = c1 * c1 - 4 * c2 * c0
                if c2 == 0:
                    cuts.update([-c0 / c1] if c1 else [])
                elif disc >= 0:
                    cuts.update((-c1 + e * mp.sqrt(disc)) / (2 * c2) for e in (1, -1))
        cuts.update(-c[1] / (2 * c[0]) for c in wphi if c[0] != 0)
        edges = [-mp.inf, *sorted(cuts), mp.inf]
        total = 0
        for u, v in zip(edges, edges[1:]):
            if u == -mp.inf:
                t = v - 1 - abs(v) if v != mp.inf else mp.mpf(0)
            else:
                t = u + 1 + abs(u) if v == mp.inf else (u + v) / 2
            c2, c1, c0 = max(wphi, key=lambda c: abs((c[0] * t + c[1]) * t + c[2]))
            total += abs(mp.quad(lambda t: 1 / ((c2 * t + c1) * t + c0), [u, v]))
        return abs(mp.det(mp.matrix([list(P), list(e1), list(e2)]))) * total


def assert_matches_mpmath(m, w, rel):
    got = sigma_inf_weights(m, w)
    ref = mp_sigma_inf(m, w)
    if ref == 0:
        assert got == 0.0, (m, w)
    else:
        assert abs(got - ref) <= rel * ref, (m, w, got, ref)


def test_sigma_inf_against_mpmath_random_forms():
    rng = random.Random(2024)
    for _ in range(300):
        m = seeded_gram(rng, 100)
        assert_matches_mpmath(m, tuple(rng.uniform(0.5, 1e3) for _ in range(3)), 1e-12)


def test_sigma_inf_against_mpmath_extreme_weights():
    # weight ratios up to 1e8; the first form is one adaptive quadrature
    # could not integrate to its tolerance
    assert_matches_mpmath([[-2, 3, 0], [3, -4, 8], [0, 8, -1]], (92407574.86, 1.201, 130.457), 1e-9)
    rng = random.Random(808)
    for _ in range(40):
        m = seeded_gram(rng, 100)
        w = tuple(10.0 ** rng.uniform(0.0, 8.0) for _ in range(3))
        assert_matches_mpmath(m, w, 1e-9)


@pytest.mark.parametrize(
    "make, alpha, max_height",
    [
        (two_squares_bundle, 1, 30),
        (mixed_bundle, 2, 28),
        (lambda: difference_of_squares_bundle(12), 9, 12),
    ],
)
def test_sigma_inf_against_mpmath_fibres(make, alpha, max_height):
    surface = make()
    model = HeightModel.for_surface(surface, alpha)
    smooth = [y.coords for y in enumerate_base(surface.n, max_height) if fibre_class(surface, y).smooth]
    for y in random.Random(77).sample(smooth, 50):
        fc = fibre_class(surface, y)
        ref = mp_sigma_inf(fc.gram, _archimedean_weights(model, fc.y))
        got = sigma_inf(surface, model, y)
        assert abs(got - ref) <= 1e-12 * ref, (y, got, ref)


# -- tamagawa and the Peyre constant ------------------------------------------


def closed_formula_tau(t, alpha=1):
    """pi / t^(2+alpha) * prod_{p | t} 2(1-1/p) * prod_{p nmid 2t} (1-1/p^2)."""
    from conic_census.arith import prime_divisors

    bad = prime_divisors(2 * t)
    tail = (6.0 / math.pi**2) / float(
        math.prod(1 - Fraction(1, p * p) for p in bad)
    )
    local = math.prod(2 * (1 - 1 / p) for p in prime_divisors(t))
    return math.pi / t ** (2 + alpha) * local * tail


def test_tamagawa_oracles():
    s = two_squares_bundle()
    m = model_x()
    assert tamagawa(s, m, (1, 1), 1e-9) == pytest.approx(8 / math.pi, rel=1e-8)
    for t in (5, 13, 65):
        assert tamagawa(s, m, (1, t), 1e-9) == pytest.approx(closed_formula_tau(t), rel=1e-8)


def test_tamagawa_invariant_under_global_scaling():
    # 2Q cuts out the same conic: sigma_2 doubles, sigma_inf halves,
    # and the assembled constant does not move
    from conic_census.bundle import ConicBundleSurface, validate
    from conic_census.polynomials import MultiPoly

    s = two_squares_bundle()
    m = model_x()
    gram = [
        [MultiPoly(2, f.degree, {e: 2 * c for e, c in f.terms.items()}) for f in row]
        for row in s.gram
    ]
    doubled = ConicBundleSurface(s.n, s.a, s.e, gram)
    validate(doubled)
    for y in ((1, 1), (1, 5)):
        assert sigma_p(doubled, y, 2) == 2 * sigma_p(s, y, 2)
        assert sigma_inf(doubled, m, y) == pytest.approx(sigma_inf(s, m, y) / 2, rel=1e-9)
        assert tamagawa(doubled, m, y) == pytest.approx(tamagawa(s, m, y), rel=1e-9)


def test_peyre_constant_solubility_gate():
    s = two_squares_bundle()
    m = model_x()
    assert peyre_constant(s, m, (1, 3)) == 0.0
    # t = 21 fails only at 3 and 7: sigma_2 and sigma_inf are positive
    assert peyre_constant(s, m, (1, 21)) == 0.0
    assert sigma_p(s, (1, 21), 2) == 1
    assert sigma_inf(s, m, (1, 21)) > 0
    assert peyre_constant(s, m, (1, 1), 1e-9) == pytest.approx(8 / math.pi, rel=1e-8)


def test_fibre_report_fields():
    s = two_squares_bundle()
    m = model_x()
    rep = fibre_report(s, m, (2, 10))  # canonical rep is (1, 5)
    assert isinstance(rep, FibreReport)
    assert rep.y == (1, 5)
    assert rep.soluble
    assert set(rep.sigma_p) == {2, 5}
    assert rep.sigma_p[5] == Fraction(8, 5)
    assert rep.tamagawa == rep.peyre > 0
    assert rep.sigma_inf == pytest.approx(math.pi / 125, rel=1e-6)

    rep = fibre_report(s, m, (1, 3))
    assert not rep.soluble
    assert rep.peyre == 0.0
    assert rep.sigma_p[3] == 0


def test_fibre_report_rejects_singular():
    s = two_squares_bundle()
    with pytest.raises(InvalidInputError):
        fibre_report(s, model_x(), (0, 1))


def test_empirical_peyre_consistency():
    # the counted fibre tracks its predicted constant within 5% once the
    # fibre holds >= 10^4 points
    s = two_squares_bundle()
    m = model_x()
    bound = 10**5
    n = count_fibre(s, m, (1, 1), bound, strategy="parametrized")
    assert n >= 10**4
    c = peyre_constant(s, m, (1, 1), 1e-9)
    assert abs(n / bound - c) / c <= 0.05


# ---------------------------------------------------------------------------
# one local product per fibre, budgets


def sample_fibres(surface, seed, k, max_height=12):
    """k seeded soluble and k seeded insoluble smooth fibres."""
    groups = ([], [])
    for y in enumerate_base(surface.n, max_height):
        fc = fibre_class(surface, y)
        if fc.smooth:
            groups[is_soluble(TernaryForm(fc.gram))].append(y.coords)
    rng = random.Random(seed)
    return [y for group in groups for y in rng.sample(group, k)]


@pytest.mark.parametrize("make, alpha", [(two_squares_bundle, 1), (mixed_bundle, 2)])
def test_report_shares_the_local_product(make, alpha):
    surface = make()
    model = HeightModel.for_surface(surface, alpha)
    for y in sample_fibres(surface, 53, 3):
        rep = fibre_report(surface, model, y)
        assert rep.tamagawa == tamagawa(surface, model, y)
        assert rep.peyre == peyre_constant(surface, model, y)
        assert rep.sigma_p
        for p, value in rep.sigma_p.items():
            assert value == sigma_p(surface, y, p)


def test_lift_tree_budget_is_not_an_engine_error():
    form = TernaryForm(fibre_class(mixed_bundle(), (14, 9)).gram)
    with pytest.raises(BudgetExceeded) as info:
        count_points_mod(form, 43, 2)
    assert not isinstance(info.value, EngineError)
