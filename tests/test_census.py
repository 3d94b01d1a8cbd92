"""Census layer: exact totals, Peyre partial sums, and the probes."""

import math
from fractions import Fraction

import pytest

from conic_census.census import (
    asymptotic_probe,
    bt_probe,
    count_total,
    northcott_probe,
    peyre_sum,
    surface_digest,
)
from conic_census.conics import count_fibre
from conic_census.errors import InvalidInputError
from conic_census.heights import HeightModel
from conic_census.localdata import fibre_report, peyre_constant, sigma_inf, tamagawa
from conic_census.models import difference_of_squares_bundle, mixed_bundle, two_squares_bundle


@pytest.fixture(scope="module")
def setup():
    surface = two_squares_bundle()
    model = HeightModel.for_surface(surface, alpha=Fraction(1))
    return surface, model


# ---------------------------------------------------------------------------
# count_total


def test_count_total_bound_one_by_hand(setup):
    # B = 1 reaches base height 1 only: fibres (1,1) and (1,-1), and the
    # two singular points (0,1), (1,0).  On x0^2 + x1^2 = x2^2 the box
    # is |x_j| <= 1, whose signed primitive solutions are the 8 vectors
    # (+-1, 0, +-1), (0, +-1, +-1); over t = -1 there are none.
    surface, model = setup
    cs = count_total(surface, model, 1)
    assert cs.total == 8
    assert cs.base_height == 1
    assert dict(cs.fibres) == {(1, -1): 0, (1, 1): 8}
    assert set(cs.singular) == {(0, 1), (1, 0)}


def test_count_total_monotone_in_bound(setup):
    surface, model = setup
    totals = [count_total(surface, model, b).total for b in (1, 10, 100, 1000)]
    assert totals[0] == 8
    assert all(a <= b for a, b in zip(totals, totals[1:]))


def test_count_total_strategies_agree(setup):
    surface, model = setup
    for b in (50, 500, 5000):
        box = count_total(surface, model, b, strategy="box")
        par = count_total(surface, model, b, strategy="parametrized")
        assert box.total == par.total
        assert box.fibres == par.fibres


def test_count_total_rejects_foreign_model(setup):
    surface, _ = setup
    other = HeightModel.for_surface(difference_of_squares_bundle(12), alpha=Fraction(9))
    with pytest.raises(InvalidInputError):
        count_total(surface, other, 10)


# ---------------------------------------------------------------------------
# peyre_sum


def test_peyre_sum_first_shell_is_8_over_pi(setup):
    # height-1 shell: c_(1,1) = 8/pi and c_(1,-1) = 0
    surface, model = setup
    ps = peyre_sum(surface, model, 1)
    assert ps.partial(1) == ps.total == ps.shells[0]
    assert ps.total == pytest.approx(8 / math.pi, rel=1e-9)
    assert ps.n_smooth == 2
    assert ps.n_soluble == 1


def test_peyre_sum_partials_nondecreasing(setup):
    surface, model = setup
    ps = peyre_sum(surface, model, 25)
    vals = [ps.partial(t) for t in range(ps.max_height + 1)]
    assert vals[0] == 0.0
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(ps.total)


def test_peyre_sum_shell_increments_decay(setup):
    # contribution of heights 11..25 is already far below that of 1..10
    surface, model = setup
    ps = peyre_sum(surface, model, 25)
    first = ps.partial(10) - ps.partial(1)
    later = ps.partial(25) - ps.partial(10)
    assert later < first / 2


def test_peyre_sum_partial_range_checked(setup):
    surface, model = setup
    ps = peyre_sum(surface, model, 5)
    with pytest.raises(InvalidInputError):
        ps.partial(6)
    with pytest.raises(InvalidInputError):
        ps.partial(-1)
    with pytest.raises(InvalidInputError):
        peyre_sum(surface, model, 0)


# ---------------------------------------------------------------------------
# asymptotic probe


def test_asymptotic_probe_small_grid(setup):
    surface, model = setup
    rep = asymptotic_probe(surface, model, bounds=(2000, 4000, 8000, 16000))
    assert rep.bounds == (2000, 4000, 8000, 16000)
    assert [s.total for s in rep.slices] == sorted(s.total for s in rep.slices)
    # ratios should already sit near the predicted constant
    assert rep.slope == pytest.approx(rep.peyre.total, rel=0.05)
    for (t, partial), s in zip(rep.peyre_partials, rep.slices):
        assert t == s.base_height
        assert partial <= rep.peyre.total + 1e-12
    assert len(rep.residuals) == 4
    # top-half fit makes the last residual small relative to N
    assert abs(rep.residuals[-1]) < 0.01 * rep.slices[-1].total
    assert rep.metadata["surface"] == surface_digest(surface)
    assert rep.metadata["alpha"] == "1"


def test_asymptotic_probe_needs_increasing_grid(setup):
    surface, model = setup
    with pytest.raises(InvalidInputError):
        asymptotic_probe(surface, model, bounds=(1000,))
    with pytest.raises(InvalidInputError):
        asymptotic_probe(surface, model, bounds=(2000, 2000))
    with pytest.raises(InvalidInputError):
        asymptotic_probe(surface, model, bounds=(4000, 2000))


# ---------------------------------------------------------------------------
# conjecture probes


def test_bt_probe_lower_violations():
    # primes 3 mod 4 up to 50 all give insoluble fibres
    rep = bt_probe(1, 50)
    assert rep.lower_violations == (3, 7, 11, 19, 23, 31, 43, 47)
    by_t = {r.t: r for r in rep.rows}
    assert all(not by_t[p].soluble for p in rep.lower_violations)


def test_bt_probe_admissible_formula():
    rep = bt_probe(1, 50)
    assert rep.formula_max_rel_err < 1e-6
    by_t = {r.t: r for r in rep.rows}
    # t = 5: (8/pi^2) * 10/6
    assert by_t[5].admissible
    assert by_t[5].normalized == pytest.approx((8 / math.pi**2) * Fraction(10, 6), rel=1e-9)
    assert by_t[6].admissible is False and by_t[6].formula is None
    # only squarefree t appear
    assert {r.t for r in rep.rows} == {t for t in range(1, 51) if by_t.get(t)}
    assert 4 not in by_t and 49 not in by_t


def test_bt_probe_growth_unbounded():
    rep = bt_probe(1, 10, growth_terms=4)
    assert [g[1] for g in rep.growth] == [5, 65, 1105, 32045]
    assert rep.growth_monotone
    # normalized value clears the (6/pi^2)(4/3)^k floor with room
    for _, _, value, floor in rep.growth:
        assert value >= floor


def test_northcott_probe_heights_follow_closed_form():
    rep = northcott_probe(12, count=30)
    assert rep.exponent == -1
    assert rep.alpha == Fraction(9)
    assert len(rep.rows) == 30
    for coords, h in rep.rows:
        hy = max(abs(coords[0]), abs(coords[1]))
        assert h == Fraction(1, hy)
        assert h <= 1
    assert rep.unit_count == 4


def test_northcott_probe_accumulates_small_points():
    # twice the sample size reaches points of half the height
    small = northcott_probe(12, count=10)
    large = northcott_probe(12, count=40)
    assert min(h for _, h in large.rows) < min(h for _, h in small.rows)


def test_northcott_probe_steeper_weights_sink_faster():
    rep = northcott_probe(18, count=10)
    assert rep.exponent == -3
    for coords, h in rep.rows:
        hy = max(abs(coords[0]), abs(coords[1]))
        assert h == Fraction(1, hy**3)


# ---------------------------------------------------------------------------
# digest


def test_surface_digest_stable_and_discriminating():
    s1 = two_squares_bundle()
    s2 = two_squares_bundle()
    assert surface_digest(s1) == surface_digest(s2)
    assert surface_digest(s1) != surface_digest(difference_of_squares_bundle(12))
    assert len(surface_digest(s1)) == 64


# ---------------------------------------------------------------------------
# the one model check


def _h(y):
    return max(abs(c) for c in y)


MODEL_CALLS = {
    "count_fibre": lambda s, m, y: count_fibre(s, m, y, 1000),
    "sigma_inf": lambda s, m, y: sigma_inf(s, m, y),
    "tamagawa": lambda s, m, y: tamagawa(s, m, y),
    "peyre_constant": lambda s, m, y: peyre_constant(s, m, y),
    "fibre_report": lambda s, m, y: fibre_report(s, m, y),
    "count_total": lambda s, m, y: count_total(s, m, 10 * _h(y) ** 3),
    "peyre_sum": lambda s, m, y: peyre_sum(s, m, _h(y)),
    "asymptotic_probe": lambda s, m, y: asymptotic_probe(s, m, (_h(y) ** 3, 10 * _h(y) ** 3)),
}


@pytest.mark.parametrize("y", [(1, 5), (1, 3)], ids=["soluble", "insoluble"])
@pytest.mark.parametrize("name", sorted(MODEL_CALLS))
def test_model_built_for_another_surface_is_rejected(setup, name, y):
    surface, model = setup
    assert (peyre_constant(surface, model, y) > 0) == (y == (1, 5))
    foreign = HeightModel.for_surface(mixed_bundle(), 2)
    with pytest.raises(InvalidInputError, match="does not match"):
        MODEL_CALLS[name](surface, foreign, y)
