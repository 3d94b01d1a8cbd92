"""Global point counts, Peyre partial sums, and the conjecture probes.

count_total sums exact fibre counts over the base points the height
bound can reach; peyre_sum accumulates the predicted per-fibre constants
shell by shell; the two probe campaigns measure the failure of both
inequalities of the expected linear-growth sandwich, and the Northcott
probe exhibits a section whose height tends to zero.  The rel_tol
parameters are ignored, as in localdata.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .arith import is_prime, prime_divisors, squarefree_part
from .bundle import ConicBundleSurface, fibre_class
from .conics import TernaryForm, _count_fibre, check_strategy
from .errors import EngineError, InvalidInputError
from .heights import HeightModel, base_bound, check_model
from .localdata import SIGMA_INF_REL_ERR, _peyre_constant, peyre_constant
from .models import difference_of_squares_bundle, two_squares_bundle
from .projective import ProjPoint, enumerate_base

__all__ = [
    "BtReport",
    "BtRow",
    "CensusReport",
    "CountSlice",
    "NorthcottReport",
    "PeyreSum",
    "asymptotic_probe",
    "bt_probe",
    "count_total",
    "northcott_probe",
    "peyre_sum",
    "surface_digest",
]


def surface_digest(surface: ConicBundleSurface) -> str:
    """Stable sha256 of the bundle data, for report provenance."""
    parts = [repr((surface.n, surface.a, surface.e))]
    for row in surface.gram:
        for poly in row:
            parts.append(repr(sorted(poly.terms.items())))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# fibre-level parallel map

# Workers receive canonical coordinate tuples and wrap them as points;
# results come back in submission order, so every reduction below sees
# the same value stream whether it ran on one process or many.  The
# callers have checked the model and the strategy, so each fibre is
# resolved once here and handed to the per-fibre functions as it is.


def _fibre_rows(task):
    """(canonical y, per_fibre(record, form, model, *args)) for each base
    point y of one chunk, with None in place of the value on singular fibres."""
    per_fibre, surface, model, coords, args = task
    rows = []
    for y in coords:
        fc = fibre_class(surface, ProjPoint._wrap(y))
        value = per_fibre(fc, TernaryForm(fc.gram), model, *args) if fc.smooth else None
        rows.append((fc.y, value))
    return rows


def _mapped_rows(per_fibre, surface, model, coords, args, workers):
    if workers < 1:
        raise InvalidInputError("worker count must be >= 1")
    if workers == 1 or len(coords) <= 1:
        return _fibre_rows((per_fibre, surface, model, coords, args))
    size = max(1, -(-len(coords) // (4 * workers)))
    chunks = [coords[i : i + size] for i in range(0, len(coords), size)]
    rows = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        tasks = ((per_fibre, surface, model, chunk, args) for chunk in chunks)
        for part in pool.map(_fibre_rows, tasks):
            rows.extend(part)
    return rows


# ---------------------------------------------------------------------------
# exact global counts


@dataclass(frozen=True)
class CountSlice:
    """N(U, H, B) for one bound, with its exact per-fibre breakdown."""

    bound: int
    base_height: int
    strategy: str
    total: int
    fibres: tuple  # ((y coords, count), ...) over smooth fibres
    singular: tuple  # y coords of skipped discriminant fibres


def count_total(
    surface, model: HeightModel, bound, strategy: str = "auto", workers: int = 1
) -> CountSlice:
    """Count height-bounded points of U = {disc != 0, x2 != 0}, exactly.

    Only base points with H(y)^(A + a2) <= B can carry points, so the
    loop stops at base_bound; fibres over the discriminant are skipped.
    """
    check_model(surface, model)
    check_strategy(strategy)
    tb = base_bound(model, bound)
    coords = [y.coords for y in enumerate_base(surface.n, tb)]
    rows = _mapped_rows(_count_fibre, surface, model, coords, (bound, strategy), workers)
    fibres = tuple((y.coords, c) for y, c in rows if c is not None)
    singular = tuple(y.coords for y, c in rows if c is None)
    return CountSlice(
        bound=bound,
        base_height=tb,
        strategy=strategy,
        total=sum(c for _, c in fibres),
        fibres=fibres,
        singular=singular,
    )


# ---------------------------------------------------------------------------
# Peyre partial sums


@dataclass(frozen=True)
class PeyreSum:
    """Sum of per-fibre constants over H(y) <= T, kept shell by shell."""

    max_height: int
    total: float
    shells: tuple  # shells[h-1] = contribution of the height-h shell
    error_bound: float  # SIGMA_INF_REL_ERR * total: sigma_inf's rounding, all terms positive
    n_smooth: int
    n_soluble: int

    def partial(self, t: int) -> float:
        if not 0 <= t <= self.max_height:
            raise InvalidInputError("partial-sum height out of range")
        return math.fsum(self.shells[:t])


def peyre_sum(
    surface, model: HeightModel, max_height: int, rel_tol: float = 1e-8, workers: int = 1
) -> PeyreSum:
    """Sum the predicted constants c_y over base height <= max_height.

    Insoluble fibres contribute an exact 0 without computing sigma_inf;
    fsum keeps the shell totals independent of enumeration order.
    """
    check_model(surface, model)
    if max_height < 1:
        raise InvalidInputError("partial-sum height must be >= 1")
    coords = [y.coords for y in enumerate_base(surface.n, max_height)]
    rows = _mapped_rows(_peyre_constant, surface, model, coords, (), workers)
    shells = [[] for _ in range(max_height)]
    n_smooth = n_soluble = 0
    for y, c in rows:
        if c is None:
            continue
        n_smooth += 1
        if c:
            n_soluble += 1
            shells[y.height() - 1].append(c)
    shell_sums = tuple(math.fsum(vals) for vals in shells)
    total = math.fsum(shell_sums)
    return PeyreSum(
        max_height=max_height,
        total=total,
        shells=shell_sums,
        error_bound=SIGMA_INF_REL_ERR * total,
        n_smooth=n_smooth,
        n_soluble=n_soluble,
    )


# ---------------------------------------------------------------------------
# asymptotic probe


@dataclass(frozen=True)
class CensusReport:
    """Joint table of exact counts against the predicted linear growth."""

    bounds: tuple
    slices: tuple  # CountSlice per bound
    ratios: tuple  # N/B per bound
    peyre: PeyreSum
    peyre_partials: tuple  # (T, partial sum) matched to each bound
    slope: float  # through-origin LS fit of N against B, top half
    residuals: tuple  # N - slope*B over the full grid
    metadata: dict


def asymptotic_probe(
    surface,
    model: HeightModel,
    bounds=None,
    strategy: str = "auto",
    rel_tol: float = 1e-8,
    workers: int = 1,
) -> CensusReport:
    """Measure N(U, H, B)/B against the Peyre partial sums on a B grid.

    The slope is fitted through the origin on the top half of the grid
    only; small B is dominated by the o(1) term and would bias it.
    """
    check_model(surface, model)
    if bounds is None:
        bounds = tuple(10_000 * 2**k for k in range(5))
    bounds = tuple(bounds)
    if len(bounds) < 2 or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise InvalidInputError("bound grid must be increasing with >= 2 entries")
    slices = tuple(count_total(surface, model, b, strategy, workers) for b in bounds)
    ratios = tuple(s.total / float(b) for s, b in zip(slices, bounds))
    ps = peyre_sum(surface, model, max(1, slices[-1].base_height), workers=workers)
    partials = tuple((s.base_height, ps.partial(s.base_height)) for s in slices)
    top = slices[len(slices) // 2 :]
    num = math.fsum(float(s.total) * float(s.bound) for s in top)
    den = math.fsum(float(s.bound) ** 2 for s in top)
    slope = num / den
    residuals = tuple(s.total - slope * s.bound for s in slices)
    meta = {
        "surface": surface_digest(surface),
        "alpha": str(model.alpha),
        "strategy": strategy,
    }
    return CensusReport(
        bounds=bounds,
        slices=slices,
        ratios=ratios,
        peyre=ps,
        peyre_partials=partials,
        slope=slope,
        residuals=residuals,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# conjecture probes


@dataclass(frozen=True)
class BtRow:
    t: int
    omega: int
    soluble: bool
    tau: float
    normalized: float  # tau * t^(2+alpha) / pi
    admissible: bool  # every prime divisor is 1 mod 4
    formula: float | None  # (8/pi^2) prod 2p/(p+1) when admissible


@dataclass(frozen=True)
class BtReport:
    alpha: Fraction
    t_max: int
    rows: tuple
    lower_violations: tuple  # primes t = 3 mod 4 whose fibre constant is 0
    growth: tuple  # (k, t_k, normalized, lower bound) along prime products
    growth_monotone: bool
    formula_max_rel_err: float


def _growth_products(terms: int):
    out = []
    t = 1
    p = 5
    while len(out) < terms:
        if is_prime(p) and p % 4 == 1:
            t *= p
            out.append(t)
        p += 4
    return out


def bt_probe(alpha, t_max: int, rel_tol: float = 1e-8, growth_terms: int = 6) -> BtReport:
    """Test both inequalities of the expected sandwich c1 <= tau-scale <= c2.

    Every prime t = 3 mod 4 gives an insoluble fibre, so the normalized
    constant hits 0 infinitely often (no positive lower bound); along
    products of primes = 1 mod 4 it grows like (4/3)^omega (no upper
    bound).  Admissible rows are checked against the closed formula.
    """
    surface = two_squares_bundle()
    model = HeightModel.for_surface(surface, alpha)
    exp = 2 + float(model.alpha)
    rows = []
    worst = 0.0
    for t in range(1, t_max + 1):
        if squarefree_part(t) != t:
            continue
        primes = prime_divisors(t)
        tau = peyre_constant(surface, model, (1, t))
        normalized = tau * float(t) ** exp / math.pi
        admissible = all(p % 4 == 1 for p in primes)
        formula = None
        if admissible:
            formula = (8.0 / math.pi**2) * float(
                math.prod(Fraction(2 * p, p + 1) for p in primes)
            )
            worst = max(worst, abs(normalized - formula) / formula)
        rows.append(
            BtRow(
                t=t,
                omega=len(primes),
                soluble=tau > 0,
                tau=tau,
                normalized=normalized,
                admissible=admissible,
                formula=formula,
            )
        )
    lower = tuple(r.t for r in rows if is_prime(r.t) and r.t % 4 == 3 and r.tau == 0.0)
    growth = []
    zeta2inv = 6.0 / math.pi**2
    for k, tk in enumerate(_growth_products(growth_terms), start=1):
        tau = peyre_constant(surface, model, (1, tk))
        growth.append((k, tk, tau * float(tk) ** exp / math.pi, zeta2inv * (4.0 / 3.0) ** k))
    monotone = all(b[2] > a[2] for a, b in zip(growth, growth[1:])) and all(
        g[2] >= g[3] for g in growth
    )
    return BtReport(
        alpha=model.alpha,
        t_max=t_max,
        rows=tuple(rows),
        lower_violations=lower,
        growth=tuple(growth),
        growth_monotone=monotone,
        formula_max_rel_err=worst,
    )


@dataclass(frozen=True)
class NorthcottReport:
    a: int
    alpha: Fraction
    exponent: int  # 3 - a/3 < 0
    rows: tuple  # (y coords, exact section height as Fraction)
    unit_count: int  # rows with section height exactly 1


def northcott_probe(a: int, count: int = 20, f=None) -> NorthcottReport:
    """Exact heights of the section (1 : -1 : 0) over the first base points.

    On x0^2 - x1^2 = f(y) x2^2 with alpha = 2a/3 + 1 the section height
    is H(y)^(3 - a/3), which tends to 0: arbitrarily many points below
    any epsilon, against the Northcott finiteness one has for ample
    heights.  The section meets every fibre, so singular fibres are
    listed too, unlike in the census counts.
    """
    if count < 1:
        raise InvalidInputError("need at least one section point")
    surface = difference_of_squares_bundle(a, f)
    model = HeightModel.for_surface(surface, Fraction(2 * a, 3) + 1)
    k = a // 3 - 3
    rows = []
    units = 0
    hmax = math.isqrt(count) + 2
    pts = list(islice(enumerate_base(1, hmax), count))
    while len(pts) < count:
        hmax *= 2
        pts = list(islice(enumerate_base(1, hmax), count))
    for y in pts:
        # H(y)^A * max_j H(y)^(a_j) |x_j| at x = (1, -1, 0); A is an integer
        h = y.height()
        factor = max(h**w * abs(c) for w, c in zip(model.a, (1, -1, 0)))
        value = Fraction(h) ** int(model.A) * factor
        expected = Fraction(1, h**k)
        if value != expected or value > 1:
            raise EngineError("section height drifted off the closed form")
        if value == 1:
            units += 1
        rows.append((y.coords, value))
    return NorthcottReport(
        a=a, alpha=model.alpha, exponent=3 - a // 3, rows=tuple(rows), unit_count=units
    )
