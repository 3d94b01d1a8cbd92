"""The benchmark's four workloads.

Each workload builds its surfaces (timed as set-up), runs one round of
engine calls (timed as the workload), checks the round's outputs
against oracles.py and properties of the method, and can replay the
round from the engine's public per-fibre functions under a Tracer to
split its time into layers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

import oracles

# count_fibre's "auto" picks the box scan when the box has at most this
# many (x1, x2) rows, (2 b1 + 1) b2, and the parametrized scan otherwise;
# the replay makes the same choice so that each fibre's time lands on
# the kernel the untraced run used.
AUTO_BOX_LIMIT = 200_000

# brute-force recounts and p-adic enumerations visit every cell; the
# seeded samples are drawn from the fibres where that stays below this
CELL_CAP = 1 << 21
SAMPLE = 6

REL_TOL = 1e-8

TIME_LAYERS = (
    "projective.enumerate_s",
    "bundle.fibre_class_s",
    "heights.fibre_box_s",
    "conics.solubility_s",
    "conics.parametrize_s",
    "conics.param_s",
    "conics.box_s",
    "localdata.sigma_p2_s",
    "localdata.sigma_p_odd_s",
    "localdata.sigma_inf_s",
)


def label(op: str, y) -> str:
    return f"{op} ({' : '.join(map(str, y))})"


def height(y) -> int:
    return max(abs(c) for c in y)


# ---------------------------------------------------------------------------
# checks shared by the workloads


def check_slice(res, gram, exponents, rng, fail, two_squares: bool) -> None:
    """A count_total result against the oracles.

    Every base point up to res.base_height is either a counted fibre or
    a singular one; a seeded sample of fibres, most of them with points,
    is recounted by brute force; on two_squares the count is even and
    nonzero exactly on the soluble fibres.
    """
    where = f"B = {res.bound}"
    expected = oracles.base_point_count(res.base_height)
    if len(res.fibres) + len(res.singular) != expected:
        fail(f"{where}: {len(res.fibres)} + {len(res.singular)} fibres, expected {expected}")
    bad = [yc for yc in res.singular if oracles.det3(gram(yc)) != 0]
    if bad:
        fail(f"{where}: smooth fibres reported singular: {bad[:5]}")
    if res.total != sum(n for _, n in res.fibres):
        fail(f"{where}: total is not the sum of the fibre counts")
    if two_squares:
        bad = [
            (yc, n)
            for yc, n in res.fibres
            if n % 2 or (n > 0) != oracles.two_squares_soluble(yc)
        ]
        if bad:
            fail(f"{where}: counts against the two-squares theorem: {bad[:5]}")
    small = ([], [])  # fibres with no counted point, with some
    for yc, n in res.fibres:
        box = oracles.fibre_box(res.bound, height(yc), exponents)
        if oracles.box_cells(box) <= CELL_CAP:
            small[n > 0].append((yc, n, box))
    for group, k in zip(small, (2, SAMPLE)):
        for yc, n, box in rng.sample(group, min(k, len(group))):
            ref = oracles.brute_count(gram(yc), box)
            if ref != n:
                fail(f"{where}: fibre {yc} counted {n}, brute force {ref}")


def check_sigma_p(cc, surface, gram, fibres, rng, fail) -> None:
    """sigma_p for p <= 5 on a seeded sample against enumeration mod p^k."""
    pairs = []
    for yc in fibres:
        m = gram(yc)
        d = oracles.det3(m)
        for p in (2, 3, 5):
            if (2 * d) % p == 0 and p ** (3 * oracles.sigma_p_level(m, p)) <= CELL_CAP:
                pairs.append((yc, p))
    for yc, p in rng.sample(pairs, min(SAMPLE, len(pairs))):
        got = cc.sigma_p(surface, yc, p)
        ref = oracles.sigma_p_enumerated(gram(yc), p)
        if got != ref:
            fail(f"sigma_{p} at {yc}: engine {got}, enumeration {ref}")


def check_two_squares_sum(cc, surface, model, ps, rng, fail) -> None:
    """A two_squares peyre_sum result against the oracles.

    Smooth and soluble fibre counts by the two-squares theorem; the
    closed-form constant on every admissible fibre, whose sum per height
    is a floor for that shell; sigma_p on a seeded sample.
    """
    where = f"T = {ps.max_height}"
    pts = oracles.smooth_points(ps.max_height, oracles.two_squares_gram)
    soluble = sum(map(oracles.two_squares_soluble, pts))
    if (ps.n_smooth, ps.n_soluble) != (len(pts), soluble):
        fail(f"{where}: {ps.n_smooth}/{ps.n_soluble} smooth/soluble fibres, expected {len(pts)}/{soluble}")
    if ps.total != math.fsum(ps.shells) or min(ps.shells) < 0:
        fail(f"{where}: shells do not add up to a nonnegative total")
    floor = [0.0] * ps.max_height
    for y in filter(oracles.two_squares_admissible, pts):
        c = cc.peyre_constant(surface, model, y, REL_TOL)
        ref = oracles.two_squares_constant(y)
        floor[height(y) - 1] += ref
        if abs(c - ref) > 1e-6 * ref:
            fail(f"{where}: constant at {y} is {c}, closed form {ref}")
    low = [h + 1 for h, (a, b) in enumerate(zip(ps.shells, floor)) if a < b * (1 - 1e-6)]
    if low:
        fail(f"{where}: shells below their admissible fibres' closed forms at heights {low[:5]}")
    check_sigma_p(cc, surface, oracles.two_squares_gram, pts, rng, fail)


# ---------------------------------------------------------------------------
# traced replay from the public per-fibre functions


def replay_fibre(cc, tr, surface, model, y, bound, both: bool = False):
    """count_fibre(surface, model, y, bound) rebuilt from public calls;
    None on a singular fibre.

    count_fibre repeats fibre_class, fibre_box, the solubility test and
    parametrize internally; the kernel's self time is its duration minus
    those calls made separately on the same fibre.
    """
    key = tuple(y)
    fc = tr.timed("bundle.fibre_class", key, cc.fibre_class, surface, y)
    shared = tr.last_s
    if not fc.smooth:
        tr.count("bundle.singular_fibres")
        return None
    tr.count("bundle.smooth_fibres")
    box = tr.timed("heights.fibre_box", key, cc.fibre_box, model, fc.y, bound)
    shared += tr.last_s
    if box[2] < 1:
        return 0
    form = cc.TernaryForm(fc.gram)
    soluble = tr.timed("conics.solubility", key, cc.is_soluble, form)
    shared += tr.last_s
    tr.count("conics.soluble_fibres" if soluble else "conics.insoluble_fibres")
    if not soluble:
        return 0
    cells = (2 * box[1] + 1) * box[2]
    if both:
        kinds = ("box", "parametrized")
    else:
        kinds = ("box",) if cells <= AUTO_BOX_LIMIT else ("parametrized",)
    counts = []
    for kind in kinds:
        own = shared
        if kind == "parametrized":
            tr.timed("conics.parametrize", key, cc.parametrize, form)
            tr.count("conics.parametrize_calls")
            own += tr.last_s
        layer = "conics.box" if kind == "box" else "conics.param"
        try:
            counts.append(tr.call("conics.count_fibre", key, cc.count_fibre, surface, model, y, bound, kind))
        finally:
            tr.count(layer + "_s", tr.last_s - own)
            tr.count(layer + "_fibres")
        if kind == "box":
            tr.count("conics.box_cells", cells)
    if len(set(counts)) != 1:
        raise AssertionError(f"box and parametrized counts differ on {key}: {counts}")
    return counts[0]


def replay_counts(cc, tr, surface, model, bound, both: bool = False):
    """(fibres, singular) of count_total(surface, model, bound)."""
    t = cc.base_bound(model, bound)
    pts = tr.timed("projective.enumerate", None, lambda: list(cc.enumerate_base(surface.n, t)))
    tr.count("projective.base_points", len(pts))
    fibres, singular = [], []
    for y in pts:
        n = replay_fibre(cc, tr, surface, model, y, bound, both)
        if n is None:
            singular.append(y.coords)
        else:
            fibres.append((y.coords, n))
    return tuple(fibres), tuple(singular)


def replay_constant(cc, tr, surface, model, y):
    """peyre_constant(surface, model, y) from fibre_class, the solubility
    test, sigma_inf and sigma_p at each prime dividing 2 disc; None for a
    singular fibre."""
    key = tuple(y)
    fc = tr.timed("bundle.fibre_class", key, cc.fibre_class, surface, y)
    if not fc.smooth:
        tr.count("bundle.singular_fibres")
        return None
    tr.count("bundle.smooth_fibres")
    soluble = tr.timed("conics.solubility", key, cc.is_soluble, cc.TernaryForm(fc.gram))
    tr.count("conics.soluble_fibres" if soluble else "conics.insoluble_fibres")
    if not soluble:
        return 0.0
    s_inf = tr.timed("localdata.sigma_inf", key, cc.sigma_inf, surface, model, y, REL_TOL)
    tr.count("localdata.sigma_inf_calls")
    ratio = Fraction(1)
    for p in sorted(oracles.prime_factors(2 * fc.disc)):
        layer = "localdata.sigma_p2" if p == 2 else "localdata.sigma_p_odd"
        tr.count(layer + "_calls")
        try:
            s_p = tr.timed(layer, (key, p), cc.sigma_p, surface, y, p)
        except Exception:
            tr.count("localdata.sigma_p_failed")
            raise
        finally:
            tr.metrics["localdata.sigma_p_max_s"] = max(tr.metrics["localdata.sigma_p_max_s"], tr.last_s)
        ratio *= s_p * Fraction(p * p, p * p - 1)
    return s_inf * (6.0 / math.pi**2) * float(ratio)


def replay_peyre_sum(cc, tr, surface, model, max_height: int):
    """(shell sums, smooth fibres, soluble fibres) of peyre_sum."""
    pts = tr.timed("projective.enumerate", None, lambda: list(cc.enumerate_base(surface.n, max_height)))
    tr.count("projective.base_points", len(pts))
    shells = [[] for _ in range(max_height)]
    n_smooth = n_soluble = 0
    for y in pts:
        c = replay_constant(cc, tr, surface, model, y)
        if c is None:
            continue
        n_smooth += 1
        if c:
            n_soluble += 1
            shells[y.height() - 1].append(c)
    return tuple(math.fsum(v) for v in shells), n_smooth, n_soluble


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 10 * REL_TOL * max(abs(a), abs(b))


def compare_peyre(ps, replayed, fail, where: str) -> None:
    shells, n_smooth, n_soluble = replayed
    if (n_smooth, n_soluble) != (ps.n_smooth, ps.n_soluble):
        fail(f"{where}: replay has {n_smooth}/{n_soluble} smooth/soluble fibres")
    bad = [h + 1 for h, (a, b) in enumerate(zip(shells, ps.shells)) if not close(a, b)]
    if len(shells) != len(ps.shells) or bad:
        fail(f"{where}: replayed shells differ at heights {bad[:5]}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    expected_failures: frozenset = frozenset()

    def build(self, cc, models) -> None:
        """Build the surfaces and height models (timed as set-up)."""
        raise NotImplementedError

    def inputs(self) -> None:
        """Input generation, outside every timed region."""

    def round(self, cc, ops):
        """One round of the workload's engine calls; returns its result."""
        raise NotImplementedError

    def fibres(self, result) -> int:
        """Smooth fibres the round produced a result for."""
        raise NotImplementedError

    def check(self, cc, result, rng, fail) -> None:
        raise NotImplementedError

    def replay(self, cc, tr, result, fail) -> None:
        """Replay the round under the tracer and compare its results."""
        raise NotImplementedError

    def pool_efficiency(self, wall: float) -> float:
        """workers=1 wall / (workers x pooled wall); 1 on one process."""
        return 1.0


class TwoSquares(Workload):
    def build(self, cc, models) -> None:
        self.surface = models.two_squares_bundle()
        self.model = cc.HeightModel.for_surface(self.surface, 1)


class Census(TwoSquares):
    """count_total on two_squares at B = 10^6, one process."""

    name = "census"
    bound = 10**6

    def round(self, cc, ops):
        return ops.call("count_total", cc.count_total, self.surface, self.model, self.bound, "auto", 1)

    def fibres(self, result) -> int:
        return len(result.fibres)

    def check(self, cc, result, rng, fail) -> None:
        check_slice(result, oracles.two_squares_gram, oracles.TWO_SQUARES_EXPONENTS, rng, fail, True)

    def replay(self, cc, tr, result, fail) -> None:
        fibres, singular = replay_counts(cc, tr, self.surface, self.model, self.bound)
        if (fibres, singular) != (result.fibres, result.singular):
            fail("census: replayed counts differ from count_total")


class Peyre(TwoSquares):
    """peyre_sum on two_squares at T = 100, one process."""

    name = "peyre"
    max_height = 100

    def round(self, cc, ops):
        return ops.call("peyre_sum", cc.peyre_sum, self.surface, self.model, self.max_height, REL_TOL, 1)

    def fibres(self, result) -> int:
        return result.n_smooth

    def check(self, cc, result, rng, fail) -> None:
        check_two_squares_sum(cc, self.surface, self.model, result, rng, fail)

    def replay(self, cc, tr, result, fail) -> None:
        replayed = replay_peyre_sum(cc, tr, self.surface, self.model, self.max_height)
        compare_peyre(result, replayed, fail, "peyre")


class Grid(TwoSquares):
    """asymptotic_probe's default grid with its matched peyre_sum.

    The timed round runs on one process: on a 2-core machine shared
    with other work, two workers spread the wall time too widely to
    bound.  The checks run the same probe on two workers, which gives
    the pool efficiency.
    """

    name = "grid"
    workers = 2
    pooled_wall = 0.0  # set by check()

    def round(self, cc, ops):
        return ops.call("asymptotic_probe", cc.asymptotic_probe, self.surface, self.model, None, "auto", REL_TOL, 1)

    def fibres(self, result) -> int:
        return sum(len(s.fibres) for s in result.slices) + result.peyre.n_smooth

    def check(self, cc, result, rng, fail) -> None:
        start = perf_counter()
        pooled = cc.asymptotic_probe(self.surface, self.model, None, "auto", REL_TOL, self.workers)
        self.pooled_wall = perf_counter() - start
        if pooled != result:
            fail(f"grid: results differ between workers = 1 and workers = {self.workers}")
        totals = [s.total for s in result.slices]
        if result.bounds != tuple(10_000 * 2**k for k in range(5)):
            fail(f"grid: unexpected default bounds {result.bounds}")
        if any(b < a for a, b in zip(totals, totals[1:])):
            fail(f"grid: totals decrease in B: {totals}")
        top, partial = result.ratios[-1], result.peyre_partials[-1][1]
        if abs(top - partial) > 0.1 * partial:
            fail(f"grid: N/B = {top} at the top bound, partial sum {partial}")
        for s in result.slices:
            check_slice(s, oracles.two_squares_gram, oracles.TWO_SQUARES_EXPONENTS, rng, fail, True)
        check_two_squares_sum(cc, self.surface, self.model, result.peyre, rng, fail)

    def replay(self, cc, tr, result, fail) -> None:
        for s in result.slices:
            fibres, singular = replay_counts(cc, tr, self.surface, self.model, s.bound)
            if (fibres, singular) != (s.fibres, s.singular):
                fail(f"grid: replayed counts differ at B = {s.bound}")
        replayed = replay_peyre_sum(cc, tr, self.surface, self.model, result.peyre.max_height)
        compare_peyre(result.peyre, replayed, fail, "grid")

    def pool_efficiency(self, wall: float) -> float:
        return wall / (self.workers * self.pooled_wall) if self.pooled_wall else 0.0


class Mixed(Workload):
    """Non-diagonal and large-coefficient fibres, one peyre_constant
    operation per fibre.

    A single call samples the host's speed over too short a window to
    give a steady latency, so every fibre whose first peyre_constant
    returned is called again in further passes, and the operation's
    latency is the least of its calls.  (15 : -8) takes 5-7 s and is
    called once: about twenty operations lie beyond p98, so its one
    sample cannot move p98.
    """

    name = "mixed"
    bound = 2000
    max_height = 28
    passes = 6
    called_once = frozenset([(15, -8)])
    large = ((1, 2), 10**5)
    expected_failures = frozenset(
        [label("peyre_constant", (14, 9)), label("peyre_constant", (22, -7)), label("count_fibre", (1, 2))]
    )

    def build(self, cc, models) -> None:
        self.surface = models.mixed_bundle()
        self.model = cc.HeightModel.for_surface(self.surface, 2)
        self.large_surface = models.difference_of_squares_bundle(12)
        self.large_model = cc.HeightModel.for_surface(self.large_surface, 9)

    def inputs(self) -> None:
        self.points = oracles.smooth_points(self.max_height, oracles.mixed_gram)

    def round(self, cc, ops):
        res = ops.call("count_total", cc.count_total, self.surface, self.model, self.bound, "both", 1)
        consts, unsteady = {}, set()
        for y in self.points:
            consts[y] = ops.call(label("peyre_constant", y), cc.peyre_constant, self.surface, self.model, y, REL_TOL)
        for _ in range(self.passes - 1):
            for y in self.repeated(consts):
                c = ops.call(label("peyre_constant", y), cc.peyre_constant, self.surface, self.model, y, REL_TOL)
                if c != consts[y]:
                    unsteady.add(y)
        y, bound = self.large
        large = ops.call(label("count_fibre", y), cc.count_fibre, self.large_surface, self.large_model, y, bound, "auto")
        return res, consts, large, frozenset(unsteady)

    def repeated(self, consts) -> list:
        """The fibres called again after the first pass."""
        return [y for y in self.points if consts[y] is not None and y not in self.called_once]

    def fibres(self, result) -> int:
        res, consts, large, _ = result
        return len(res.fibres) + sum(c is not None for c in consts.values()) + (large is not None)

    def check(self, cc, result, rng, fail) -> None:
        res, consts, large, unsteady = result
        if unsteady:
            fail(f"mixed: repeated peyre_constant calls differ at {sorted(unsteady)[:5]}")
        check_slice(res, oracles.mixed_gram, oracles.MIXED_EXPONENTS, rng, fail, False)
        if any(c is not None and not c >= 0 for c in consts.values()):
            fail("mixed: negative or NaN constant")
        for yc, n in res.fibres:
            c = consts.get(yc)
            if c is not None and n > 0 and c == 0:
                fail(f"mixed: {yc} has {n} counted points but a zero constant")
        check_sigma_p(cc, self.surface, oracles.mixed_gram, sorted(consts), rng, fail)

    def replay(self, cc, tr, result, fail) -> None:
        res, consts, large, _ = result
        fibres, singular = replay_counts(cc, tr, self.surface, self.model, self.bound, both=True)
        if (fibres, singular) != (res.fibres, res.singular):
            fail("mixed: replayed counts differ from count_total")
        rest = self.repeated(consts)
        for y in self.points + rest * (self.passes - 1):
            try:
                c = replay_constant(cc, tr, self.surface, self.model, y)
            except Exception:
                c = None
            if (c is None) != (consts[y] is None) or (c is not None and not close(c, consts[y])):
                fail(f"mixed: replayed constant at {y} is {c}, untraced {consts[y]}")
        y, bound = self.large
        try:
            n = replay_fibre(cc, tr, self.large_surface, self.large_model, y, bound)
        except Exception:
            n = None
        if n != large:
            fail(f"mixed: replayed count on the large fibre is {n}, untraced {large}")


WORKLOADS = {w.name: w for w in (Census, Peyre, Grid, Mixed)}
