"""Fast self-check of the benchmark's reference computations.

Runs every oracle in oracles.py, and the input generator the workloads
share, against the engine on tiny inputs (B = 10^3, T = 10) and exits
non-zero on the first disagreement.  Run from the repository root:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import os
import sys

import oracles
from workloads import CELL_CAP

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import conic_census as cc  # noqa: E402
from conic_census.models import mixed_bundle, two_squares_bundle  # noqa: E402

B, T = 10**3, 10


def main() -> int:
    passed = 0

    def check(ok: bool, what: str) -> None:
        nonlocal passed
        if not ok:
            raise SystemExit(f"selfcheck FAILED: {what}")
        passed += 1

    ts = two_squares_bundle()
    tsm = cc.HeightModel.for_surface(ts, 1)
    mx = mixed_bundle()
    mxm = cc.HeightModel.for_surface(mx, 2)
    cases = (
        (ts, tsm, oracles.two_squares_gram, oracles.TWO_SQUARES_EXPONENTS),
        (mx, mxm, oracles.mixed_gram, oracles.MIXED_EXPONENTS),
    )

    pts = list(cc.enumerate_base(1, T))
    check(len(pts) == oracles.base_point_count(T), f"base points up to height {T}")

    for surface, model, gram, exps in cases:
        check(
            all(cc.fibre_class(surface, y).gram == gram(y.coords) for y in pts),
            f"Gram matrices of {surface!r} up to height {T}",
        )
        smooth = {y.coords for y in pts if cc.fibre_class(surface, y).smooth}
        check(set(oracles.smooth_points(T, gram)) == smooth, f"smooth fibres of {surface!r} up to height {T}")
        res = cc.count_total(surface, model, B)
        check(
            len(res.fibres) + len(res.singular) == oracles.base_point_count(res.base_height),
            f"fibre count of {surface!r} at B = {B}",
        )
        for yc, n in res.fibres:
            box = oracles.fibre_box(B, max(map(abs, yc)), exps)
            check(tuple(cc.fibre_box(model, yc, B)) == box, f"fibre box at {yc}")
            if oracles.box_cells(box) <= CELL_CAP:
                check(oracles.brute_count(gram(yc), box) == n, f"brute recount at {yc}: {n}")
        for y in pts:
            m = gram(y.coords)
            if oracles.det3(m) == 0:
                continue
            for p in (2, 3, 5):
                if p ** (3 * oracles.sigma_p_level(m, p)) <= CELL_CAP:
                    ref = oracles.sigma_p_enumerated(m, p)
                    check(cc.sigma_p(surface, y, p) == ref, f"sigma_{p} at {y} = {ref}")

    res = cc.count_total(ts, tsm, B)
    check(
        all((n > 0) == oracles.two_squares_soluble(yc) and n % 2 == 0 for yc, n in res.fibres),
        "two-squares solubility against nonzero counts",
    )
    for y in pts:
        if y[0] * y[1] != 0:
            soluble = oracles.two_squares_soluble(y.coords)
            check(cc.is_soluble(oracles.two_squares_gram(y.coords)) == soluble, f"solubility at {y}")
        if oracles.two_squares_admissible(y.coords):
            c = cc.peyre_constant(ts, tsm, y)
            ref = oracles.two_squares_constant(y.coords)
            check(abs(c - ref) <= 1e-6 * ref, f"closed-form constant at {y}")

    ps = cc.peyre_sum(ts, tsm, T)
    sol = sum(oracles.two_squares_soluble(y.coords) for y in pts)
    check(ps.n_soluble == sol, f"soluble fibres up to height {T}: {sol}")
    print(f"selfcheck passed: {passed} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
