"""conic-census benchmark: one workload, its checks, and its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 5 --trace 0

The workload runs whole rounds until --seconds have passed (at least
one), its outputs are checked against perfbench/oracles.py and the
method's own properties, and the last line of standard output is a JSON
object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1.  A traced run also writes its spans to
perfbench/out/spans-<workload>-<seed>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
from time import perf_counter

import numpy  # noqa: F401  -- loaded before set-up is timed, see README

from tracer import Ops, Tracer
from workloads import TIME_LAYERS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 9


def fresh_import():
    """Import conic_census anew, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "conic_census" or m.startswith("conic_census.")]:
        del sys.modules[name]
    return importlib.import_module("conic_census"), importlib.import_module("conic_census.models")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "conic_census", "__init__.py")):
        print(f"no conic_census sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    wl = WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUPS):
        start = perf_counter()
        cc, models = fresh_import()
        wl.build(cc, models)
        setups.append(perf_counter() - start)

    rng = random.Random(args.seed)
    wl.inputs()
    ops = Ops()
    walls, results = [], []
    began = perf_counter()
    while True:
        start = perf_counter()
        results.append(wl.round(cc, ops))
        walls.append(perf_counter() - start)
        if perf_counter() - began >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(walls)

    problems: list[str] = []
    unexpected = [f for f in ops.failures if f[0] not in wl.expected_failures]
    problems += [f"unexpected failure: {lab}: {cls}: {msg}" for lab, cls, msg in unexpected]
    if any(r != results[0] for r in results[1:]):
        problems.append("rounds gave different results")
    result = results[0]
    try:
        wl.check(cc, result, rng, problems.append)
    except Exception as exc:  # a check that cannot finish is a failed check
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    print(
        f"{args.workload}: {len(walls)} round(s), attempted {ops.attempted}, "
        f"failed {len(ops.failures)}, latency samples {sum(map(len, ops.latencies.values()))} "
        f"over {len(ops.latencies)} operations"
    )
    for lab, cls, msg in ops.failures:
        print(f"  failed: {lab}: {cls}: {msg}")

    if args.trace:
        tr = Tracer()
        tr.root(f"replay {args.workload}")
        try:
            wl.replay(cc, tr, result, problems.append)
        except Exception as exc:
            problems.append(f"replay raised {type(exc).__name__}: {exc}")
        replay_wall = tr.close_root()
        layers = tr.metrics
        layers["conics.box_cells_per_s"] = (
            layers["conics.box_cells"] / layers["conics.box_s"] if layers["conics.box_s"] > 0 else 0.0
        )
        layers["census.pool_efficiency"] = wl.pool_efficiency(wall)
        layers["trace.layers_s"] = sum(layers[k] for k in TIME_LAYERS)
        layers["trace.overhead_s"] = replay_wall - wall
        layers["fibre_p50_ms"] = 1000 * percentile(ops.best_latencies(), 0.50)
        print(f"trace: replay {replay_wall:.3f} s, layers {layers['trace.layers_s']:.3f} s, untraced {wall:.3f} s")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tr.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json"))
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "fibres_per_s": wl.fibres(result) / wall,
            "peak_rss_mb": peak_rss_mb,
            "fibre_p98_ms": 1000 * percentile(ops.best_latencies(), 0.98),
        }
        declared = spec["end_to_end"]

    for p in problems:
        print(f"  CHECK FAILED: {p}")
    for m in declared:
        print(f"  {m['name']:28s} {values[m['name']]:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": ops.attempted,
                "failed": len(ops.failures),
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
