"""Timing of the benchmark's calls into the engine.

Ops times the workload's own engine calls in the untraced run and
counts the ones that raise.  Tracer records a span around every call
the traced replay makes, keeps the spans in memory and writes them out
once the run ends; the replay adds the span durations into named layer
metrics as it goes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Ops:
    """Attempted and failed engine calls, and the latencies of the ones
    that returned, by label.  A raising call is recorded and the workload
    carries on."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # (label, class, message)
        self.latencies: defaultdict[str, list[float]] = defaultdict(list)

    def call(self, label: str, fn, *args):
        """fn(*args), or None when it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an engine fault is a counted outcome
            self.failures.append((label, type(exc).__name__, str(exc)))
            return None
        self.latencies[label].append(perf_counter() - start)
        return out

    def best_latencies(self) -> list[float]:
        """Each label's least latency: one value per operation, whatever
        the number of times it was called."""
        return [min(v) for v in self.latencies.values()]


class Tracer:
    """Spans around the replay's engine calls, plus the layer metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, key, parent index, start, end, ok]
        self.metrics: defaultdict[str, float] = defaultdict(float)
        self._parent = -1
        self.last_s = 0.0

    def call(self, name: str, key, fn, *args):
        """Run fn(*args) in a span; its duration is left in last_s."""
        rec = [name, key, self._parent, perf_counter(), 0.0, True]
        self.spans.append(rec)
        try:
            return fn(*args)
        except BaseException:
            rec[5] = False
            raise
        finally:
            rec[4] = perf_counter()
            self.last_s = rec[4] - rec[3]

    def timed(self, layer: str, key, fn, *args):
        """call() that also adds the duration to the metric layer + '_s'."""
        try:
            return self.call(layer, key, fn, *args)
        finally:
            self.metrics[layer + "_s"] += self.last_s

    def root(self, name: str):
        """Open a span that parents the calls made until close_root()."""
        self.spans.append([name, None, self._parent, perf_counter(), 0.0, True])
        self._parent = len(self.spans) - 1

    def close_root(self) -> float:
        rec = self.spans[self._parent]
        rec[4] = perf_counter()
        self._parent = rec[2]
        return rec[4] - rec[3]

    def count(self, name: str, n: float = 1) -> None:
        self.metrics[name] += n

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "key", "parent", "start", "end", "ok"], "spans": self.spans}, fh)
