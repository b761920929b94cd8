"""Measurement helpers: percentiles, peak RSS and the host probe."""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(samples)
    if not xs:
        return math.nan
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timing_summary(samples_s: Sequence[float], tail_pct: float) -> Dict[str, float]:
    """Median and tail of durations given in seconds, reported in ms.

    ``beyond`` is how many samples lie above the tail percentile; the
    tail is meaningful only while it is at least ten.
    """
    ms = [s * 1e3 for s in samples_s]
    tail = percentile(ms, tail_pct)
    return {
        "p50_ms": percentile(ms, 50.0),
        "tail_ms": tail,
        "tail_pct": tail_pct,
        "count": len(ms),
        "beyond": sum(1 for x in ms if x > tail),
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (default: self), MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class HostProbe:
    """Frozen kernels owned by the benchmark, timed between ops.

    The shared 2-vCPU VM this benchmark was built on has speed phases:
    for 5-25 s at a time the same code runs 1.3x-1.9x slower, on both
    CPUs at once, with no steal time, and memory-heavy Python code slows
    the most.  The probe's inputs never change, so its time follows the
    host alone.  It has three parts, each a few ms:

    ``csr``
        a CSR export of a frozen 2000-vertex adjacency of Python sets
        (sorted tuples, then numpy slice stores): Python-object heavy;
    ``sort``
        ``numpy.lexsort`` of four frozen 20000-element arrays;
    ``py``
        sort a frozen list of ints and index it in a dict.

    :meth:`host_factor` turns the parts measured nearest an instant into
    that instant's slowdown against :data:`NOMINAL_MS` (the parts' times
    in a quiet phase of that VM), weighted by a workload's mix of parts.
    """

    PARTS = ("csr", "sort", "py")
    NOMINAL_MS = {"csr": 2.87, "sort": 6.5, "py": 3.18}

    def __init__(self) -> None:
        import numpy as np

        rng = random.Random("perfbench/host-probe")
        n = 2000
        self._adj: List[set] = [set() for _ in range(n)]
        for _ in range(4000):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                self._adj[u].add(v)
                self._adj[v].add(u)
        self._keys = [
            np.array([rng.getrandbits(30) for _ in range(20000)], dtype=np.int64)
            for _ in range(4)
        ]
        self._list = [rng.getrandbits(32) for _ in range(10000)]
        self._np = np
        self.times: List[float] = []
        self.parts: List[Dict[str, float]] = []

    def _csr(self) -> int:
        np = self._np
        adj = self._adj
        rows = [tuple(sorted(s)) for s in adj]
        indptr = np.zeros(len(adj) + 1, dtype=np.int64)
        for u, row in enumerate(rows):
            indptr[u + 1] = indptr[u] + len(row)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for u, row in enumerate(rows):
            indices[int(indptr[u]): int(indptr[u + 1])] = row
        return int(indices[-1])

    def _sort(self) -> int:
        return int(self._np.lexsort(self._keys)[0])

    def _py(self) -> int:
        ordered = sorted(self._list)
        index = {x: i for i, x in enumerate(ordered)}
        return len(index)

    def run(self) -> float:
        """Time every part once; returns the total seconds."""
        parts = {}
        mid = time.perf_counter()
        for name in self.PARTS:
            t0 = time.perf_counter()
            if getattr(self, "_" + name)() < 0:
                raise RuntimeError("host probe kernel misbehaved")
            parts[name] = time.perf_counter() - t0
        self.times.append((mid + time.perf_counter()) / 2)
        self.parts.append(parts)
        return sum(parts.values())

    def median_ms(self) -> float:
        """Median total probe time in ms (NaN before the first probe)."""
        return percentile([sum(p.values()) for p in self.parts], 50.0) * 1e3

    def factors(self, mix: Dict[str, float]) -> List[float]:
        """Each probe's slowdown for a workload with part ``mix``: the
        mix-weighted ratio of each part's time to its nominal time."""
        weight = sum(mix.values())
        return [
            sum(w * parts[p] * 1e3 / self.NOMINAL_MS[p] for p, w in mix.items()) / weight
            for parts in self.parts
        ]

    def host_factor(self, at: float, factors: List[float]) -> float:
        """The median of ``factors`` over the probes within
        :data:`SMOOTH_S` of ``at`` (the nearest probe if none is)."""
        lo = bisect.bisect_left(self.times, at - self.SMOOTH_S)
        hi = bisect.bisect_right(self.times, at + self.SMOOTH_S)
        if lo == hi:
            i = min(range(len(self.times)), key=lambda j: abs(self.times[j] - at))
            return factors[i]
        return statistics.median(factors[lo:hi])

    #: Half-width of the window a host factor is smoothed over; host
    #: phases last 5 s or more, single probes jitter by a few percent.
    SMOOTH_S = 2.0


def host_adjusted(samples: List[Tuple[float, float]], probe: HostProbe,
                  mix: Dict[str, float]) -> List[float]:
    """``(start, seconds)`` samples divided by the host factor at their start."""
    factors = probe.factors(mix)
    return [d / probe.host_factor(s, factors) for s, d in samples]
