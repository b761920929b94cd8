"""The repository's benchmark: one command, three closed-loop workloads.

Usage::

    python3 perfbench/run.py --workload tester-accept --seed 1 --seconds 20 --trace 0

Workloads (definitions, reasons and checks in ``workloads.py``):

* ``tester-accept`` — ``CkFreenessTester(k=5, repetitions=8, engine="fast")``
  on a fresh random bipartite graph (n=5000, m=10000) per op;
* ``monitor-churn`` — one ``CkMonitor`` on a bipartite base (n=2000,
  m=4000); each op inserts a cross edge (local recheck) and deletes
  another edge (cache hit);
* ``service-rw`` — a real ``repro serve`` daemon in its own process, two
  keep-alive connections, each looping write (two mutations) then read
  (verdict) on its own session (n=400, m=800).

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing: set-up time (median of several set-ups), throughput, median and
tail op latency, and peak RSS.  Times are host-adjusted by the
benchmark's probe kernels (see ``measure.HostProbe``); raw times are
printed beside them.  With ``--trace 1`` it runs traced (layer wrappers from
``layers.py``, the engine's ``PhaseProfiler``, the daemon's
``--telemetry`` log) and reports per-layer metrics, exact counts, the
time no span covers (``op.unattributed_ms``) and the tracing overhead.
Every op is checked; any failure makes the exit code non-zero.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Everything above it is the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tester-accept", "monitor-churn", "service-rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import traceback

    import workloads

    try:
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - reported as a failed run
        out = workloads.Outcome(args.workload)
        out.attempted += 1
        out.fail(traceback.format_exc())
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in out.report:
        print(f"# {line}")
    fail_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"# {'fail_rate':<26} {fail_rate:>14.4f} ratio  "
          f"{out.failed} failed of {out.attempted} attempted")
    values_ok = all(math.isfinite(v) for v, _ in out.metrics.values())
    correct = out.failed == 0 and out.attempted > 0 and values_ok and bool(out.metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
