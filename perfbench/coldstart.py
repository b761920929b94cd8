"""One cold start of the tester, timed from ``import repro`` to a warm-up op.

Usage: ``python3 perfbench/coldstart.py SEED``

Prints one JSON object: ``setup_s`` plus the warm-up verdict.  The
warm-up instance is generated (pure Python, no numpy) before the clock
starts; the clock then covers importing the library, its lazy imports,
numpy's first use, and one full tester call on that extra instance.
``run.py`` runs this in fresh interpreters to take the median set-up
time of ``tester-accept``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    import workloads

    seed = int(sys.argv[1])
    instance = workloads.tester_instance(seed, workloads.WARMUP_INDEX)
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the timed import)

    result = workloads.tester_op(instance)
    elapsed = time.perf_counter() - t0
    print(json.dumps({
        "setup_s": elapsed,
        "accepted": result.accepted,
        "repetitions": result.repetitions_run,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
