"""The library's hot paths load neither ``numpy.random`` nor the campaign
runner (whose process pool imports ``multiprocessing``).

Both cost resident memory in every process that only tests or monitors
graphs, such as the detection service.  The check runs in a fresh
interpreter and counts only modules that ``import numpy`` itself did not
load, so it fails wherever numpy loads ``numpy.random`` lazily.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = textwrap.dedent(
    """
    import sys

    import numpy

    before = set(sys.modules)

    import repro
    from repro import CkFreenessTester, CkMonitor, Graph, Mutation

    g = Graph(40, [(u, v) for u in range(20) for v in range(20, 40)
                   if (u + v) % 7 == 0])
    result = CkFreenessTester(5, 0.1, repetitions=4, engine="fast").run(g, seed=1)
    assert result.accepted and result.repetitions_run == 4
    mon = CkMonitor(g, 5, engine="fast")
    assert mon.apply(Mutation("add_edge", 0, 22)).action == "local_recheck"
    assert mon.apply(Mutation("remove_edge", 0, 22)).action == "cache_hit"

    stray = sorted(
        name for name in set(sys.modules) - before
        if name.split(".")[0] == "multiprocessing"
        or name == "numpy.random" or name.startswith("numpy.random.")
        or name == "repro.runner" or name.startswith("repro.runner.")
    )
    print(stray)
    raise SystemExit(1 if stray else 0)
    """
)


def test_tester_and_monitor_load_no_numpy_random_or_runner():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
