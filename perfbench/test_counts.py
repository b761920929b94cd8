"""Counter check: the traced run's exact counts repeat for one seed.

Runs every workload traced twice with one seed and asserts that every
exact count is identical, then once with a second seed and asserts the
action mix each workload is defined by.  Counts are taken over a fixed
window of ops at the start of the traced phase, so short runs suffice.

Run directly (``python3 perfbench/test_counts.py``) or under pytest
(``python -m pytest perfbench/test_counts.py``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED, OTHER_SEED = 7, 11


def traced(workload: str, seed: int) -> dict:
    """Per-layer metrics of one short traced run (asserts it passed)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=str(HERE.parent), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0, doc
    return {name: m["value"] for name, m in doc["metrics"].items()}


def exact(metrics: dict) -> dict:
    return {name: metrics[name] for name in workloads.EXACT_COUNTS}


def test_tester_accept_counts() -> None:
    a, b = traced("tester-accept", SEED), traced("tester-accept", SEED)
    assert exact(a) == exact(b), (exact(a), exact(b))
    other = traced("tester-accept", OTHER_SEED)
    ops = workloads.TESTER_COUNT_OPS
    assert other["tester.repetitions"] == workloads.REPETITIONS * ops
    assert other["tester.reject_rate"] == 0
    assert other["congest.rounds"] == workloads.REPETITIONS * ops * (1 + workloads.K // 2)


def _check_churn_mix(metrics: dict, steps: int) -> None:
    assert metrics["monitor.local_rechecks"] == steps, metrics
    assert metrics["monitor.cache_hits"] == steps, metrics
    assert metrics["monitor.full_retests"] == 0, metrics
    assert metrics["monitor.cache_hit_rate"] == 0.5, metrics
    assert metrics["algorithm1.detect_calls"] == steps, metrics


def test_monitor_churn_counts() -> None:
    a, b = traced("monitor-churn", SEED), traced("monitor-churn", SEED)
    assert exact(a) == exact(b), (exact(a), exact(b))
    _check_churn_mix(traced("monitor-churn", OTHER_SEED), workloads.MONITOR_COUNT_OPS)


def test_service_rw_counts() -> None:
    a, b = traced("service-rw", SEED), traced("service-rw", SEED)
    assert exact(a) == exact(b), (exact(a), exact(b))
    other = traced("service-rw", OTHER_SEED)
    loops = workloads.SERVICE_COUNT_LOOPS * workloads.CONNECTIONS
    _check_churn_mix(other, loops)
    assert other["server.requests"] == 2 * loops, other
    assert other["client.retries"] == 0, other
    assert other["server.ok_rate"] == 1.0, other


if __name__ == "__main__":
    for check in (test_tester_accept_counts, test_monitor_churn_counts,
                  test_service_rw_counts):
        check()
        print(f"ok {check.__name__}")
