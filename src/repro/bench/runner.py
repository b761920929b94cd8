"""Benchmark execution: suite resolution, timing policy, artifact assembly.

The runner reuses the campaign runner's two load-bearing pieces:

* **seeding** — each (benchmark, case) derives its RNG seed with
  :func:`repro.runner.runtable.derive_seed` from the master seed, the
  benchmark name and the case id, so a benchmark's protocol-determined
  metrics (round counts, audited bits) are reproducible anywhere and the
  comparison layer may demand exact equality on them;
* **parallelism** — work units fan out through
  :func:`repro.runner.executor.ordered_parallel_map`, so results arrive
  in a deterministic order regardless of worker count and artifacts are
  order-stable.

Timing policy: each case runs ``SUITE_REPEATS[suite]`` times back to
back; the per-repeat wall times are all recorded, and downstream
comparison judges ``wall_min`` (the least-noisy statistic on a shared
machine).  A benchmark body that raises becomes an ``error`` record —
the run completes, reports the failure, and exits nonzero.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..runner.executor import ordered_parallel_map
from ..runner.runtable import derive_seed
from . import registry
from .artifacts import write_artifact, SCHEMA_VERSION
from .environment import environment_fingerprint

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "SUITE_REPEATS",
    "BenchRunReport",
    "execute_benchmark",
    "run_suite",
]

#: Where ``bench run`` writes artifacts by default: the committed
#: baseline directory of a checkout, or ``benchmarks/results`` relative
#: to the invocation directory otherwise.
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"

#: Back-to-back repeats per case, by suite.  ``smoke`` favours total
#: wall time (CI runs it on every push); larger suites buy stability.
SUITE_REPEATS = {"smoke": 2, "default": 3, "full": 5}


def execute_benchmark(
    unit: Tuple[str, Dict[str, Any], str, int, int],
) -> Dict[str, Any]:
    """Execute one (benchmark, case) work unit; returns its result record.

    Module-level and driven by plain picklable data so it can cross a
    process-pool boundary.  Failures inside the benchmark body (including
    its correctness assertions) are captured as ``status: "error"``
    records rather than raised, so one broken benchmark cannot take down
    a whole suite run.
    """
    name, case, suite, repeats, seed = unit
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    spec = registry.get(name)
    record: Dict[str, Any] = {
        "benchmark": name,
        "area": spec.area,
        "case": dict(case),
        "case_id": registry.case_id(case),
        "suite": suite,
        "seed": seed,
        "repeats": repeats,
        "metrics": {},
    }
    walls: List[float] = []
    try:
        # Repeats run with the collector paused: allocation-heavy
        # kernels otherwise absorb whole-heap collection pauses whose
        # size tracks the import graph and unit order, not the code
        # under test.  Collection runs between repeats, outside the
        # timed windows; bodies that pause gc themselves see it already
        # disabled and leave it that way.
        gc_was_enabled = gc.isenabled()
        try:
            for _ in range(repeats):
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                metrics = spec.func(dict(case), seed)
                walls.append(time.perf_counter() - t0)
                if gc_was_enabled:
                    gc.enable()
        finally:
            if gc_was_enabled:
                gc.enable()
        record["metrics"] = dict(metrics or {})
        record["wall_seconds"] = [round(w, 6) for w in walls]
        record["wall_min"] = round(min(walls), 6)
        record["wall_mean"] = round(sum(walls) / len(walls), 6)
        record["status"] = "ok"
    except Exception as exc:  # noqa: BLE001 - the contract: any body
        # failure (assertion, numpy error, bad case key, ...) becomes an
        # error record; only KeyboardInterrupt/SystemExit abort the run.
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


@dataclass
class BenchRunReport:
    """What one ``run_suite`` invocation measured and wrote."""

    suite: str
    seed: int
    workers: int
    wall_seconds: float
    results: List[Dict[str, Any]] = field(default_factory=list)
    artifact_paths: List[Path] = field(default_factory=list)

    @property
    def errors(self) -> List[Dict[str, Any]]:
        """The error records, if any benchmark body failed."""
        return [r for r in self.results if r["status"] != "ok"]

    @property
    def ok(self) -> bool:
        """Whether every benchmark completed (and its checks passed)."""
        return not self.errors

    @property
    def areas(self) -> List[str]:
        """Areas covered by this run, sorted."""
        return sorted({r["area"] for r in self.results})

    def render(self) -> str:
        """One-paragraph human summary of the run."""
        lines = [
            f"bench run: suite {self.suite!r}, {len(self.results)} case(s) "
            f"across {len(self.areas)} area(s), {self.workers} worker(s), "
            f"{self.wall_seconds:.1f}s total, "
            f"{len(self.errors)} error(s)"
        ]
        for path in self.artifact_paths:
            lines.append(f"  wrote {path}")
        for record in self.errors:
            lines.append(
                f"  ERROR {record['benchmark']} [{record['case_id']}]: "
                f"{record['error']}"
            )
        return "\n".join(lines)


def run_suite(
    suite: str = "smoke",
    *,
    areas: Optional[Sequence[str]] = None,
    out_dir: Optional[Union[str, Path]] = None,
    seed: int = 0,
    workers: int = 1,
    repeats: Optional[int] = None,
) -> BenchRunReport:
    """Run every registered benchmark of ``suite`` and write area artifacts.

    ``areas`` restricts the run; ``repeats`` overrides the suite's repeat
    policy; ``out_dir=None`` writes to :data:`DEFAULT_RESULTS_DIR` and
    ``out_dir=""``/``"-"`` skips writing entirely (measure-only).
    """
    specs = registry.specs_for(suite, list(areas) if areas is not None else None)
    effective_repeats = repeats if repeats is not None else SUITE_REPEATS[suite]
    if effective_repeats < 1:
        raise ConfigurationError(
            f"repeats must be >= 1, got {effective_repeats}"
        )
    units = [
        (
            spec.name,
            case,
            suite,
            effective_repeats,
            derive_seed(seed, spec.name, registry.case_id(case)),
        )
        for spec in specs
        for case in spec.cases_for(suite)
    ]
    t0 = time.perf_counter()
    results = list(
        ordered_parallel_map(execute_benchmark, units, workers=workers)
    )
    wall = time.perf_counter() - t0
    report = BenchRunReport(
        suite=suite, seed=seed, workers=workers, wall_seconds=wall,
        results=results,
    )
    if out_dir in ("", "-"):
        return report
    directory = Path(out_dir) if out_dir is not None else DEFAULT_RESULTS_DIR
    environment = environment_fingerprint()
    by_area: Dict[str, List[Dict[str, Any]]] = {}
    for record in results:
        by_area.setdefault(record["area"], []).append(record)
    for area in sorted(by_area):
        artifact = {
            "schema": SCHEMA_VERSION,
            "area": area,
            "suite": suite,
            "master_seed": seed,
            "environment": environment,
            "results": by_area[area],
        }
        report.artifact_paths.append(write_artifact(directory, artifact))
    return report
