"""Incremental-vs-scratch parity: the dynamic subsystem's equivalence gate.

Randomized (seed-fixed) mutation sequences over **every** registered
generator family, asserting at every step that the incremental
``CkMonitor`` verdict equals full re-detection — the exact oracle —
for both engines, that both engines' monitors agree step for step, and
that cached witnesses are genuine cycles.  The cross-check against
from-scratch seeded ``CkFreenessTester`` runs goes through
:func:`repro.dynamic.equivalence.monitor_equivalence_report`.
"""

import pytest
from helpers import small_instance

from repro.dynamic import CkMonitor, build_stream, monitor_equivalence_report
from repro.graphs.cycles import has_k_cycle
from repro.runner import registry

K = 5
STEPS = 10


def _check_family_both_engines(family, **monitor_kwargs):
    base = small_instance(family, seed=1, k=K)
    if base.n < 2:
        pytest.skip("churn needs at least two vertices")
    stream = build_stream(f"uniform-churn:steps={STEPS},p=0.5", base,
                          seed=11, k=K)
    monitors = {
        engine: CkMonitor(stream.base, K, engine=engine, seed=7,
                          **monitor_kwargs)
        for engine in ("reference", "fast")
    }
    # Step -1: initial verdicts agree with the oracle, and both engines
    # hold the same witness.
    expected = not has_k_cycle(base, K)
    for engine, monitor in monitors.items():
        assert monitor.accepted == expected, (family, engine, "init")
    assert monitors["reference"].witness == monitors["fast"].witness, (
        family, "init"
    )
    for step, mutation in enumerate(stream.mutations, start=1):
        records = {
            engine: monitor.apply(mutation)
            for engine, monitor in monitors.items()
        }
        ref = monitors["reference"]
        # Incremental == full re-detection (the exact oracle), per step.
        expected = not has_k_cycle(ref.graph, K)
        for engine, monitor in monitors.items():
            assert monitor.accepted == expected, (
                family, engine, step, mutation.to_line()
            )
            if not monitor.accepted:
                w = monitor.witness
                assert w is not None and len(set(w)) == len(w) == K
                assert all(
                    monitor.graph.has_edge(w[i], w[(i + 1) % K])
                    for i in range(K)
                ), (family, engine, step, w)
        # Both engines took the same decision path and hold the same
        # witness, not just the same verdict.
        assert records["reference"].action == records["fast"].action, (
            family, step
        )
        assert ref.witness == monitors["fast"].witness, (family, step)


@pytest.mark.parametrize("family", registry.names())
def test_every_family_monitor_matches_scratch_both_engines(family):
    _check_family_both_engines(family)


@pytest.mark.parametrize("family", registry.names())
def test_every_family_scan_witnesses_match_both_engines(family):
    """One tester repetition per full re-test, so the exact scan (the
    edge-axis kernel on ``fast``, the per-edge ball scan on
    ``reference``) supplies the witness whenever that repetition
    misses the cycle."""
    _check_family_both_engines(family, tester_repetitions=1)


def test_equivalence_gate_default_grid_both_engines():
    """The mandatory gate: monitor == from-scratch tester at every step.

    Covers the four scenario shapes (churn, burst, adversarial
    near-cycle, growth) for both engines; ``tester_repetitions=40``
    keeps the from-scratch runs fast while leaving the miss probability
    of an existing cycle far below reproducibility noise — and the whole
    sweep is seed-fixed, so a pass here is a pass everywhere.
    """
    report = monitor_equivalence_report(
        ks=(4, 5), seeds=(0,), engines=("reference", "fast"),
        tester_repetitions=40,
    )
    assert report.steps_checked > 300
    assert report.ok, report.mismatches[:10]


@pytest.mark.slow
def test_equivalence_gate_paper_repetitions():
    """The same gate at the paper's repetition count and more seeds."""
    report = monitor_equivalence_report(
        ks=(4, 5, 6), seeds=(0, 1), engines=("reference", "fast"),
    )
    assert report.ok, report.mismatches[:10]


def test_gate_catches_a_lying_monitor(monkeypatch):
    """The gate actually fires: sabotage the monitor, expect mismatches."""
    from repro.dynamic import monitor as monitor_mod

    real_apply = monitor_mod.CkMonitor.apply

    def lying_apply(self, mutation):
        record = real_apply(self, mutation)
        self._accepted = True  # claim C_k-freeness unconditionally
        self._witness = None
        return record

    monkeypatch.setattr(monitor_mod.CkMonitor, "apply", lying_apply)
    report = monitor_equivalence_report(
        grid=[("near-cycle:steps=12", "path", {"n": 10})],
        ks=(5,), seeds=(0,), engines=("reference",),
        tester_repetitions=20,
    )
    assert not report.ok
    assert {m.check for m in report.mismatches} >= {"oracle"}
