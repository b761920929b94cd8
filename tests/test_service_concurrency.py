"""Concurrency tests: single-writer ordering, isolation, LRU eviction.

These hammer a real server from many OS threads (each thread owns a
blocking client, the server multiplexes them onto its event loop), so
they exercise the actual contention path: the per-session asyncio lock,
the LRU session table, and the snapshot consistency guarantee.
"""

import threading

import pytest

from repro.dynamic import CkMonitor, DynamicGraph
from repro.graphs import io as graph_io
from repro.graphs.graph import Graph
from repro.service import ServerHarness, ServiceClientError


def run_threads(workers):
    """Run the worker callables concurrently; re-raise the first error."""
    errors = []

    def wrap(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrap, args=(fn,)) for fn in workers
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]


class TestSingleWriterOrdering:
    def test_hammered_session_is_serializable(self):
        """Many clients, one session: the accepted mutations form one
        serial order — versions are handed out exactly once, and the
        final state equals a serial replay of the logged order."""
        n_threads, per_thread = 6, 8
        with ServerHarness(max_sessions=4) as harness:
            client0 = harness.client()
            # Enough vertices that every thread toggles its own edge.
            client0.create_session(
                name="arena", k=3, n=2 * n_threads,
                tester_repetitions=1,
            )
            seen_versions = []
            lock = threading.Lock()

            def worker(index):
                client = harness.client()
                u, v = 2 * index, 2 * index + 1
                for step in range(per_thread):
                    op = "+" if step % 2 == 0 else "-"
                    result = client.mutate("arena", f"{op} {u} {v}\n")
                    with lock:
                        seen_versions.append(result["version"])

            run_threads([
                (lambda i=i: worker(i)) for i in range(n_threads)
            ])

            total = n_threads * per_thread
            # Every mutation observed a distinct post-state version, and
            # together they cover 1..total: a serializable interleaving.
            assert len(seen_versions) == total
            assert sorted(seen_versions) == list(range(1, total + 1))

            snap = client0.snapshot("arena")
            assert snap["version"] == total
            # Serial replay of the accepted order reproduces the state.
            replay = DynamicGraph(Graph(2 * n_threads))
            for mutation in graph_io.loads_stream(snap["log"]):
                replay.apply(mutation)
            assert replay.content_hash() == snap["content_hash"]

    def test_snapshots_race_mutations(self):
        """Concurrent snapshots while a writer streams mutations: every
        snapshot is internally consistent (hash matches its graph)."""
        with ServerHarness(max_sessions=2) as harness:
            writer_client = harness.client()
            writer_client.create_session(
                name="race", k=3, n=4, tester_repetitions=1
            )

            def writer():
                for _ in range(40):
                    writer_client.mutate("race", "+v\n")

            def snapshotter():
                client = harness.client()
                for _ in range(15):
                    snap = client.snapshot("race")
                    g = graph_io.loads(snap["graph"])
                    assert g.content_hash() == snap["content_hash"]
                    assert g.n == 4 + snap["version"]

            run_threads([writer, snapshotter, snapshotter])


class TestSessionIsolation:
    def test_parallel_sessions_stay_independent(self):
        n_sessions, steps = 5, 12
        with ServerHarness(max_sessions=n_sessions) as harness:

            def worker(index):
                client = harness.client()
                name = f"iso-{index}"
                client.create_session(
                    name=name, k=3, n=6, seed=index,
                    tester_repetitions=1,
                )
                for step in range(steps):
                    # Add an edge on even steps, remove it on the next
                    # odd step, so every mutation is state-valid.
                    u = (index + step // 2) % 5
                    op = "+" if step % 2 == 0 else "-"
                    client.mutate(name, f"{op} {u} 5\n")
                snap = client.snapshot(name)
                # Offline replay of just this session's log agrees.
                monitor = CkMonitor(
                    Graph(6), 3, seed=index, tester_repetitions=1
                )
                monitor.run_stream(graph_io.loads_stream(snap["log"]))
                assert snap["version"] == steps
                assert snap["content_hash"] == monitor.dynamic.content_hash()
                assert snap["accepted"] == monitor.accepted

            run_threads([
                (lambda i=i: worker(i)) for i in range(n_sessions)
            ])


class TestLruEviction:
    def test_count_stays_bounded_and_lru_goes_first(self):
        with ServerHarness(max_sessions=4) as harness:
            client = harness.client()
            for i in range(4):
                client.create_session(name=f"e{i}", k=3, n=4)
            assert client.list_sessions()["sessions"] == [
                "e0", "e1", "e2", "e3"
            ]
            # Touch e0 so e1 becomes least recently used.
            client.verdict("e0")
            client.create_session(name="e4", k=3, n=4)
            listing = client.list_sessions()
            assert listing["open"] == 4
            assert "e1" not in listing["sessions"]
            assert "e0" in listing["sessions"]
            # The evicted name is now unknown.
            with pytest.raises(ServiceClientError) as exc_info:
                client.verdict("e1")
            assert exc_info.value.status == 404

    @pytest.mark.parametrize(
        "bad", [{"k": 2}, {"epsilon": 2.0}, {"tester_repetitions": 0}]
    )
    def test_refused_create_evicts_nothing(self, bad):
        """A create the monitor refuses answers 400 and leaves the full
        table as it was; the next valid create still evicts the LRU."""
        base = graph_io.dumps(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        with ServerHarness(max_sessions=2) as harness:
            client = harness.client()
            for name in ("a", "b"):
                client.create_session(name=name, k=3, n=4)
            spec = {"k": 3, "base": base, **bad}
            with pytest.raises(ServiceClientError) as exc_info:
                client.create_session(name="c", **spec)
            assert exc_info.value.status == 400
            assert client.list_sessions()["sessions"] == ["a", "b"]
            assert harness.server.sessions.evictions == 0
            client.create_session(name="c", k=3, base=base)
            assert client.list_sessions()["sessions"] == ["b", "c"]
            assert harness.server.sessions.evictions == 1

    def test_refused_create_on_an_edgeless_base_leaves_no_session(self):
        """The monitor checks the tester's parameters when it is built,
        even on a base where no tester runs yet."""
        with ServerHarness(max_sessions=2) as harness:
            client = harness.client()
            with pytest.raises(ServiceClientError) as exc_info:
                client.create_session(name="e", k=5, n=5, epsilon=2.0)
            assert exc_info.value.status == 400
            assert client.list_sessions()["sessions"] == []

    def test_bound_holds_under_concurrent_creates(self):
        max_sessions = 4
        with ServerHarness(max_sessions=max_sessions) as harness:

            def creator(index):
                client = harness.client()
                for j in range(6):
                    client.create_session(
                        name=f"c{index}-{j}", k=3, n=4
                    )
                    assert (
                        client.list_sessions()["open"] <= max_sessions
                    )

            run_threads([
                (lambda i=i: creator(i)) for i in range(4)
            ])
            assert harness.client().list_sessions()["open"] <= max_sessions
