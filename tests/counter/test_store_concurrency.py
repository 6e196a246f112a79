"""Multi-writer hammer for the graph store's delta segments.

Mirrors the :mod:`tests.api.test_result_cache` hammer one layer down:
four processes flush delta segments for the *same* ``(program,
valuation)`` key concurrently while the parent reads.  Nothing the store does on a contended day may
publish a torn segment, lose a writer's entries, or crash:

* every segment on disk parses and passes its body checksum;
* merge-on-load equals the union of what every writer flushed;
* ``cache compact`` racing a live writer degrades gracefully (the
  writer's appends survive, the store stays loadable).
"""

import hashlib
import multiprocessing
import time

import pytest

from repro.counter.program import ProtocolProgram
from repro.counter.store import (
    GraphStore,
    LocalDirBackend,
    active_graph_store,
    compact_backend,
    deactivate_graph_store,
)
from repro.counter.system import CounterSystem
from repro.protocols import ks16

VALUATION = {"n": 4, "t": 1, "f": 1}
VERSION = "v-hammer"


@pytest.fixture(autouse=True)
def _no_leaked_store():
    previous = active_graph_store()
    deactivate_graph_store()
    yield
    deactivate_graph_store(previous)


@pytest.fixture
def backend_spec(tmp_path):
    return str(tmp_path / "graphs")


def _fresh_system():
    model = ks16.model()
    return CounterSystem(model, VALUATION, program=ProtocolProgram(model))


def _explore(system, limit, stride=1):
    """Expand a deterministic BFS prefix; ``stride`` varies the visit set.

    Different strides pop different frontier positions, so concurrent
    writers grow *different* (overlapping) subgraphs of one key — the
    shape that makes the union assertion meaningful.
    """
    frontier = list(system.initial_configs())
    seen = set(frontier)
    while frontier and len(seen) < limit:
        index = (len(seen) * stride) % len(frontier)
        config = frontier.pop(index)
        system.rule_options(config)
        for group in system.successor_groups(config):
            for _action, successor in group:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
    return seen


def _flushed_keys(system):
    """The succ-cache key set as picklable flat data tuples."""
    return {config.data for config in system._succ_cache}


def _hammer(args):
    """Worker: grow one system in rounds, flushing a delta per round."""
    spec, worker, rounds = args
    store = GraphStore(spec, version=VERSION)
    system = _fresh_system()
    for round_no in range(1, rounds + 1):
        _explore(system, limit=60 * round_no, stride=worker + 1)
        store.flush(system)
    return {
        "keys": _flushed_keys(system),
        "errors": store.errors,
        "saves": store.saves,
    }


def _churn(args):
    """Worker for the compaction race: flush/grow in a timed loop."""
    spec, seconds = args
    store = GraphStore(spec, version=VERSION)
    system = _fresh_system()
    deadline = time.monotonic() + seconds
    limit = 30
    while time.monotonic() < deadline:
        _explore(system, limit=limit)
        store.flush(system)
        limit += 30
    return {"keys": _flushed_keys(system), "errors": store.errors}


class TestMultiWriterHammer:
    WORKERS = 4
    ROUNDS = 4

    def test_concurrent_delta_flushes_never_tear_and_merge_to_union(
        self, backend_spec
    ):
        with multiprocessing.Pool(self.WORKERS) as pool:
            async_result = pool.map_async(
                _hammer,
                [(backend_spec, worker, self.ROUNDS)
                 for worker in range(self.WORKERS)],
            )
            # Read concurrently with the writers: every load taken
            # while segments exist must succeed on complete data (a
            # torn segment would surface as a load error here).
            reader_hits = 0
            while not async_result.ready():
                reader = GraphStore(backend_spec, version=VERSION)
                system = _fresh_system()
                if reader.load_into(system):
                    reader_hits += 1
                    assert reader.errors == 0
            reports = async_result.get()

        assert all(report["errors"] == 0 for report in reports)
        assert sum(report["saves"] for report in reports) >= self.WORKERS

        # No torn/corrupt segments: every blob parses and checksums.
        store = GraphStore(backend_spec, version=VERSION)
        key = store.key_for(_fresh_system())
        segments = store.backend.read_segments(key)
        assert segments
        for _token, raw in segments:
            header, body = GraphStore.parse_entry(raw)
            assert hashlib.sha256(body).hexdigest() == header["body_sha256"]

        # Merge-on-load equals the union of every writer's entries.
        union = set()
        for report in reports:
            union |= report["keys"]
        merged = _fresh_system()
        assert store.load_into(merged)
        assert _flushed_keys(merged) == union
        assert reader_hits >= 0  # reader ran without crashing

    def test_compact_under_live_writer_degrades_gracefully(
        self, backend_spec
    ):
        seconds = 1.5
        with multiprocessing.Pool(1) as pool:
            async_result = pool.map_async(_churn, [(backend_spec, seconds)])
            backend = LocalDirBackend(backend_spec)
            compactions = 0
            while not async_result.ready():
                stats = compact_backend(backend)
                compactions += 1
                # Graceful degradation: racing a writer may skip or
                # retry keys, but never corrupts or crashes.
                assert stats["corrupt_dropped"] == 0
                time.sleep(0.05)
            (report,) = async_result.get()

        assert compactions >= 1
        assert report["errors"] == 0
        # One final compaction with the writer gone fully squashes.
        final = compact_backend(backend)
        assert final["errors"] == 0
        store = GraphStore(backend_spec, version=VERSION)
        key = store.key_for(_fresh_system())
        assert store.backend.stats()[key][0] == 1
        # Everything the writer flushed survived the racing compactions.
        merged = _fresh_system()
        assert store.load_into(merged)
        assert report["keys"] <= _flushed_keys(merged)
