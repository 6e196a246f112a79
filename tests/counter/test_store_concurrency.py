"""Multi-writer hammer for the graph store's snapshot files.

Mirrors the :mod:`tests.api.test_result_cache` hammer one layer down:
four processes replace the snapshot of the *same* ``(program,
valuation)`` key concurrently while the parent reads.  Nothing the
store does on a contended day may publish a torn snapshot or crash:

* every load taken while the writers run succeeds on complete data;
* the key ends as exactly one file that parses and passes its body
  checksum;
* that file holds one writer's complete graph, as that writer flushed
  it (the last rename wins; graphs of different writers never mix);
* a reader racing a thread that keeps replacing one snapshot reads
  one whole version of it every time.
"""

import hashlib
import multiprocessing
import threading
import time
from pathlib import Path

import pytest

from repro.counter.program import ProtocolProgram
from repro.counter.store import (
    GraphStore,
    LocalDirBackend,
    active_graph_store,
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
    shape that makes "one writer's graph" a meaningful assertion.
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


def _graph_keys(system):
    """The succ-cache key set as picklable flat data tuples."""
    return frozenset(config.data for config in system._succ_cache)


def _hammer(args):
    """Worker: grow one system in rounds, replacing the snapshot each round."""
    spec, worker, rounds = args
    store = GraphStore(spec, version=VERSION)
    system = _fresh_system()
    written = []
    for round_no in range(1, rounds + 1):
        _explore(system, limit=60 * round_no, stride=worker + 1)
        if store.flush(system):
            written.append(_graph_keys(system))
    return {"written": written, "errors": store.errors}


class TestMultiWriterHammer:
    WORKERS = 4
    ROUNDS = 4

    def test_concurrent_snapshot_writers_never_tear(self, backend_spec):
        with multiprocessing.Pool(self.WORKERS) as pool:
            async_result = pool.map_async(
                _hammer,
                [(backend_spec, worker, self.ROUNDS)
                 for worker in range(self.WORKERS)],
            )
            # Read concurrently with the writers: a torn snapshot would
            # surface here as a load error.
            deadline = time.monotonic() + 120
            while not async_result.ready() and time.monotonic() < deadline:
                reader = GraphStore(backend_spec, version=VERSION)
                reader.load_into(_fresh_system())
                assert reader.errors == 0
            reports = async_result.get(timeout=60)

        assert all(report["errors"] == 0 for report in reports)
        assert all(report["written"] for report in reports)

        store = GraphStore(backend_spec, version=VERSION)
        key = store.key_for(_fresh_system())
        (path,) = sorted(Path(backend_spec).iterdir())
        assert path == store.backend.canonical_path(key)
        ((_path, raw),) = store.backend.read_segments(key)
        header, body = GraphStore.parse_entry(raw)
        assert hashlib.sha256(body).hexdigest() == header["body_sha256"]

        # The file is one complete graph that some writer flushed.
        loaded = _fresh_system()
        assert store.load_into(loaded)
        flushed = {keys for report in reports for keys in report["written"]}
        assert _graph_keys(loaded) in flushed


class TestAtomicReplace:
    def test_readers_see_one_whole_snapshot_while_it_is_replaced(
        self, backend_spec
    ):
        backend = LocalDirBackend(backend_spec)
        key = "k-p-v-x"
        blobs = (b"a" * 65536, b"b" * 65536)
        backend.write_canonical(key, blobs[0])
        stop = threading.Event()

        def rewrite():
            flips = 0
            while not stop.is_set():
                backend.write_canonical(key, blobs[flips % 2])
                flips += 1

        writer = threading.Thread(target=rewrite)
        writer.start()
        try:
            for _ in range(500):
                ((_path, raw),) = backend.read_segments(key)
                assert raw in blobs
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert sorted(Path(backend_spec).iterdir()) == [
            backend.canonical_path(key)]
