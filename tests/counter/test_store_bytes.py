"""Byte freeze of the directory graph store.

A graph store written by one release must load in the next, so the
file name and header lines each step writes are pinned here as
literals: one flush of a small fixed system, then the flush of its
grown graph, which replaces the same file.  Each header carries the
body's sha256, so pinning the header pins the pickled body too.  The
code version is fixed (``version="v1"``) and the program and valuation
digests are stable across processes, so nothing here depends on the
machine or the tree.
"""

from repro.counter.program import ProtocolProgram
from repro.counter.store import GraphStore
from repro.counter.system import CounterSystem
from repro.protocols import naive_voting

VALUATION = {"n": 4, "t": 1, "f": 1}

KEY = "naive_voting-d49afd4adf411b84-c236599e25bd-v1"

CANONICAL_NAME = KEY + ".graph"

FULL_HEADER = (
    b'repro-graph 1 {"block": 7, "body_sha256": '
    b'"f4f8ba107914c8d3901ceb52377188db6be8c19121a34a4df6ab1117c15bf64d", '
    b'"code_version": "v1", "configs": 7, "model": "naive-voting", '
    b'"options": 4, "program": "d49afd4adf411b84", "segment": [0, 0], '
    b'"succ": 4, "valuation": [["f", 1], ["n", 4], ["t", 1]]}'
)

GROWN_HEADER = (
    b'repro-graph 1 {"block": 7, "body_sha256": '
    b'"fa2790f07ed6f072761b1d3c2169076d93b7cadca55a426084cb8f13e40fe0b3", '
    b'"code_version": "v1", "configs": 29, "model": "naive-voting", '
    b'"options": 24, "program": "d49afd4adf411b84", "segment": [0, 0], '
    b'"succ": 24, "valuation": [["f", 1], ["n", 4], ["t", 1]]}'
)


def _fresh_system():
    model = naive_voting.model()
    return CounterSystem(model, VALUATION, program=ProtocolProgram(model))


def _explore(system, limit):
    """Expand a deterministic depth-first prefix of ``limit`` configs."""
    frontier = list(system.initial_configs())
    seen = set(frontier)
    while frontier and len(seen) < limit:
        config = frontier.pop()
        system.rule_options(config)
        for group in system.successor_groups(config):
            for _action, successor in group:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)


def _snapshots(root):
    """``(file name, header line)`` of every file, in name order."""
    return [
        (path.name, path.read_bytes().partition(b"\n")[0])
        for path in sorted(root.iterdir())
    ]


def test_first_and_grown_flush_write_the_frozen_bytes(tmp_path):
    store = GraphStore(tmp_path, version="v1")
    system = _fresh_system()
    _explore(system, limit=10)
    assert store.flush(system)
    assert _snapshots(tmp_path) == [(CANONICAL_NAME, FULL_HEADER)]

    _explore(system, limit=30)
    assert store.flush(system)
    assert _snapshots(tmp_path) == [(CANONICAL_NAME, GROWN_HEADER)]

    # A fresh store loads the grown snapshot as one warm hit.
    cold = _fresh_system()
    reader = GraphStore(tmp_path, version="v1")
    assert reader.key_for(cold) == KEY
    assert reader.load_into(cold)
    assert (reader.load_hits, reader.load_misses, reader.errors) == (1, 0, 0)
    assert dict(cold._succ_cache) == dict(system._succ_cache)
    assert dict(cold._options_cache) == dict(system._options_cache)


def test_a_reloaded_graph_reflushes_the_same_bytes(tmp_path):
    # Loading rebuilds the caches in stored order, so a store that never
    # saw the key serializes the loaded graph to the very bytes it read.
    system = _fresh_system()
    _explore(system, limit=10)
    _explore(system, limit=30)
    assert GraphStore(tmp_path, version="v1").flush(system)
    stored = (tmp_path / CANONICAL_NAME).read_bytes()
    assert stored.partition(b"\n")[0] == GROWN_HEADER

    loaded = _fresh_system()
    assert GraphStore(tmp_path, version="v1").load_into(loaded)
    copy = tmp_path / "copy"
    assert GraphStore(copy, version="v1").flush(loaded)
    assert _snapshots(copy) == [(CANONICAL_NAME, GROWN_HEADER)]
    assert (copy / CANONICAL_NAME).read_bytes() == stored
