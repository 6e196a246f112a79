"""Byte freeze of the directory graph store.

A graph store written by one release must load in the next, so the
file names and header lines each step writes are pinned here as
literals: one full flush of a small fixed system, one delta flush of
its growth, then compaction into the canonical snapshot.  Each header
carries the body's sha256, so pinning the header pins the pickled body
too.  The code version is fixed (``version="v1"``) and the program and
valuation digests are stable across processes, so nothing here
depends on the machine or the tree.

Delta file names carry the writer's pid, a process-wide sequence
number and a random token; only their shape is pinned.
"""

import re

from repro.counter.program import ProtocolProgram
from repro.counter.store import GraphStore, LocalDirBackend, compact_backend
from repro.counter.system import CounterSystem
from repro.protocols import naive_voting

VALUATION = {"n": 4, "t": 1, "f": 1}

KEY = "naive_voting-d49afd4adf411b84-c236599e25bd-v1"

DELTA_NAME = re.compile(re.escape(KEY) + r"~\d+_\d{6}_[0-9a-f]{8}\.graph")

CANONICAL_NAME = KEY + ".graph"

FULL_HEADER = (
    b'repro-graph 1 {"block": 7, "body_sha256": '
    b'"f4f8ba107914c8d3901ceb52377188db6be8c19121a34a4df6ab1117c15bf64d", '
    b'"code_version": "v1", "configs": 7, "model": "naive-voting", '
    b'"options": 4, "program": "d49afd4adf411b84", "segment": [0, 0], '
    b'"succ": 4, "valuation": [["f", 1], ["n", 4], ["t", 1]]}'
)

DELTA_HEADER = (
    b'repro-graph 1 {"block": 7, "body_sha256": '
    b'"753318c594f7ab142bb85151ea10dda87f31b674aef0a2c501ccec42168c84f8", '
    b'"code_version": "v1", "configs": 25, "model": "naive-voting", '
    b'"options": 20, "program": "d49afd4adf411b84", "segment": [4, 4], '
    b'"succ": 20, "valuation": [["f", 1], ["n", 4], ["t", 1]]}'
)

COMPACT_HEADER = (
    b'repro-graph 1 {"block": 7, "body_sha256": '
    b'"9f1ece1a0e4acedab06b4ebc3eea3c9782a0b1dafc2e5d8cbcd5e099ee5a9fb8", '
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


def _segments(root):
    """``(file name, header line)`` of every segment, in name order."""
    return [
        (path.name, path.read_bytes().partition(b"\n")[0])
        for path in sorted(root.glob("*.graph"))
    ]


def test_flush_delta_and_compact_write_the_frozen_bytes(tmp_path):
    store = GraphStore(tmp_path, version="v1")
    system = _fresh_system()
    _explore(system, limit=10)
    assert store.flush(system)
    ((full_name, full_header),) = _segments(tmp_path)
    assert DELTA_NAME.fullmatch(full_name)
    assert full_header == FULL_HEADER

    _explore(system, limit=30)
    assert store.flush(system)
    segments = _segments(tmp_path)
    assert segments[0] == (full_name, FULL_HEADER)
    delta_name, delta_header = segments[1]
    assert len(segments) == 2
    assert DELTA_NAME.fullmatch(delta_name)
    assert delta_header == DELTA_HEADER

    stats = compact_backend(LocalDirBackend(tmp_path))
    assert (stats["compacted"], stats["corrupt_dropped"], stats["errors"]) \
        == (1, 0, 0)
    assert _segments(tmp_path) == [(CANONICAL_NAME, COMPACT_HEADER)]

    # A fresh store loads the compacted key as one warm hit.
    cold = _fresh_system()
    reader = GraphStore(tmp_path, version="v1")
    assert reader.key_for(cold) == KEY
    assert reader.load_into(cold)
    assert (reader.load_hits, reader.load_misses, reader.errors) == (1, 0, 0)
    assert dict(cold._succ_cache) == dict(system._succ_cache)
    assert dict(cold._options_cache) == dict(system._options_cache)
