"""The persistent state-graph store and the shared intern tables.

Two invariants rule everything here:

* **results-neutral** — warm-from-disk systems reproduce cold verdicts
  and ``states_explored`` bit-identically (a stored graph is exactly
  what cold expansion produces, entry order included);
* **best-effort** — any bad entry (truncated, hand-edited, stale code
  version, wrong valuation) or disk failure degrades to a cold miss,
  never a crash.
"""

import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.explicit import ExplicitChecker
from repro.counter.program import ProtocolProgram, shared_program
from repro.counter.store import (
    STALE_TEMP_SECONDS,
    GraphStore,
    LocalDirBackend,
    activate_graph_store,
    active_graph_store,
    check_graph_store_dir,
    deactivate_graph_store,
    encode_entry,
    key_version,
    program_digest,
    prune_stale_temp_files,
    valuation_digest,
    _read_segment,
)
from repro.counter.system import (
    CounterSystem,
    clear_shared_caches,
    flush_shared_graphs,
    shared_system,
)
from repro.errors import ValidationError
from repro.protocols import cc85, ks16, naive_voting
from repro.spec.obligations import obligations_for

VAL_A = {"n": 4, "t": 1, "f": 1}
VAL_B = {"n": 5, "t": 1, "f": 1}


@pytest.fixture(autouse=True)
def _no_leaked_store():
    """Tests activate stores; none may leak into the rest of the suite."""
    previous = active_graph_store()
    deactivate_graph_store()
    yield
    deactivate_graph_store(previous)


def _explore(system, limit=200):
    """Expand a breadth-first prefix so the caches hold something real."""
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
    return seen


def _verdicts(model, valuation, target="validity"):
    checker = ExplicitChecker(model, valuation, max_states=150_000)
    report = checker.check_obligations(obligations_for(checker.model, target))
    return {
        "queries": [[r.query, r.verdict, r.states_explored]
                    for r in report.queries],
        "sides": dict(report.side_conditions),
    }


class TestInternSharing:
    def test_one_intern_table_per_program_across_valuations(self):
        model = cc85.model_a()
        sys_a = CounterSystem(model, VAL_A)
        sys_b = CounterSystem(cc85.model_a(), VAL_B)
        assert sys_a.program is sys_b.program
        assert sys_a._intern is sys_b._intern
        # A config reached under either valuation canonicalises once.
        config = next(sys_a.initial_configs())
        assert sys_b.intern(config) is config

    def test_successor_caches_stay_per_valuation(self):
        sys_a = CounterSystem(cc85.model_a(), VAL_A)
        sys_b = CounterSystem(cc85.model_a(), VAL_B)
        assert sys_a._succ_cache is not sys_b._succ_cache

    def test_shared_table_keeps_per_valuation_results_bit_identical(self):
        # The same protocol under two valuations, interning into ONE
        # shared table, must reproduce what fully-private systems (own
        # program, own table) compute.
        for valuation in (VAL_A, VAL_B):
            model = cc85.model_a()
            private = _verdicts_private(model, valuation)
            assert _verdicts(cc85.model_a(), valuation) == private

    def test_private_intern_table_opts_out_of_sharing(self):
        # The parameterized checker's counterexample replay uses this:
        # throwaway valuations must not pin configs in (or ever reset)
        # the program-lifetime shared table.
        from repro.counter.store import InternTable

        model = cc85.model_a()
        shared = CounterSystem(model, VAL_A)
        private = CounterSystem(cc85.model_a(), VAL_A,
                                intern_table=InternTable())
        assert shared.program is private.program
        assert private._intern is not shared.program.intern_table.table
        before = len(shared.program.intern_table)
        list(private.initial_configs())
        assert len(shared.program.intern_table) == before

    def test_replay_systems_do_not_touch_the_shared_table(self):
        from repro.checker.parameterized import ParameterizedChecker
        from repro.counter.program import shared_program

        model = cc85.model_a()
        checker = ParameterizedChecker(model)
        table = shared_program(checker.model).intern_table
        before = len(table)
        assert checker._replay.__doc__  # the contract lives in the doc
        # Drive a replay through a decoded-valuation-shaped call.
        from repro.spec.obligations import obligations_for

        query = obligations_for(checker.model, "validity").reach_queries[0]
        checker._replay(query, VAL_A, {}, ())
        assert len(table) == before

    def test_generation_reset_clears_every_dependents_caches(self):
        model = naive_voting.model()
        program = ProtocolProgram(model)
        sys_a = CounterSystem(model, {"n": 3, "f": 1}, program=program)
        sys_b = CounterSystem(model, {"n": 4, "f": 1}, program=program)
        for system in (sys_a, sys_b):
            _explore(system, limit=10)
        assert sys_a._succ_cache and sys_b._succ_cache
        program.intern_table.reset()
        assert not sys_a._succ_cache and not sys_b._succ_cache
        assert len(program.intern_table) == 0
        # ... and both still enumerate correctly afterwards.
        assert _explore(sys_a, limit=5)


def _verdicts_private(model, valuation, target="validity"):
    """Cold verdicts on a fully private system (no shared caches)."""
    checker = ExplicitChecker(model, valuation, max_states=150_000)
    checker.system = CounterSystem(
        checker.model, valuation, program=ProtocolProgram(checker.model)
    )
    report = checker.check_obligations(obligations_for(checker.model, target))
    return {
        "queries": [[r.query, r.verdict, r.states_explored]
                    for r in report.queries],
        "sides": dict(report.side_conditions),
    }


class TestGraphStoreRoundTrip:
    def test_flush_and_load_rebuild_the_exact_graph(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        model = ks16.model()
        warm = CounterSystem(model, VAL_A)
        _explore(warm)
        assert store.flush(warm)

        cold = CounterSystem(model, VAL_A, program=ProtocolProgram(model))
        cold_store = GraphStore(tmp_path, version="v1")
        # Same program structure → same key, despite the private object.
        assert cold_store.backend.canonical_path(cold_store.key_for(cold)) \
            == store.backend.canonical_path(store.key_for(warm))
        assert cold_store.load_into(cold)
        assert cold_store.load_hits == 1
        assert len(cold._succ_cache) == len(warm._succ_cache)
        assert len(cold._options_cache) == len(warm._options_cache)
        for config, groups in warm._succ_cache.items():
            rebuilt = cold._succ_cache[config]
            assert len(rebuilt) == len(groups)
            for group, rebuilt_group in zip(groups, rebuilt):
                assert [a for a, _s in group] == [a for a, _s in rebuilt_group]
                assert [s for _a, s in group] == [s for _a, s in rebuilt_group]
        for config, options in warm._options_cache.items():
            assert cold._options_cache[config] == options

    def test_loaded_successors_are_interned(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        model = ks16.model()
        warm = CounterSystem(model, VAL_A)
        _explore(warm)
        store.flush(warm)
        cold = CounterSystem(model, VAL_A, program=ProtocolProgram(model))
        GraphStore(tmp_path, version="v1").load_into(cold)
        for config, groups in cold._succ_cache.items():
            assert cold.intern(config) is config
            for _action, successor in groups[0] if groups else ():
                assert cold.intern(successor) is successor

    def test_unchanged_graph_is_not_rewritten(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system)
        assert store.flush(system)
        assert not store.flush(system), "unchanged graph must be skipped"
        _explore(system, limit=400)
        assert store.flush(system), "a grown graph must be re-persisted"

    def test_flush_adopted_writes_only_grown_systems(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        first = CounterSystem(ks16.model(), VAL_A)
        second = CounterSystem(ks16.model(), VAL_B)
        for system in (first, second):
            _explore(system, limit=40)
            store.adopt(system)
        assert store.flush_adopted() == 2
        assert store.flush_adopted() == 0
        _explore(second, limit=200)
        assert store.flush_adopted() == 1
        assert len(sorted(tmp_path.glob("*.graph"))) == 2

    def test_empty_system_is_not_persisted(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        assert not store.flush(system)
        assert sorted(tmp_path.glob("*.graph")) == []


class TestColdMisses:
    def _stored(self, tmp_path, version="v1"):
        store = GraphStore(tmp_path, version=version)
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system)
        store.flush(system)
        (path,) = sorted(tmp_path.glob("*.graph"))
        return model, path

    def _fresh(self, model):
        return CounterSystem(model, VAL_A, program=ProtocolProgram(model))

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        assert not store.load_into(self._fresh(ks16.model()))
        assert store.load_misses == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        model, path = self._stored(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        store = GraphStore(tmp_path, version="v1")
        system = self._fresh(model)
        assert not store.load_into(system)
        assert not system._succ_cache and not system._options_cache

    def test_hand_edited_body_is_a_miss(self, tmp_path):
        model, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF  # flip a byte deep in the pickled body
        path.write_bytes(bytes(raw))
        store = GraphStore(tmp_path, version="v1")
        assert not store.load_into(self._fresh(model))
        assert store.errors == 1

    def test_hand_edited_header_is_a_miss(self, tmp_path):
        model, path = self._stored(tmp_path)
        head, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(head.replace(b'"block": ', b'"block": 9') + b"\n" + body)
        store = GraphStore(tmp_path, version="v1")
        assert not store.load_into(self._fresh(model))

    def test_malicious_pickle_payload_is_refused_not_executed(self, tmp_path):
        # A crafted entry can carry a *valid* checksum over a payload
        # whose pickle smuggles a callable; the restricted unpickler
        # must refuse the class lookup (cold miss), never execute it.
        import hashlib
        import json
        import pickle

        model, path = self._stored(tmp_path)
        sentinel = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (Path.touch, (sentinel,))

        body = pickle.dumps({"configs": Evil(), "succ": (), "options": ()})
        head, _, _old = path.read_bytes().partition(b"\n")
        magic, fmt, header_json = head.decode().split(" ", 2)
        header = json.loads(header_json)
        header["body_sha256"] = hashlib.sha256(body).hexdigest()
        path.write_bytes(
            f"{magic} {fmt} {json.dumps(header, sort_keys=True)}\n".encode()
            + body
        )
        store = GraphStore(tmp_path, version="v1")
        system = self._fresh(model)
        assert not store.load_into(system)
        assert not sentinel.exists(), "pickle payload was executed"
        assert not system._succ_cache

    def test_changed_code_version_is_a_miss(self, tmp_path):
        model, _path = self._stored(tmp_path, version="v1")
        store = GraphStore(tmp_path, version="v2")
        system = self._fresh(model)
        assert not store.load_into(system)
        assert not system._succ_cache
        # ... and the stale entry stays for the old version to use.
        assert len(sorted(tmp_path.glob("*.graph"))) == 1

    def test_wrong_valuation_never_matches(self, tmp_path):
        model, _path = self._stored(tmp_path)
        store = GraphStore(tmp_path, version="v1")
        other = CounterSystem(model, VAL_B, program=ProtocolProgram(model))
        assert not store.load_into(other)

    def test_miss_then_cold_run_is_still_correct(self, tmp_path):
        model, path = self._stored(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x5A
        path.write_bytes(bytes(raw))
        clear_shared_caches()
        previous = activate_graph_store(tmp_path, version="v1")
        try:
            observed = _verdicts(ks16.model(), VAL_A)
        finally:
            deactivate_graph_store(previous)
        clear_shared_caches()
        assert observed == _verdicts(ks16.model(), VAL_A)


class TestBestEffortIO:
    def test_flush_survives_disk_failure(self, tmp_path, monkeypatch):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system)
        monkeypatch.setattr(
            Path, "write_bytes",
            lambda self, data: (_ for _ in ()).throw(OSError(28, "no space")),
        )
        assert not store.flush(system)  # must not raise
        assert store.errors == 1
        assert isinstance(store.last_error, OSError)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_flush_is_retried_by_the_next_flush(self, tmp_path,
                                                       monkeypatch):
        # Only a written snapshot counts as stored: after a failed write
        # the unchanged graph is flushed again next time.
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system)
        with monkeypatch.context() as patched:
            patched.setattr(
                Path, "replace",
                lambda self, target: (_ for _ in ()).throw(
                    OSError(28, "no space")),
            )
            assert not store.flush(system)
        assert store.flush(system)
        assert (store.saves, store.errors) == (1, 1)
        cold = _fresh_system(ks16.model())
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(system, cold)

    def test_stale_temp_orphans_pruned_on_init(self, tmp_path):
        stale = tmp_path / "x.graph.99.dead.tmp"
        stale.write_bytes(b"partial")
        ancient = time.time() - 3600
        os.utime(stale, (ancient, ancient))
        fresh = tmp_path / "y.graph.100.beef.tmp"
        fresh.write_bytes(b"live")
        GraphStore(tmp_path)
        assert not stale.exists()
        assert fresh.exists()


class TestResultNeutrality:
    """Warm-from-disk checking reproduces cold runs bit-for-bit."""

    PROTOCOL_MODELS = (cc85.model_a, ks16.model)

    def test_warm_from_disk_verdicts_and_states_match_cold(self, tmp_path):
        cold = {}
        clear_shared_caches()
        for factory in self.PROTOCOL_MODELS:
            for target in ("agreement", "validity"):
                cold[(factory.__module__, target)] = _verdicts(
                    factory(), VAL_A, target
                )

        # Populate the store (cold, store active), then drop every
        # in-process cache — the next run is a fresh process as far as
        # the engine can tell — and re-check warm from disk.
        clear_shared_caches()
        previous = activate_graph_store(tmp_path)
        try:
            for factory in self.PROTOCOL_MODELS:
                for target in ("agreement", "validity"):
                    _verdicts(factory(), VAL_A, target)
            flush_shared_graphs()
            assert sorted(tmp_path.glob("*.graph"))

            clear_shared_caches()
            store = active_graph_store()
            hits_before = store.load_hits
            for factory in self.PROTOCOL_MODELS:
                for target in ("agreement", "validity"):
                    warm = _verdicts(factory(), VAL_A, target)
                    assert warm == cold[(factory.__module__, target)]
            assert store.load_hits > hits_before, "store was never hit"
        finally:
            deactivate_graph_store(previous)
            clear_shared_caches()

    def test_warm_pass_writes_nothing(self, tmp_path):
        # A graph loaded from disk and replayed without growth is never
        # written back: a warm run leaves every snapshot untouched.
        clear_shared_caches()
        previous = activate_graph_store(tmp_path)
        try:
            _verdicts(ks16.model(), VAL_A)
            flush_shared_graphs()
            assert sorted(tmp_path.glob("*.graph"))

            def files():
                return {path.name: (path.stat().st_ino,
                                    path.stat().st_mtime_ns,
                                    path.read_bytes())
                        for path in tmp_path.iterdir()}

            cold_files = files()
            clear_shared_caches()
            activate_graph_store(tmp_path)
            store = active_graph_store()
            _verdicts(ks16.model(), VAL_A)
            assert store.load_hits >= 1
            assert flush_shared_graphs() == 0
            assert store.saves == 0 and store.bytes_written == 0
            assert files() == cold_files
        finally:
            deactivate_graph_store(previous)
            clear_shared_caches()

    def test_flush_only_covers_adopted_systems(self, tmp_path):
        # A warm system left over from an earlier (store-less) run must
        # not leak into a later run's store: only systems served while
        # the store was active are flushed.
        clear_shared_caches()
        leftover = shared_system(cc85.model_a(), VAL_A)  # no store active
        _explore(leftover)
        previous = activate_graph_store(tmp_path)
        try:
            current = shared_system(ks16.model(), VAL_A)
            _explore(current)
            flush_shared_graphs()
            entries = sorted(tmp_path.glob("*.graph"))
            assert len(entries) == 1
            assert entries[0].name.startswith("ks16")
        finally:
            deactivate_graph_store(previous)
            clear_shared_caches()

    def test_shared_system_loads_from_active_store(self, tmp_path):
        clear_shared_caches()
        previous = activate_graph_store(tmp_path)
        try:
            model = ks16.model()
            warm = shared_system(model, VAL_A)
            _explore(warm)
            flush_shared_graphs()
            clear_shared_caches()
            reborn = shared_system(ks16.model(), VAL_A)
            assert reborn._succ_cache, "fresh shared system should be warm"
        finally:
            deactivate_graph_store(previous)
            clear_shared_caches()


@pytest.fixture
def backend_spec(tmp_path):
    """The store directory."""
    return str(tmp_path / "graphs")


def _caches_equal(a, b) -> bool:
    """Structural equality of two systems' succ/option caches."""
    if set(a._succ_cache) != set(b._succ_cache):
        return False
    for config, groups in a._succ_cache.items():
        other = b._succ_cache[config]
        if [[(x, s) for x, s in g] for g in groups] != \
                [[(x, s) for x, s in g] for g in other]:
            return False
    return dict(a._options_cache) == dict(b._options_cache)


def _fresh_system(model, valuation=VAL_A):
    return CounterSystem(model, valuation, program=ProtocolProgram(model))


class TestBackends:
    """One snapshot file per key, replaced whole when the graph grew."""

    def test_round_trip(self, backend_spec):
        store = GraphStore(backend_spec, version="v1")
        model = ks16.model()
        warm = CounterSystem(model, VAL_A)
        _explore(warm)
        assert store.flush(warm)
        cold = _fresh_system(model)
        reader = GraphStore(backend_spec, version="v1")
        assert reader.load_into(cold)
        assert _caches_equal(warm, cold)

    def test_grown_graph_replaces_the_snapshot(self, backend_spec):
        store = GraphStore(backend_spec, version="v1")
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system, limit=40)
        assert store.flush(system)
        first_bytes = store.bytes_written
        _explore(system, limit=400)
        assert store.flush(system)
        # The second flush writes the whole grown graph, not a delta.
        assert store.bytes_written - first_bytes == \
            len(store._serialize(system))
        (path,) = sorted(Path(backend_spec).glob("*.graph"))
        assert path == store.backend.canonical_path(store.key_for(system))
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert _caches_equal(system, cold)

    def test_load_then_grow_rewrites_the_whole_graph(self, backend_spec):
        model = ks16.model()
        seed = CounterSystem(model, VAL_A)
        _explore(seed, limit=40)
        assert GraphStore(backend_spec, version="v1").flush(seed)
        warmed = _fresh_system(model)
        reader = GraphStore(backend_spec, version="v1")
        assert reader.load_into(warmed)
        assert not reader.flush(warmed), "just-loaded graph is unchanged"
        _explore(warmed, limit=400)
        assert reader.flush(warmed)
        ((_path, raw),) = reader.backend.read_segments(
            reader.key_for(warmed))
        assert GraphStore.describe_blob(raw)["segment"] == [0, 0]
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert _caches_equal(warmed, cold)

    def test_smaller_system_never_replaces_a_larger_snapshot(
        self, backend_spec
    ):
        model = ks16.model()
        store = GraphStore(backend_spec, version="v1")
        first = CounterSystem(model, VAL_A)
        _explore(first, limit=200)
        assert store.flush(first)
        path = store.backend.canonical_path(store.key_for(first))
        stored = path.read_bytes()
        # A reborn system under the same key with a smaller graph ...
        reborn = _fresh_system(model)
        _explore(reborn, limit=40)
        assert not store.flush(reborn)
        # ... and one that loaded the snapshot through another store.
        reader = GraphStore(backend_spec, version="v1")
        assert reader.load_into(_fresh_system(model))
        assert not reader.flush(reborn)
        assert path.read_bytes() == stored
        # Outgrowing the stored graph replaces the snapshot.
        _explore(reborn, limit=500)
        assert len(reborn._succ_cache) > len(first._succ_cache)
        assert store.flush(reborn)
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert _caches_equal(reborn, cold)

    def test_reborn_system_never_inherits_a_foreign_baseline(
        self, backend_spec
    ):
        # A new system instance under a stored key is judged by the
        # stored entry count only.  Once it outgrows that count, the
        # snapshot becomes its own full graph, byte for byte: nothing is
        # measured on, or kept from, the first system's caches.
        model = ks16.model()
        store = GraphStore(backend_spec, version="v1")
        first = CounterSystem(model, VAL_A)
        _explore(first, limit=100)
        assert store.flush(first)
        reborn = _fresh_system(model)
        _explore(reborn, limit=400)
        assert len(reborn._succ_cache) > len(first._succ_cache)
        assert store.flush(reborn)
        path = store.backend.canonical_path(store.key_for(reborn))
        assert path.read_bytes() == store._serialize(reborn)
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert _caches_equal(reborn, cold)

    def test_reactivated_store_does_not_duplicate_full_segments(
        self, backend_spec
    ):
        # A warm system meeting a freshly constructed store over a
        # corpus its previous activation wrote finds its graph's entry
        # counts on the snapshot's header line and writes nothing; the
        # store never grows a second file.
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=200)
        first = GraphStore(backend_spec, version="v1")
        assert first.flush(system)
        path = first.backend.canonical_path(first.key_for(system))
        stored = path.read_bytes()
        second = GraphStore(backend_spec, version="v1")
        assert not second.flush(system)
        assert sorted(Path(backend_spec).iterdir()) == [path]
        assert path.read_bytes() == stored


    def test_fresh_store_never_shrinks_another_stores_snapshot(
        self, backend_spec
    ):
        # A store that never loaded or wrote the key reads the stored
        # entry counts from the snapshot's header line: a smaller graph
        # flushed through it leaves the larger snapshot alone.
        model = ks16.model()
        writer = GraphStore(backend_spec, version="v1")
        large = CounterSystem(model, VAL_A)
        _explore(large, limit=400)
        assert writer.flush(large)
        path = writer.backend.canonical_path(writer.key_for(large))
        stored = path.read_bytes()
        small = _fresh_system(model)
        _explore(small, limit=40)
        assert len(small._succ_cache) < len(large._succ_cache)
        other = GraphStore(backend_spec, version="v1")
        assert not other.flush(small)
        assert path.read_bytes() == stored
        assert GraphStore.describe(path)["succ"] == len(large._succ_cache)


class TestCorruptSegments:
    def test_one_corrupt_segment_poisons_the_key(self, tmp_path):
        # One flipped body byte makes the snapshot a miss for every
        # store, and a store that failed to load it counts it as empty:
        # even a smaller graph then replaces the bad snapshot.
        model = ks16.model()
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(model, VAL_A)
        _explore(system, limit=300)
        assert store.flush(system)
        (path,) = sorted(tmp_path.glob("*.graph"))
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        reader = GraphStore(tmp_path, version="v1")
        assert not reader.load_into(_fresh_system(model))
        assert not store.load_into(_fresh_system(model))
        smaller = _fresh_system(model)
        _explore(smaller, limit=40)
        assert len(smaller._succ_cache) < len(system._succ_cache)
        assert store.flush(smaller)
        cold = _fresh_system(model)
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(smaller, cold)


def _damage(raw: bytes, kind: str) -> bytes:
    """One snapshot spoiled the way ``kind`` names."""
    import json

    head, _, body = raw.partition(b"\n")
    if kind == "bad_checksum":
        return raw[:-5] + bytes([raw[-5] ^ 0xFF]) + raw[-4:]
    if kind == "truncated_header":
        return head[: len(head) // 2]
    magic, fmt, header_json = head.decode().split(" ", 2)
    header = json.loads(header_json)
    header["succ"] += 1  # the body (and its checksum) stays intact
    return f"{magic} {fmt} {json.dumps(header, sort_keys=True)}\n".encode() \
        + body


class TestOneSegmentReader:
    """Every way a snapshot can go bad is refused by the one reader,
    :func:`_read_segment`, is a recorded cold miss, and is repaired by
    the next flush of the key."""

    KINDS = ("bad_checksum", "truncated_header", "count_mismatch")

    def _flushed(self, tmp_path, limit=200):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=limit)
        assert store.flush(system)
        return store, system

    @staticmethod
    def _spoil(path, kind):
        path.write_bytes(_damage(path.read_bytes(), kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_reader_refuses_it(self, tmp_path, kind):
        self._flushed(tmp_path)
        (path,) = sorted(tmp_path.glob("*.graph"))
        raw = path.read_bytes()
        _read_segment(raw)
        with pytest.raises(ValueError):
            _read_segment(_damage(raw, kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_is_a_recorded_miss(self, tmp_path, kind):
        self._flushed(tmp_path)
        (path,) = sorted(tmp_path.glob("*.graph"))
        self._spoil(path, kind)
        reader = GraphStore(tmp_path, version="v1")
        cold = _fresh_system(ks16.model())
        assert not reader.load_into(cold)
        assert reader.load_misses == 1 and reader.errors == 1
        assert isinstance(reader.last_error, ValueError)
        assert not cold._succ_cache and not cold._options_cache

    @pytest.mark.parametrize("kind", KINDS)
    def test_next_flush_repairs_the_key(self, tmp_path, kind):
        # The store counts the snapshot as empty after the failed load,
        # so the cold re-expansion overwrites the bad snapshot although
        # it holds exactly as many entries as the store once wrote.
        store, system = self._flushed(tmp_path)
        (path,) = sorted(tmp_path.glob("*.graph"))
        good = path.read_bytes()
        self._spoil(path, kind)
        reborn = _fresh_system(ks16.model())
        assert not store.load_into(reborn)
        _explore(reborn, limit=200)
        assert store.flush(reborn)
        assert path.read_bytes() == good
        cold = _fresh_system(ks16.model())
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(system, cold)


class TestStoredCoverage:
    """A flush writes only when the system holds more cache entries
    (successor plus option entries) than the key's snapshot."""

    def _flushed(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=40)
        assert store.flush(system)
        assert not store.flush(system)
        return store, system

    @staticmethod
    def _unexpanded(system):
        """A reached config with neither a successor nor an option entry."""
        for groups in system._succ_cache.values():
            for group in groups:
                for _action, successor in group:
                    if (successor not in system._succ_cache
                            and successor not in system._options_cache):
                        return successor
        raise AssertionError("every reached config is expanded")

    @pytest.mark.parametrize("extra", ["option", "succ"])
    def test_any_new_entry_is_not_covered(self, tmp_path, extra):
        store, system = self._flushed(tmp_path)
        config = self._unexpanded(system)
        if extra == "succ":
            system.successor_groups(config)
        else:
            system.rule_options(config)
        assert store.flush(system)
        cold = _fresh_system(ks16.model())
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert _caches_equal(system, cold)

    def test_an_equal_entry_count_is_covered(self, tmp_path):
        # The rule compares counts, not contents: a different graph of
        # the stored size never replaces the stored snapshot.
        store, system = self._flushed(tmp_path)
        (path,) = sorted(tmp_path.glob("*.graph"))
        stored = path.read_bytes()
        target = len(system._succ_cache) + len(system._options_cache)
        other = _fresh_system(ks16.model())
        frontier = list(other.initial_configs())
        seen = set(frontier)
        while len(other._succ_cache) < target:
            for group in other.successor_groups(frontier.pop(0)):
                for _action, successor in group:
                    if successor not in seen:
                        seen.add(successor)
                        frontier.append(successor)
        assert not other._options_cache
        assert not store.flush(other)
        assert path.read_bytes() == stored
        other.rule_options(next(iter(other._succ_cache)))
        assert store.flush(other)
        assert path.read_bytes() == store._serialize(other)


_SUCC_GROUPS = st.lists(
    st.tuples(st.integers(0, 64), st.integers(0, 8),
              st.tuples(st.integers(0, 64))),
    max_size=6,
).map(tuple)


class TestSnapshotCodec:
    """Property checks on :func:`encode_entry` / :func:`_read_segment`."""

    CORE = {"model": "m", "program": "p", "valuation": [["n", 4]],
            "code_version": "v1", "block": 1, "segment": [0, 0]}

    PAYLOADS = st.fixed_dictionaries({
        "configs": st.lists(st.tuples(st.integers(-3, 1 << 40)),
                            max_size=8).map(tuple),
        "succ": st.lists(st.tuples(st.integers(0, 64), _SUCC_GROUPS),
                         max_size=6).map(tuple),
        "options": st.lists(
            st.tuples(st.integers(0, 64),
                      st.lists(st.tuples(st.integers(0, 9),
                                         st.integers(0, 9)),
                               max_size=4).map(tuple)),
            max_size=6).map(tuple),
    })

    @settings(max_examples=60, deadline=None)
    @given(payload=PAYLOADS)
    def test_round_trip(self, payload):
        header, decoded = _read_segment(encode_entry(self.CORE, payload))
        assert decoded == payload
        assert {k: header[k] for k in self.CORE} == self.CORE

    @settings(max_examples=60, deadline=None)
    @given(payload=PAYLOADS, data=st.data())
    def test_any_flipped_body_byte_is_refused(self, payload, data):
        raw = encode_entry(self.CORE, payload)
        body_start = raw.index(b"\n") + 1
        at = data.draw(st.integers(body_start, len(raw) - 1), label="at")
        bit = data.draw(st.integers(0, 7), label="bit")
        spoiled = bytearray(raw)
        spoiled[at] ^= 1 << bit
        with pytest.raises(ValueError, match="checksum"):
            _read_segment(bytes(spoiled))


    @settings(max_examples=60, deadline=None)
    @given(payload=PAYLOADS, data=st.data())
    def test_any_truncation_is_refused(self, payload, data):
        raw = encode_entry(self.CORE, payload)
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        with pytest.raises(ValueError):
            _read_segment(raw[:cut])

    @settings(max_examples=60, deadline=None)
    @given(payload=PAYLOADS, tail=st.binary(min_size=1, max_size=16))
    def test_trailing_bytes_are_refused(self, payload, tail):
        with pytest.raises(ValueError, match="checksum"):
            _read_segment(encode_entry(self.CORE, payload) + tail)

    @settings(max_examples=60, deadline=None)
    @given(payload=PAYLOADS,
           field=st.sampled_from(("configs", "succ", "options")),
           delta=st.integers(-3, 3).filter(bool))
    def test_a_miscounted_header_is_refused(self, payload, field, delta):
        import json

        head, _, body = encode_entry(self.CORE, payload).partition(b"\n")
        magic, fmt, header_json = head.decode().split(" ", 2)
        header = json.loads(header_json)
        header[field] += delta  # the body and its checksum stay intact
        raw = f"{magic} {fmt} {json.dumps(header, sort_keys=True)}\n" \
            .encode() + body
        with pytest.raises(ValueError, match="count"):
            _read_segment(raw)


class TestLocalDirBackend:
    """The raw directory layout: one opaque blob per key."""

    def test_missing_root_is_created_empty(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "a" / "b")
        assert (tmp_path / "a" / "b").is_dir()
        assert backend.read_segments("k-p-v-x") == []

    def test_rewriting_the_canonical_segment_keeps_it(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_canonical("k-p-v-x", b"v1")
        backend.write_canonical("k-p-v-x", b"v2")
        canonical = backend.canonical_path("k-p-v-x")
        assert backend.read_segments("k-p-v-x") == [(canonical, b"v2")]
        assert list(tmp_path.iterdir()) == [canonical]

    def test_vanished_segment_is_skipped(self, tmp_path, monkeypatch):
        # A pruner or ``cache clear`` may remove the snapshot while a
        # load runs; the reader then sees no snapshot and the store a
        # plain miss, never an error.
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=40)
        assert store.flush(system)
        monkeypatch.setattr(Path, "read_bytes", _raise(FileNotFoundError))
        assert store.backend.read_segments(store.key_for(system)) == []
        assert not store.load_into(_fresh_system(ks16.model()))
        assert (store.load_misses, store.errors) == (1, 0)

    def test_append_segment_is_the_one_writer(self):
        assert LocalDirBackend.append_segment is LocalDirBackend.write_canonical

    def test_failed_publish_leaves_neither_temp_nor_target(
        self, tmp_path, monkeypatch
    ):
        backend = LocalDirBackend(tmp_path)

        def refuse(self, target):
            raise OSError(30, "read-only file system")

        monkeypatch.setattr(Path, "replace", refuse)
        with pytest.raises(OSError):
            backend.write_canonical("k-p-v-x", b"blob")
        assert list(tmp_path.iterdir()) == []


class TestStoreDirSpec:
    @pytest.mark.parametrize("spec", ["sqlite:g.db", "sqlite://g.db",
                                      "sqlite:"])
    def test_sqlite_specs_are_refused(self, spec):
        with pytest.raises(ValidationError, match="pass a directory path"):
            check_graph_store_dir(spec)

    def test_directory_specs_pass(self, tmp_path):
        for spec in (tmp_path, str(tmp_path / "graphs"), "rel/graphs",
                     "graphs.sqlite"):
            check_graph_store_dir(spec)


class TestDirectoryResilience:
    """Directory failures are recorded cold misses, never crashes."""

    def _flushed(self, tmp_path):
        store = GraphStore(tmp_path / "graphs", version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=40)
        assert store.flush(system)
        return store, system

    def test_unreadable_segment_is_a_recorded_miss(self, tmp_path,
                                                   monkeypatch):
        store, system = self._flushed(tmp_path)
        monkeypatch.setattr(
            Path, "read_bytes",
            lambda self: (_ for _ in ()).throw(PermissionError(13, "denied")),
        )
        cold = _fresh_system(ks16.model())
        assert not store.load_into(cold)
        assert store.errors == 1 and store.load_misses == 1
        assert isinstance(store.last_error, PermissionError)

    def test_flush_into_a_removed_directory_is_a_recorded_error(
        self, tmp_path
    ):
        import shutil

        store, system = self._flushed(tmp_path)
        shutil.rmtree(tmp_path / "graphs")
        _explore(system, limit=300)
        assert not store.flush(system)  # must not raise
        assert store.errors == 1
        assert isinstance(store.last_error, OSError)

    def test_load_after_the_directory_is_removed_is_a_plain_miss(
        self, tmp_path
    ):
        import shutil

        store, system = self._flushed(tmp_path)
        shutil.rmtree(tmp_path / "graphs")
        assert not store.load_into(_fresh_system(ks16.model()))
        assert store.load_misses == 1 and store.errors == 0

    def test_every_failure_logs_one_store_warning(self, tmp_path, caplog):
        import logging

        store, system = self._flushed(tmp_path)
        (path,) = sorted((tmp_path / "graphs").glob("*.graph"))
        path.write_bytes(b"repro-graph 1 {}\n")
        with caplog.at_level(logging.WARNING, logger="repro.counter.store"):
            assert not store.load_into(_fresh_system(ks16.model()))
        [record] = caplog.records
        assert record.event == "store.load_error"
        assert record.key == store.key_for(system)


def _raise(exc_type):
    def fail(*_args, **_kwargs):
        raise exc_type(13, "injected")
    return fail


class TestScanErrors:
    """Swallowed directory errors log one ``store.scan_error`` each.

    ``FileNotFoundError`` is the benign race with a concurrent writer
    or pruner and stays silent.
    """

    @staticmethod
    def _scan_records(caplog):
        return [r for r in caplog.records
                if getattr(r, "event", None) == "store.scan_error"]

    def _one_record(self, caplog, op):
        [record] = self._scan_records(caplog)
        assert record.op == op
        assert "PermissionError" in record.error and record.path
        return record

    @pytest.fixture(autouse=True)
    def _capture(self, caplog):
        import logging

        caplog.set_level(logging.WARNING, logger="repro.counter.store")

    @staticmethod
    def _orphan(tmp_path):
        orphan = tmp_path / "x.graph.1.dead.tmp"
        orphan.write_bytes(b"")
        old = time.time() - 2 * STALE_TEMP_SECONDS
        os.utime(orphan, (old, old))

    def test_prune_listing(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(Path, "glob", _raise(PermissionError))
        assert prune_stale_temp_files(tmp_path) == 0
        self._one_record(caplog, "prune")

    def test_prune_unlink(self, tmp_path, caplog, monkeypatch):
        self._orphan(tmp_path)
        monkeypatch.setattr(Path, "unlink", _raise(PermissionError))
        assert prune_stale_temp_files(tmp_path) == 0
        self._one_record(caplog, "prune")

    def test_prune_stat(self, tmp_path, caplog, monkeypatch):
        self._orphan(tmp_path)
        monkeypatch.setattr(Path, "stat", _raise(PermissionError))
        assert prune_stale_temp_files(tmp_path) == 0
        self._one_record(caplog, "prune")

    def test_store_opens_despite_a_prune_failure(self, tmp_path, caplog,
                                                 monkeypatch):
        self._orphan(tmp_path)
        with monkeypatch.context() as patched:
            patched.setattr(Path, "unlink", _raise(PermissionError))
            store = GraphStore(tmp_path, version="v1")
        self._one_record(caplog, "prune")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=40)
        assert store.flush(system)
        assert store.load_into(_fresh_system(ks16.model()))

    def test_vanished_files_stay_silent(self, tmp_path, caplog, monkeypatch):
        self._orphan(tmp_path)
        monkeypatch.setattr(Path, "unlink", _raise(FileNotFoundError))
        assert prune_stale_temp_files(tmp_path) == 0
        monkeypatch.setattr(Path, "glob", _raise(FileNotFoundError))
        assert prune_stale_temp_files(tmp_path) == 0
        assert self._scan_records(caplog) == []


class TestDescribe:
    @pytest.mark.parametrize("head", [
        b"repro-graph 1 [1, 2]\n",
        b"repro-graph 2 {}\n",
        b"other-magic 1 {}\n",
        b'repro-graph 1 {"model": "m", "configs": 1, "succ": 1}\n',
        b'repro-graph 1 {"configs": 1, "succ": 1, "options": 1}\n',
        b"\xff\xfe\n",
    ])
    def test_malformed_headers_describe_as_none(self, head):
        assert GraphStore.describe_blob(head) is None

    def test_describe_reads_only_the_header_line(self, tmp_path):
        # ``cache info`` describes a snapshot from its first line alone,
        # so the body is never read.
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=40)
        assert store.flush(system)
        (path,) = sorted(tmp_path.glob("*.graph"))
        raw = path.read_bytes()
        header = GraphStore.describe(path)
        assert header == GraphStore.describe_blob(raw)
        path.write_bytes(raw.partition(b"\n")[0] + b"\n")
        assert GraphStore.describe(path) == header

    def test_describe_of_a_missing_file_is_none(self, tmp_path):
        assert GraphStore.describe(tmp_path / "gone.graph") is None


class TestKeying:
    def test_program_digest_stable_across_instances(self):
        assert program_digest(ProtocolProgram(ks16.model())) == program_digest(
            ProtocolProgram(ks16.model())
        )
        assert program_digest(ProtocolProgram(ks16.model())) != program_digest(
            ProtocolProgram(cc85.model_a())
        )

    def test_valuation_digest_orders_canonically(self):
        assert valuation_digest({"n": 4, "t": 1, "f": 1}) == valuation_digest(
            {"f": 1, "t": 1, "n": 4}
        )
        assert valuation_digest(VAL_A) != valuation_digest(VAL_B)

    def test_key_version_parses(self):
        assert key_version("m-aaaa-bbbb-v123") == "v123"
        assert key_version("nonsense") is None

    def test_each_code_version_keys_its_own_snapshot(self, tmp_path):
        # Versions never share a file, so ``cache prune`` can drop the
        # stale ones by name while the current one stays loadable.
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=40)
        for version in ("v1", "v2"):
            assert GraphStore(tmp_path, version=version).flush(system)
        paths = sorted(tmp_path.glob("*.graph"))
        assert [GraphStore.entry_version(p) for p in paths] == ["v1", "v2"]
        for version in ("v1", "v2"):
            cold = _fresh_system(ks16.model())
            assert GraphStore(tmp_path, version=version).load_into(cold)
            assert _caches_equal(system, cold)

    def test_entry_version_parses_from_file_name(self, tmp_path):
        store = GraphStore(tmp_path, version="cafebabe00000000")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system)
        store.flush(system)
        (path,) = sorted(tmp_path.glob("*.graph"))
        assert GraphStore.entry_version(path) == "cafebabe00000000"
        header = GraphStore.describe(path)
        assert header["code_version"] == "cafebabe00000000"
        assert header["configs"] == len(
            {c for c in system._succ_cache}
            | {s for gs in system._succ_cache.values()
               for g in gs for _a, s in g}
            | set(system._options_cache)
        )
