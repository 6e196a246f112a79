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

from repro.checker.explicit import ExplicitChecker
from repro.counter.program import ProtocolProgram, shared_program
from repro.counter.store import (
    STALE_TEMP_SECONDS,
    GraphStore,
    LocalDirBackend,
    activate_graph_store,
    active_graph_store,
    check_graph_store_dir,
    compact_backend,
    deactivate_graph_store,
    encode_entry,
    key_version,
    program_digest,
    prune_stale_temp_files,
    valuation_digest,
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
    """The store round-trips, appends deltas, and compacts."""

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

    def test_delta_flush_appends_only_growth(self, backend_spec):
        store = GraphStore(backend_spec, version="v1")
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system, limit=40)
        assert store.flush(system)
        first_bytes = store.bytes_written
        _explore(system, limit=400)
        assert store.flush(system)
        delta_bytes = store.bytes_written - first_bytes
        # The second segment holds only the growth — far smaller than
        # re-serializing the whole (now much larger) graph would be.
        full_blob = store._serialize(system)
        assert delta_bytes < len(full_blob)
        key = store.key_for(system)
        assert store.backend.stats()[key][0] == 2
        # Merge-on-load equals the union of both segments.
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert _caches_equal(system, cold)

    def test_load_then_grow_flushes_delta_only(self, backend_spec):
        model = ks16.model()
        seed = CounterSystem(model, VAL_A)
        _explore(seed, limit=40)
        store = GraphStore(backend_spec, version="v1")
        assert store.flush(seed)
        # A fresh process loads the graph, explores further, and only
        # the growth beyond the loaded baseline is appended.
        warmed = _fresh_system(model)
        reader = GraphStore(backend_spec, version="v1")
        assert reader.load_into(warmed)
        assert not reader.flush(warmed), "just-loaded graph is unchanged"
        _explore(warmed, limit=400)
        assert reader.flush(warmed)
        header = GraphStore.describe_blob(
            reader.backend.read_segments(reader.key_for(warmed))[-1][1]
        )
        assert header["segment"] != [0, 0], "expected a delta segment"
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert _caches_equal(warmed, cold)

    def test_reborn_system_never_inherits_a_foreign_baseline(
        self, backend_spec
    ):
        # A new system instance under the same key must never inherit a
        # baseline measured on someone else's caches (that would drop
        # entries from the delta).  Its full serialization is either
        # already covered by storage (skip — nothing to add) or gets
        # appended whole; in both cases the stored union stays intact.
        model = ks16.model()
        store = GraphStore(backend_spec, version="v1")
        first = CounterSystem(model, VAL_A)
        _explore(first, limit=200)
        assert store.flush(first)
        reborn = _fresh_system(model)
        _explore(reborn, limit=40)
        # The reborn system's 40-entry prefix is a subset of what the
        # first system persisted: covered, so nothing is appended...
        assert not store.flush(reborn)
        key = store.key_for(reborn)
        assert store.backend.stats()[key][0] == 1
        # ... but the covered flush established a baseline, so growth
        # beyond it appends a delta and the union survives.
        _explore(reborn, limit=500)
        assert store.flush(reborn)
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert set(first._succ_cache) <= set(cold._succ_cache)
        assert set(reborn._succ_cache) <= set(cold._succ_cache)

    def test_compact_squashes_segments_and_preserves_graph(self, backend_spec):
        store = GraphStore(backend_spec, version="v1")
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        for limit in (30, 120, 400):
            _explore(system, limit=limit)
            store.flush(system)
        key = store.key_for(system)
        assert store.backend.stats()[key][0] == 3
        stats = compact_backend(store.backend)
        assert stats["compacted"] == 1 and stats["errors"] == 0
        assert store.backend.stats()[key][0] == 1
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert _caches_equal(system, cold)

    def test_compact_is_idempotent(self, backend_spec):
        store = GraphStore(backend_spec, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=60)
        store.flush(system)
        _explore(system, limit=200)
        store.flush(system)
        first = compact_backend(store.backend)
        second = compact_backend(store.backend)
        assert first["compacted"] == 1
        assert second["compacted"] == 0, "already-canonical keys are skipped"
        assert second["segments_before"] == second["segments_after"] == 1

    def test_reactivated_store_does_not_duplicate_full_segments(
        self, backend_spec
    ):
        # A warm system meeting a freshly constructed store over a
        # corpus its previous activation wrote (notebook/driver loop)
        # must not append one duplicate snapshot per activation.
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system, limit=200)
        first = GraphStore(backend_spec, version="v1")
        assert first.flush(system)
        key = first.key_for(system)
        second = GraphStore(backend_spec, version="v1")
        assert not second.flush(system), "identical body must dedup"
        assert second.backend.stats()[key][0] == 1
        # ... and the deduped flush still established a delta baseline.
        _explore(system, limit=400)
        assert second.flush(system)
        header = GraphStore.describe_blob(
            second.backend.read_segments(key)[-1][1]
        )
        assert header["segment"] != [0, 0], "expected a delta segment"
        cold = _fresh_system(model)
        assert GraphStore(backend_spec, version="v1").load_into(cold)
        assert _caches_equal(system, cold)
        # A key stored as full+delta must dedup too (union coverage,
        # not just a byte-identical single segment): yet another store
        # activation over the unchanged warm system appends nothing.
        segments_now = second.backend.stats()[key][0]
        third = GraphStore(backend_spec, version="v1")
        assert not third.flush(system)
        assert third.backend.stats()[key][0] == segments_now
        # ... while genuinely new growth still gets appended.
        _explore(system, limit=700)
        assert third.flush(system)


class TestCorruptSegments:
    def _segmented(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        model = ks16.model()
        system = CounterSystem(model, VAL_A)
        _explore(system, limit=40)
        store.flush(system)
        _explore(system, limit=300)
        store.flush(system)
        return model, store

    def test_one_corrupt_segment_poisons_the_key(self, tmp_path):
        model, store = self._segmented(tmp_path)
        paths = sorted(tmp_path.glob("*.graph"))
        assert len(paths) == 2
        raw = bytearray(paths[-1].read_bytes())
        raw[-5] ^= 0xFF
        paths[-1].write_bytes(bytes(raw))
        cold = _fresh_system(model)
        reader = GraphStore(tmp_path, version="v1")
        assert not reader.load_into(cold)
        assert not cold._succ_cache, "poisoned key must be a full cold miss"

    def test_compact_repairs_a_poisoned_key(self, tmp_path, caplog):
        import logging

        model, store = self._segmented(tmp_path)
        paths = sorted(tmp_path.glob("*.graph"))
        raw = bytearray(paths[-1].read_bytes())
        raw[-5] ^= 0xFF
        paths[-1].write_bytes(bytes(raw))
        with caplog.at_level(logging.WARNING, logger="repro.counter.store"):
            stats = compact_backend(LocalDirBackend(tmp_path))
        assert stats["corrupt_dropped"] == 1
        [record] = caplog.records
        assert record.event == "store.compact.corrupt_segment"
        assert record.key == LocalDirBackend(tmp_path).keys()[0]
        assert "checksum" in record.error
        cold = _fresh_system(model)
        assert GraphStore(tmp_path, version="v1").load_into(cold)
        assert cold._succ_cache, "surviving segment must load after repair"

    def test_compact_write_failure_logs_and_leaves_the_key(
        self, tmp_path, caplog, monkeypatch
    ):
        import logging

        self._segmented(tmp_path)
        before = {p: p.read_bytes() for p in sorted(tmp_path.glob("*.graph"))}
        backend = LocalDirBackend(tmp_path)

        def full_disk(*_args, **_kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(backend, "write_canonical", full_disk)
        with caplog.at_level(logging.WARNING, logger="repro.counter.store"):
            stats = compact_backend(backend)
        total = sum(len(blob) for blob in before.values())
        assert stats == {
            "keys": 1, "compacted": 0,
            "segments_before": 2, "segments_after": 2,
            "bytes_before": total, "bytes_after": total,
            "corrupt_dropped": 0, "errors": 1,
        }
        [record] = caplog.records
        assert record.event == "store.compact.write_error"
        assert record.key == backend.keys()[0]
        assert "No space left" in record.error
        assert {p: p.read_bytes() for p in sorted(tmp_path.glob("*.graph"))} == before

    def test_compact_deletes_fully_corrupt_keys(self, tmp_path):
        _model, _store = self._segmented(tmp_path)
        for path in sorted(tmp_path.glob("*.graph")):
            path.write_bytes(b"garbage")
        stats = compact_backend(LocalDirBackend(tmp_path))
        assert stats["corrupt_dropped"] == 2
        assert sorted(tmp_path.glob("*.graph")) == []

    def test_compact_repairs_a_single_corrupt_segment(self, tmp_path):
        # The single-segment fast path must not skip validation: a key
        # whose ONLY segment is corrupt would otherwise cold-miss
        # forever while compact reports the store clean.
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=60)
        store.flush(system)
        (path,) = sorted(tmp_path.glob("*.graph"))
        path.write_bytes(b"repro-graph garbage")
        stats = compact_backend(LocalDirBackend(tmp_path))
        assert stats["corrupt_dropped"] == 1
        assert sorted(tmp_path.glob("*.graph")) == []


def _damage(raw: bytes, kind: str) -> bytes:
    """One segment spoiled the way ``kind`` names."""
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
    """Loads, the flush-time coverage check and compaction decode every
    segment through one reader, so they agree on what a bad one is."""

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
    def test_covered_flush_over_a_bad_segment_appends(self, tmp_path, kind):
        self._flushed(tmp_path)
        (path,) = sorted(tmp_path.glob("*.graph"))
        # A reborn system's smaller graph is covered by the stored one
        # (the slow path: no stored body checksum equals its own) ...
        reborn = _fresh_system(ks16.model())
        _explore(reborn, limit=40)
        writer = GraphStore(tmp_path, version="v1")
        key = writer.key_for(reborn)
        blob = writer._serialize(reborn)
        assert writer._already_stored(key, blob)
        # ... until the stored segment goes bad: then it covers nothing.
        self._spoil(path, kind)
        assert not writer._already_stored(key, blob)
        assert writer.flush(reborn)
        assert writer.backend.stats()[key][0] == 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_compaction_drops_the_bad_segment(self, tmp_path, kind):
        store, system = self._flushed(tmp_path, limit=40)
        _explore(system, limit=300)
        assert store.flush(system)
        paths = sorted(tmp_path.glob("*.graph"))
        assert len(paths) == 2
        self._spoil(paths[-1], kind)
        stats = compact_backend(LocalDirBackend(tmp_path))
        assert stats["corrupt_dropped"] == 1 and stats["compacted"] == 1
        (survivor,) = sorted(tmp_path.glob("*.graph"))
        assert survivor == store.backend.canonical_path(store.key_for(system))
        cold = _fresh_system(ks16.model())
        assert GraphStore(tmp_path, version="v1").load_into(cold)


class TestStoredCoverage:
    """A no-baseline full segment is skipped only when merging it into
    the stored segments would add nothing."""

    CORE = {"model": "m", "program": "p", "valuation": [["n", 4]],
            "code_version": "v1", "block": 1, "segment": [0, 0]}
    STORED = {"configs": ((1,), (2,)),
              "succ": ((0, ((0, 0, (1,)),)),),
              "options": ((0, ((0, 0),)),)}
    GROWN = {
        "config": dict(STORED, configs=STORED["configs"] + ((3,),)),
        "succ": dict(STORED, succ=STORED["succ"] + ((1, ((0, 0, (0,)),)),)),
        "option": dict(STORED, options=STORED["options"] + ((1, ((0, 0),)),)),
    }

    @pytest.mark.parametrize("extra", sorted(GROWN))
    def test_any_new_entry_is_not_covered(self, tmp_path, extra):
        store = GraphStore(tmp_path, version="v1")
        key = "m-p-v-v1"
        store.backend.append_segment(key, encode_entry(self.CORE, self.STORED))
        # Slow path (no stored body checksum matches): a subset is covered.
        subset = dict(self.STORED, options=())
        assert store._already_stored(key, encode_entry(self.CORE, subset))
        grown = encode_entry(self.CORE, self.GROWN[extra])
        assert not store._already_stored(key, grown)


class TestLocalDirBackend:
    """The raw directory layout: opaque blobs under string keys."""

    def test_missing_root_is_created_empty(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "a" / "b")
        assert (tmp_path / "a" / "b").is_dir()
        assert backend.keys() == []
        assert backend.stats() == {}
        assert backend.read_segments("k-p-v-x") == []

    def test_segments_read_canonical_first_then_in_append_order(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.append_segment("k-p-v-x", b"first")
        backend.append_segment("k-p-v-x", b"second")
        backend.write_canonical("k-p-v-x", b"canon")
        blobs = [blob for _path, blob in backend.read_segments("k-p-v-x")]
        assert blobs == [b"canon", b"first", b"second"]
        assert backend.read_segments("k-p-v-x")[0][0] == \
            backend.canonical_path("k-p-v-x")

    def test_append_never_replaces_a_segment(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        for _ in range(3):
            backend.append_segment("k-p-v-x", b"same bytes")
        assert backend.stats() == {"k-p-v-x": (3, 30)}

    def test_write_canonical_drops_only_the_superseded_segments(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.append_segment("k-p-v-x", b"old")
        read = [path for path, _blob in backend.read_segments("k-p-v-x")]
        # A concurrent writer appends after the compactor read its list.
        backend.append_segment("k-p-v-x", b"late")
        backend.write_canonical("k-p-v-x", b"merged", drop=read)
        blobs = [blob for _path, blob in backend.read_segments("k-p-v-x")]
        assert blobs == [b"merged", b"late"]

    def test_rewriting_the_canonical_segment_keeps_it(self, tmp_path):
        # The canonical path may appear in ``drop`` (compacting a key
        # that already had one); it is replaced, never unlinked.
        backend = LocalDirBackend(tmp_path)
        backend.write_canonical("k-p-v-x", b"v1")
        canonical = backend.canonical_path("k-p-v-x")
        backend.write_canonical("k-p-v-x", b"v2", drop=[canonical])
        assert canonical.read_bytes() == b"v2"

    def test_keys_and_stats_group_segments_by_key(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_canonical("a-p-v-x", b"12345")
        backend.append_segment("a-p-v-x", b"678")
        backend.append_segment("b-p-v-x", b"9")
        assert backend.keys() == ["a-p-v-x", "b-p-v-x"]
        assert backend.stats() == {"a-p-v-x": (2, 8), "b-p-v-x": (1, 1)}

    def test_delete_key_spares_keys_sharing_its_prefix(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.write_canonical("m-p-v-x", b"a")
        backend.append_segment("m-p-v-x", b"b")
        backend.append_segment("m-p-v-x2", b"c")
        assert backend.delete_key("m-p-v-x") == 2
        assert backend.keys() == ["m-p-v-x2"]

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

    def test_vanished_segment_is_skipped(self, tmp_path, monkeypatch):
        # A compactor may unlink a segment between the listing and the
        # read; the reader sees the survivors, never an error.
        backend = LocalDirBackend(tmp_path)
        backend.append_segment("k-p-v-x", b"kept")
        listed = backend._segment_paths("k-p-v-x")
        gone = tmp_path / "k-p-v-x~0_000000_dead.graph"
        monkeypatch.setattr(backend, "_segment_paths",
                            lambda key: [gone] + listed)
        assert [blob for _p, blob in backend.read_segments("k-p-v-x")] == \
            [b"kept"]

    def test_segment_heads_are_the_header_lines(self, tmp_path):
        store = GraphStore(tmp_path, version="v1")
        system = CounterSystem(ks16.model(), VAL_A)
        _explore(system, limit=40)
        store.flush(system)
        key = store.key_for(system)
        (head,) = store.backend.segment_heads(key)
        ((_path, raw),) = store.backend.read_segments(key)
        assert raw.startswith(head) and head.endswith(b"\n")
        assert GraphStore.describe_blob(head)["segment"] == [0, 0]


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

    @pytest.fixture
    def backend(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.append_segment("k-p-v-x", b"head\nbody")
        return backend

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

    def test_keys(self, backend, caplog, monkeypatch):
        monkeypatch.setattr(Path, "glob", _raise(PermissionError))
        assert backend.keys() == []
        self._one_record(caplog, "keys")

    def test_stats_listing(self, backend, caplog, monkeypatch):
        monkeypatch.setattr(Path, "glob", _raise(PermissionError))
        assert backend.stats() == {}
        self._one_record(caplog, "stats")

    def test_stats_entry(self, backend, caplog, monkeypatch):
        monkeypatch.setattr(Path, "stat", _raise(PermissionError))
        assert backend.stats() == {}
        self._one_record(caplog, "stats")

    def test_segment_heads(self, backend, caplog, monkeypatch):
        import repro.counter.store as store_module

        monkeypatch.setattr(store_module, "open", _raise(PermissionError),
                            raising=False)
        assert backend.segment_heads("k-p-v-x") == []
        self._one_record(caplog, "segment_heads")

    def test_delete_key(self, backend, caplog, monkeypatch):
        monkeypatch.setattr(Path, "unlink", _raise(PermissionError))
        assert backend.delete_key("k-p-v-x") == 0
        self._one_record(caplog, "delete_key")

    def test_write_canonical_drop(self, backend, caplog, monkeypatch):
        read = [path for path, _blob in backend.read_segments("k-p-v-x")]
        monkeypatch.setattr(Path, "unlink", _raise(PermissionError))
        backend.write_canonical("k-p-v-x", b"merged", drop=read)
        assert backend.canonical_path("k-p-v-x").read_bytes() == b"merged"
        record = self._one_record(caplog, "drop")
        assert record.path == str(read[0])

    def test_prune_listing(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(Path, "glob", _raise(PermissionError))
        assert prune_stale_temp_files(tmp_path) == 0
        self._one_record(caplog, "prune")

    def test_prune_unlink(self, tmp_path, caplog, monkeypatch):
        orphan = tmp_path / "x.graph.1.dead.tmp"
        orphan.write_bytes(b"")
        old = time.time() - 2 * STALE_TEMP_SECONDS
        os.utime(orphan, (old, old))
        monkeypatch.setattr(Path, "unlink", _raise(PermissionError))
        assert prune_stale_temp_files(tmp_path) == 0
        self._one_record(caplog, "prune")

    def test_vanished_files_stay_silent(self, backend, tmp_path, caplog,
                                        monkeypatch):
        orphan = tmp_path / "x.graph.1.dead.tmp"
        orphan.write_bytes(b"")
        old = time.time() - 2 * STALE_TEMP_SECONDS
        os.utime(orphan, (old, old))
        monkeypatch.setattr(Path, "unlink", _raise(FileNotFoundError))
        assert prune_stale_temp_files(tmp_path) == 0
        assert backend.delete_key("k-p-v-x") == 0
        monkeypatch.setattr(Path, "glob", _raise(FileNotFoundError))
        assert backend.keys() == [] and backend.stats() == {}
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
