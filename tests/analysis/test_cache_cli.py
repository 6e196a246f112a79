"""The ``python -m repro.harness cache {info,prune,clear}`` subcommand."""

import json
import logging
import os
import time
from pathlib import Path

import pytest

from repro import api
from repro.counter.program import ProtocolProgram
from repro.counter.store import GraphStore
from repro.counter.system import CounterSystem, clear_shared_caches
from repro.harness.__main__ import main
from repro.protocols import ks16


def _age(path, seconds=3600):
    ancient = time.time() - seconds
    os.utime(path, (ancient, ancient))


@pytest.fixture
def populated(tmp_path):
    """A cache root holding results, one graph, and crashed-writer orphans."""
    clear_shared_caches()
    api.sweep(protocols=("cc85a",), targets=("validity",),
              cache_dir=str(tmp_path), graph_store=str(tmp_path / "graphs"))
    for orphan in (tmp_path / "leftover.json.1.aa.tmp",
                   tmp_path / "graphs" / "leftover.graph.2.bb.tmp"):
        orphan.write_bytes(b"{")
        _age(orphan)
    return tmp_path


def _run(capsys, *argv) -> str:
    assert main(["harness", *argv]) == 0
    return capsys.readouterr().out


class TestInfo:
    def test_info_reports_entries_and_orphans(self, populated, capsys):
        out = _run(capsys, "cache", "info", "--dir", str(populated))
        assert "result entries      1" in out
        assert "graph entries       1" in out
        assert "temp orphans        2" in out
        assert "cc85a" in out  # the per-graph header line
        assert "0 stale" in out

    def test_info_counts_stale_versions(self, populated, capsys):
        store = GraphStore(populated / "graphs", version="0ld0ld0ld0ld0ld0")
        system = CounterSystem(ks16.model(), {"n": 4, "t": 1, "f": 1})
        system.successor_groups(next(system.initial_configs()))
        assert store.flush(system)
        out = _run(capsys, "cache", "info", "--dir", str(populated))
        assert "graph entries       2" in out
        assert "1 stale" in out
        assert "[stale]" in out

    def test_info_on_missing_dir_is_fine(self, tmp_path, capsys):
        out = _run(capsys, "cache", "info", "--dir", str(tmp_path / "nope"))
        assert "result entries      0" in out

    def test_info_and_prune_survive_non_object_json_entry(self, tmp_path, capsys):
        # A key-shaped entry whose JSON parses to a *list* must read as
        # unversioned (stale), not crash the maintenance commands.
        (tmp_path / ("b2" * 16 + ".json")).write_text("[1, 2]")
        out = _run(capsys, "cache", "info", "--dir", str(tmp_path))
        assert "1 stale" in out
        out = _run(capsys, "cache", "prune", "--dir", str(tmp_path))
        assert "removed 1 of 1" in out

    def test_info_survives_corrupt_graph_header(self, tmp_path, capsys):
        # A .graph whose header line parses to non-dict JSON (or is
        # binary garbage) must be counted but never described/crash.
        (tmp_path / "evil-aaaa-bbbb-cccc.graph").write_bytes(
            b"repro-graph 1 [1, 2]\njunk")
        (tmp_path / "junk-aaaa-bbbb-cccc.graph").write_bytes(b"\x00\x01")
        out = _run(capsys, "cache", "info", "--dir", str(tmp_path))
        assert "graph entries       2" in out


class TestPrune:
    def test_prune_drops_orphans_and_stale_only(self, populated, capsys):
        # Add one stale-version entry of each kind.
        stale_result = populated / ("0" * 32 + ".json")
        stale_result.write_text(json.dumps(
            {"task_id": "t", "protocol": "p", "engine": "explicit",
             "_code_version": "0ld"}))
        out = _run(capsys, "cache", "prune", "--dir", str(populated))
        assert "removed 3 of 3" in out
        # Fresh entries survive and still serve hits.
        clear_shared_caches()
        report = api.sweep(protocols=("cc85a",), targets=("validity",),
                           cache_dir=str(populated),
                           graph_store=str(populated / "graphs"))
        assert report.cache_hits == 1

    def test_prune_drops_unversioned_results(self, tmp_path, capsys):
        (tmp_path / ("a1" * 16 + ".json")).write_text('{"task_id": "t"}')
        out = _run(capsys, "cache", "prune", "--dir", str(tmp_path))
        assert "removed 1 of 1" in out

    def test_non_cache_json_is_never_touched(self, tmp_path, capsys):
        # A saved sweep report (or any other JSON) living in the cache
        # root is not a cache entry: info must not count it, and
        # prune/clear must not delete it.
        report = tmp_path / "report.json"
        report.write_text('{"results": []}')
        out = _run(capsys, "cache", "info", "--dir", str(tmp_path))
        assert "result entries      0" in out
        _run(capsys, "cache", "prune", "--dir", str(tmp_path))
        _run(capsys, "cache", "clear", "--dir", str(tmp_path))
        assert report.exists()

    def test_prune_removes_a_leftover_journal(self, populated, capsys):
        # Older releases kept a sweep journal beside the result cache;
        # nothing reads it any more, so it is prune fodder.
        journal = populated / "sweep-journal.jsonl"
        journal.write_text('{"magic": "repro-sweep-journal"}\n')
        out = _run(capsys, "cache", "info", "--dir", str(populated))
        assert "old sweep journals  1" in out
        out = _run(capsys, "cache", "prune", "--dir", str(populated))
        assert "removed 3 of 3" in out  # two temp orphans + the journal
        assert not journal.exists()
        assert len(list(populated.glob("*.json"))) == 1

    def test_prune_spares_a_live_writers_temp_file(self, tmp_path, capsys):
        live = tmp_path / "entry.json.77.cc.tmp"
        live.write_text("{")  # fresh mtime: a writer mid-flush
        out = _run(capsys, "cache", "prune", "--dir", str(tmp_path))
        assert "removed 0 of 0" in out
        assert live.exists()


class TestClear:
    def test_clear_removes_everything(self, populated, capsys):
        _run(capsys, "cache", "clear", "--dir", str(populated))
        leftovers = [p for p in populated.rglob("*") if p.is_file()]
        assert leftovers == []

    def test_clear_removes_a_leftover_journal(self, tmp_path, capsys):
        (tmp_path / "sweep-journal.jsonl").write_text("{}\n")
        out = _run(capsys, "cache", "clear", "--dir", str(tmp_path))
        assert "removed 1 of 1" in out
        assert list(tmp_path.iterdir()) == []


class TestServiceFiles:
    """The daemon's state breadcrumb under maintenance."""

    @pytest.fixture
    def with_service_state(self, tmp_path):
        from repro.service.registry import write_state_file

        write_state_file(tmp_path, {"pid": 4242, "host": "127.0.0.1",
                                    "port": 8123, "processes": 2})
        return tmp_path

    def test_info_reports_service_files_and_daemon(self, with_service_state,
                                                   capsys):
        out = _run(capsys, "cache", "info", "--dir", str(with_service_state))
        assert "service files       1" in out
        assert ("daemon pid 4242 on 127.0.0.1:8123 (2 workers) — "
                "running or unclean shutdown") in out

    def test_prune_spares_service_files(self, with_service_state, capsys):
        # A running daemon's breadcrumb is never prune fodder.
        _run(capsys, "cache", "prune", "--dir", str(with_service_state))
        leftovers = {p.name for p in with_service_state.iterdir()}
        assert leftovers == {"service-state.json"}

    def test_clear_removes_service_files(self, with_service_state, capsys):
        out = _run(capsys, "cache", "clear", "--dir", str(with_service_state))
        assert "removed 1 of 1" in out
        assert [p for p in with_service_state.rglob("*") if p.is_file()] == []


def _snapshot_store(root, flushes=3):
    """A graph key under ``root`` whose snapshot was replaced ``flushes`` times."""
    store = GraphStore(root, version=api.code_version())
    system = CounterSystem(ks16.model(), {"n": 4, "t": 1, "f": 1})
    frontier = list(system.initial_configs())
    seen = set(frontier)
    for step in range(flushes):
        limit = 40 * (step + 1)
        while frontier and len(seen) < limit:
            config = frontier.pop()
            system.rule_options(config)
            for group in system.successor_groups(config):
                for _action, successor in group:
                    if successor not in seen:
                        seen.add(successor)
                        frontier.append(successor)
        assert store.flush(system)
    return store, store.key_for(system)


class TestGraphMaintenance:
    """The maintenance commands over a directory graph store."""

    def test_info_describes_the_one_snapshot(self, tmp_path, capsys):
        _snapshot_store(tmp_path / "graphs")
        out = _run(capsys, "cache", "info", "--dir", str(tmp_path))
        assert "graph entries       1" in out
        assert "0 stale" in out
        assert out.count("  graph ") == 1
        assert out.count(": ks16 {") == 1

    def test_info_counts_the_whole_grown_graph(self, tmp_path, capsys):
        # The snapshot's header line counts the graph of its last flush.
        fresh, key = _snapshot_store(tmp_path / "graphs", flushes=3)
        cold = CounterSystem(ks16.model(), {"n": 4, "t": 1, "f": 1},
                             program=ProtocolProgram(ks16.model()))
        assert fresh.load_into(cold)
        out = _run(capsys, "cache", "info", "--dir", str(tmp_path))
        assert f"{len(cold._succ_cache)} successor entries)" in out

    def test_info_marks_delta_segments_of_older_stores_stale(self, tmp_path,
                                                             capsys):
        fresh, key = _snapshot_store(tmp_path / "graphs", flushes=1)
        delta = tmp_path / "graphs" / f"{key}~4242_000000_cafe.graph"
        delta.write_bytes(fresh.backend.canonical_path(key).read_bytes())
        out = _run(capsys, "cache", "info", "--dir", str(tmp_path))
        assert "graph entries       2" in out
        assert "1 stale" in out
        assert out.count("[stale]") == 1

    def test_compact_is_not_an_action(self, tmp_path, capsys):
        # A snapshot store has nothing to merge.
        with pytest.raises(SystemExit) as exit_info:
            main(["harness", "cache", "compact", "--dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'compact'" in capsys.readouterr().err

    def test_maintenance_on_a_missing_store_does_not_create_it(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "nope"
        for action in ("info", "prune", "clear"):
            _run(capsys, "cache", action, "--dir", str(missing))
        assert not missing.exists()

    def test_prune_drops_stale_graph_versions_only(self, tmp_path, capsys):
        fresh, key = _snapshot_store(tmp_path / "graphs", flushes=2)
        stale = GraphStore(tmp_path / "graphs", version="0ld0ld0ld0ld0ld0")
        system = CounterSystem(ks16.model(), {"n": 4, "t": 1, "f": 1})
        system.successor_groups(next(system.initial_configs()))
        assert stale.flush(system)
        out = _run(capsys, "cache", "prune", "--dir", str(tmp_path))
        assert "removed 1 of 1" in out
        assert fresh.backend.read_segments(key) and all(
            GraphStore.entry_version(path) == api.code_version()
            for path in sorted((tmp_path / "graphs").glob("*.graph")))
        cold = CounterSystem(ks16.model(), {"n": 4, "t": 1, "f": 1},
                             program=ProtocolProgram(ks16.model()))
        assert GraphStore(tmp_path / "graphs",
                          version=api.code_version()).load_into(cold)

    def test_prune_drops_delta_segments_of_older_stores(self, tmp_path,
                                                        capsys):
        # Older stores also wrote ``<key>~<writer>.graph`` delta files;
        # their version component never matches, so prune removes them.
        fresh, key = _snapshot_store(tmp_path / "graphs", flushes=1)
        delta = tmp_path / "graphs" / f"{key}~4242_000000_cafe.graph"
        delta.write_bytes(fresh.backend.canonical_path(key).read_bytes())
        out = _run(capsys, "cache", "prune", "--dir", str(tmp_path))
        assert "removed 1 of 1" in out
        assert sorted((tmp_path / "graphs").iterdir()) == [
            fresh.backend.canonical_path(key)]

    def test_clear_leaves_only_foreign_files(self, tmp_path, capsys):
        _snapshot_store(tmp_path / "graphs")
        notes = tmp_path / "graphs" / "README.txt"
        notes.write_text("the store directory also holds notes")
        assert len(sorted((tmp_path / "graphs").glob("*.graph"))) == 1
        out = _run(capsys, "cache", "clear", "--dir", str(tmp_path))
        assert "removed 1 of 1" in out
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [notes]

    def test_a_file_in_place_of_the_root_is_left_alone(self, tmp_path,
                                                       capsys):
        # ``--dir`` naming a regular file scans as empty: no traceback,
        # and the file is never deleted or replaced by a directory.
        root = tmp_path / "graphs.db"
        root.write_bytes(b"SQLite format 3\x00")
        for action in ("info", "prune", "clear"):
            _run(capsys, "cache", action, "--dir", str(root))
        assert root.read_bytes() == b"SQLite format 3\x00"


class TestStoreDir:
    def test_sqlite_spec_is_refused_without_creating_it(
        self, tmp_path, monkeypatch, capsys
    ):
        # The store is a directory: an old ``sqlite:`` spec must fail
        # loudly, never become a directory named after it.
        monkeypatch.chdir(tmp_path)
        for action in ("info", "prune", "clear"):
            with pytest.raises(SystemExit) as exit_info:
                main(["harness", "cache", action, "--dir", "sqlite:graphs.db"])
            assert exit_info.value.code == 2
            assert "pass a directory path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSwallowedErrorsLog:
    """The maintenance commands swallow per-file ``OSError``s and log
    each as one ``store.scan_error`` warning; ``FileNotFoundError`` (a
    concurrent writer or pruner got there first) stays silent."""

    ORPHAN = "leftover.json.1.aa.tmp"

    @pytest.fixture
    def root(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="repro.counter.store")
        orphan = tmp_path / self.ORPHAN
        orphan.write_bytes(b"{")
        _age(orphan)
        return tmp_path

    def _fail(self, monkeypatch, method, exc_type):
        real = getattr(Path, method)

        def failing(path, *args, **kwargs):
            if path.name == self.ORPHAN:
                raise exc_type(13, "injected")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, method, failing)

    @staticmethod
    def _records(caplog):
        return [r for r in caplog.records
                if getattr(r, "event", None) == "store.scan_error"]

    @pytest.mark.parametrize("action, method, op", [
        ("info", "stat", "cache_size"),
        ("prune", "stat", "cache_stat"),
        ("prune", "unlink", "cache_unlink"),
    ])
    def test_each_handler_logs_once(self, root, caplog, capsys, monkeypatch,
                                    action, method, op):
        self._fail(monkeypatch, method, PermissionError)
        out = _run(capsys, "cache", action, "--dir", str(root))
        [record] = self._records(caplog)
        assert record.op == op
        assert record.path.endswith(self.ORPHAN)
        assert "PermissionError" in record.error
        assert self.ORPHAN in os.listdir(root)
        if action == "prune":
            assert "removed 0 of" in out

    @pytest.mark.parametrize("action, method", [
        ("info", "stat"), ("prune", "stat"), ("prune", "unlink"),
    ])
    def test_vanished_files_stay_silent(self, root, caplog, capsys,
                                        monkeypatch, action, method):
        self._fail(monkeypatch, method, FileNotFoundError)
        _run(capsys, "cache", action, "--dir", str(root))
        assert self._records(caplog) == []
