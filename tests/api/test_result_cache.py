"""ResultCache durability: concurrent writers, disk failures, orphans.

The cache is an optimization layered under :class:`repro.api.sweep.
SweepRunner`; nothing it does on a bad day — two pool workers racing on
one key, a full disk, a crashed writer's leftovers — may corrupt an
entry or abort a sweep.
"""

import json
import logging
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro import api
from repro.api.sweep import ResultCache


def _result(tag: str = "x") -> api.TaskResult:
    return api.TaskResult(
        task_id=f"task-{tag}", protocol="cc85a", engine="explicit",
        valuation={"n": 4, "t": 1, "f": 1},
        obligations=(
            api.ObligationOutcome(
                target="validity",
                queries=(api.QueryOutcome(query="q", verdict="holds",
                                          states_explored=7),),
            ),
        ),
    )


def _hammer(args):
    """Worker: write the same key many times; the blob must stay whole."""
    root, key, rounds, tag = args
    cache = ResultCache(Path(root), version="v-test")
    for index in range(rounds):
        cache.put(key, _result(f"{tag}-{index}"))
    return cache.put_errors


class TestConcurrentWriters:
    def test_parallel_same_key_puts_never_yield_unparsable_file(self, tmp_path):
        key = "deadbeef" * 4
        workers = 4
        rounds = 25
        with multiprocessing.Pool(workers) as pool:
            async_result = pool.map_async(
                _hammer,
                [(str(tmp_path), key, rounds, tag) for tag in range(workers)],
            )
            # Read concurrently with the writers: the atomic rename
            # must never expose a torn entry (get returning None here
            # would mean an unparsable blob was published).
            reader = ResultCache(tmp_path, version="v-test")
            seen = 0
            while not async_result.ready():
                cached = reader.get(key)
                if cached is not None:
                    seen += 1
                    assert cached.protocol == "cc85a"
            put_errors = async_result.get()
        assert sum(put_errors) == 0
        final = reader.get(key)
        assert final is not None and final.cached
        # Unique per-writer temp names: no orphan survives a clean run.
        assert list(tmp_path.glob("*.tmp")) == []
        assert seen > 0

    def test_unique_temp_names_for_same_key(self, tmp_path):
        from repro.counter.store import unique_temp_path

        path = tmp_path / "abc.json"
        names = {unique_temp_path(path).name for _ in range(32)}
        assert len(names) == 32
        assert all(name.startswith("abc.json.") and name.endswith(".tmp")
                   for name in names)
        assert all(f".{os.getpid()}." in name for name in names)


class TestBestEffortPut:
    def test_disk_failure_is_swallowed_and_recorded(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(
            Path, "write_text",
            lambda self, *a, **k: (_ for _ in ()).throw(OSError(28, "no space")),
        )
        cache.put("a" * 32, _result())  # must not raise
        assert cache.put_errors == 1
        assert isinstance(cache.last_error, OSError)
        assert cache.get("a" * 32) is None
        assert list(tmp_path.glob("*.tmp")) == []

    def test_disk_failure_mid_sweep_keeps_the_sweep_alive(self, tmp_path, monkeypatch):
        runner = api.SweepRunner(cache_dir=str(tmp_path))
        monkeypatch.setattr(
            Path, "write_text",
            lambda self, *a, **k: (_ for _ in ()).throw(OSError(28, "no space")),
        )
        report = runner.run(
            [api.VerificationTask(protocol="cc85a", targets=("validity",))]
        )
        assert report.results[0].verdict == "holds"
        assert runner.cache.put_errors == 1
        # Nothing was cached, so a second sweep recomputes (no crash).
        assert runner.run(
            [api.VerificationTask(protocol="cc85a", targets=("validity",))]
        ).cache_hits == 0

    def test_temp_file_cleaned_up_on_rename_failure(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(
            Path, "replace",
            lambda self, target: (_ for _ in ()).throw(OSError(13, "denied")),
        )
        cache.put("b" * 32, _result())
        assert cache.put_errors == 1
        assert list(tmp_path.glob("*.tmp")) == []


class TestOrphanPruning:
    def test_stale_temp_files_pruned_on_init(self, tmp_path):
        stale = tmp_path / "old.json.123.aaaa.tmp"
        stale.write_text("{")
        ancient = time.time() - 3600
        os.utime(stale, (ancient, ancient))
        fresh = tmp_path / "new.json.456.bbbb.tmp"
        fresh.write_text("{")
        ResultCache(tmp_path)
        assert not stale.exists(), "crashed-writer orphan must be pruned"
        assert fresh.exists(), "a live writer's temp file must survive"

    def test_entries_survive_init_pruning(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        cache.put("c" * 32, _result())
        ResultCache(tmp_path, version="v")
        assert cache.get("c" * 32) is not None


class TestVersionStamp:
    def test_blob_embeds_code_version_and_still_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path, version="stamp-1")
        key = "d" * 32
        cache.put(key, _result())
        (path,) = tmp_path.glob("*.json")
        blob = json.loads(path.read_text())
        assert blob["_code_version"] == "stamp-1"
        assert ResultCache.entry_version(path) == "stamp-1"
        cached = cache.get(key)
        assert cached is not None
        assert cached.as_cached() == _result().as_cached()

    def test_entry_version_of_garbage_is_none(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert ResultCache.entry_version(path) is None

    @pytest.mark.parametrize("make", ["garbage", "directory"])
    def test_entry_version_failure_logs_one_warning(self, tmp_path, caplog,
                                                    make):
        path = tmp_path / "entry.json"
        if make == "garbage":
            path.write_text("{not json")
        else:
            path.mkdir()  # reading a directory raises IsADirectoryError
        with caplog.at_level(logging.WARNING, logger="repro.api.sweep"):
            assert ResultCache.entry_version(path) is None
        [record] = caplog.records
        assert record.event == "result_cache.entry_error"
        assert record.key == str(path)
        assert record.error.startswith(
            "JSONDecodeError(" if make == "garbage" else "IsADirectoryError(")

    def test_entry_version_of_a_vanished_file_is_silent(self, tmp_path,
                                                        caplog):
        with caplog.at_level(logging.WARNING, logger="repro.api.sweep"):
            assert ResultCache.entry_version(tmp_path / "gone.json") is None
        assert caplog.records == []


class TestCorruptEntries:
    @pytest.mark.parametrize("blob", ["", "{", '{"task_id": 1}', "[]"])
    def test_bad_entry_is_a_miss_not_a_crash(self, tmp_path, blob):
        cache = ResultCache(tmp_path)
        key = "e" * 32
        (tmp_path / f"{key}.json").write_text(blob)
        assert cache.get(key) is None
