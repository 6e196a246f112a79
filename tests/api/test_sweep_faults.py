"""Chaos suite: sweeps survive kills, hangs, I/O faults — bit-identically.

Every test runs a sweep under a deterministic
:class:`~repro.testing.faults.FaultPlan` and asserts the report is
*bit-identical* (modulo wall-clock fields) to the undisturbed run —
the whole point of the supervised pool: failures cost retries, never
verdicts.  Worker-side faults (kill/hang) are installed through the
pool's initializer; store/cache faults for inline runs are installed
in-process via :func:`repro.testing.faults.install`.
"""

import logging
import sys

import pytest

from repro import api
from repro.counter.system import clear_shared_caches
from repro.protocols import naive_voting
from repro.protocols.registry import by_name
from repro.spec.properties import PropertyLibrary
from repro.testing import FaultPlan, faults
from tests.api.test_sweep import ALL_PROTOCOLS, GOLDEN, stable

#: Protocols with sub-second validity tasks — chaos tests kill and hang
#: these so retries stay cheap.
FAST = ("ks16", "cc85a", "fmr05")

#: Supervisor timeout for chaos sweeps: the slowest validity task
#: (rabin83) takes ~5s, so only injected hangs ever trip this.
TIMEOUT = 15.0

sweep_module = sys.modules["repro.api.sweep"]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    # In-process fault installs must never outlive their test.
    yield
    faults.install(None)


@pytest.fixture(scope="module")
def clean_fast():
    """The undisturbed reference run for the FAST validity sweep."""
    return api.sweep(protocols=FAST, targets=("validity",), processes=1)


def by_protocol(report, protocol):
    return [r for r in report.results if r.protocol == protocol]


class TestWorkerKills:
    def test_killed_worker_is_transparent(self, tmp_path, clean_fast):
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("ks16", nth=1)
        report = api.sweep(protocols=FAST, targets=("validity",),
                           processes=2, task_timeout=TIMEOUT,
                           fault_plan=plan)
        assert stable(report) == stable(clean_fast)
        assert report.worker_restarts >= 1
        (victim,) = by_protocol(report, "ks16")
        assert victim.attempts == 2
        assert all(r.attempts == 1 for r in report.results
                   if r.protocol != "ks16")

    def test_killed_worker_with_graph_store(self, tmp_path, clean_fast):
        spec = str(tmp_path / "graphs")
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("cc85a", nth=1)
        report = api.sweep(protocols=FAST, targets=("validity",),
                           processes=2, task_timeout=TIMEOUT,
                           graph_store=spec, fault_plan=plan)
        assert stable(report) == stable(clean_fast)
        assert report.worker_restarts >= 1

    def test_mid_shard_kill_salvages_completed_tasks(self, tmp_path):
        # cc85a's two targets query one system, so they are one job.
        tasks = [api.VerificationTask(protocol=protocol, targets=(target,))
                 for protocol, target in (("cc85a", "agreement"),
                                          ("cc85a", "validity"),
                                          ("ks16", "validity"))]
        clean = api.sweep(tasks, processes=1)
        # The worker dies picking up cc85a's *second* target: the
        # first one's result is salvaged, only the rest of the job is
        # reassigned.
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("cc85a", nth=2)
        report = api.sweep(tasks, processes=2, task_timeout=TIMEOUT,
                           fault_plan=plan)
        assert stable(report) == stable(clean)
        assert report.worker_restarts >= 1
        first, second = by_protocol(report, "cc85a")
        assert first.attempts == 1  # salvaged, not recomputed
        assert second.attempts == 2


class TestHangsAndRetries:
    def test_hung_task_is_timed_out_and_retried(self, tmp_path, clean_fast):
        plan = FaultPlan(scratch=str(tmp_path)).hang_task(
            "fmr05", seconds=300.0, times=1)
        report = api.sweep(protocols=FAST, targets=("validity",),
                           processes=2, task_timeout=TIMEOUT,
                           fault_plan=plan)
        assert stable(report) == stable(clean_fast)
        (hung,) = by_protocol(report, "fmr05")
        assert hung.timed_out is True
        assert hung.attempts == 2
        assert report.worker_restarts >= 1

    def test_repeated_kills_retry_until_success(self, tmp_path, clean_fast):
        # Two consecutive kills on one task; the default policy's third
        # attempt lands it.
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("ks16", times=2)
        report = api.sweep(protocols=FAST, targets=("validity",),
                           processes=2, task_timeout=TIMEOUT,
                           fault_plan=plan)
        assert stable(report) == stable(clean_fast)
        (victim,) = by_protocol(report, "ks16")
        assert victim.attempts == 3

    def test_exhausted_retries_degrade_to_error_result(self, tmp_path):
        # Every pickup of ks16 dies: attempts run out, the task is
        # recorded as a WorkerCrash error — and the sweep still
        # completes with every other verdict intact.
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("ks16", times=0)
        report = api.sweep(protocols=FAST, targets=("validity",),
                           processes=2, task_timeout=TIMEOUT, retry=2,
                           fault_plan=plan)
        (victim,) = by_protocol(report, "ks16")
        assert victim.verdict == "error"
        assert victim.error.startswith("WorkerCrash")
        assert victim.attempts == 2
        for protocol in ("cc85a", "fmr05"):
            (result,) = by_protocol(report, protocol)
            assert result.verdict == "holds"
        assert report.verdict == "error"


class TestStoreAndCacheFaults:
    """I/O faults at the persistence boundaries (inline: hooks fire here)."""

    def test_cache_read_faults_are_misses_not_crashes(self, tmp_path,
                                                      clean_fast, caplog):
        cache_dir = str(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="repro.api.sweep"):
            first = api.sweep(protocols=FAST, targets=("validity",),
                              cache_dir=cache_dir)
        assert caplog.records == []  # a missing entry is a quiet miss
        faults.install(FaultPlan(scratch=str(tmp_path))
                       .break_io("result_cache.get", times=0))
        with caplog.at_level(logging.WARNING, logger="repro.api.sweep"):
            second = api.sweep(protocols=FAST, targets=("validity",),
                               cache_dir=cache_dir)
        assert second.cache_hits == 0  # every read failed -> recompute
        assert stable(second) == stable(first) == stable(clean_fast)
        # Every swallowed read failure is one structured warning.
        assert [r.event for r in caplog.records] == (
            ["result_cache.get_error"] * len(FAST)
        )
        for record in caplog.records:
            assert len(record.key) == 32
            assert record.error.startswith("OSError(")

    def test_cache_write_faults_cost_entries_not_results(self, tmp_path,
                                                         clean_fast, caplog):
        faults.install(FaultPlan(scratch=str(tmp_path))
                       .break_io("result_cache.put", times=0))
        runner = api.SweepRunner(cache_dir=str(tmp_path / "cache"))
        with caplog.at_level(logging.WARNING, logger="repro.api.sweep"):
            report = runner.run(api.task_matrix(protocols=FAST,
                                                targets=("validity",)))
        assert stable(report) == stable(clean_fast)
        assert runner.cache.put_errors == len(FAST)
        assert [r.event for r in caplog.records] == (
            ["result_cache.put_error"] * len(FAST)
        )
        for record in caplog.records:
            assert len(record.key) == 32
            assert record.error.startswith("OSError(")

    def test_graph_store_io_faults_are_results_neutral(self, tmp_path,
                                                       clean_fast, caplog):
        faults.install(FaultPlan(scratch=str(tmp_path))
                       .break_io("graph_store.flush", times=0)
                       .break_io("graph_store.load", times=0))
        clear_shared_caches()  # cold systems, so every load hook fires
        with caplog.at_level(logging.WARNING, logger="repro.counter.store"):
            report = api.sweep(protocols=FAST, targets=("validity",),
                               graph_store=str(tmp_path / "graphs"))
        assert stable(report) == stable(clean_fast)
        # Every swallowed store failure is one structured warning.
        events = {record.event for record in caplog.records}
        assert events == {"store.flush_error", "store.load_error"}
        for record in caplog.records:
            assert record.key.startswith(FAST)
            assert record.error.startswith("OSError(")

    def test_next_sweep_writes_what_failed_flushes_lost(self, tmp_path,
                                                         clean_fast):
        spec = tmp_path / "graphs"
        faults.install(FaultPlan(scratch=str(tmp_path))
                       .break_io("graph_store.flush", times=0))
        clear_shared_caches()
        first = api.sweep(protocols=FAST, targets=("validity",),
                          graph_store=str(spec))
        faults.install(None)
        assert list(spec.iterdir()) == []
        # The warm in-process systems still hold their graphs; the next
        # sweep's store has no record of them and writes every key.
        second = api.sweep(protocols=FAST, targets=("validity",),
                           graph_store=str(spec))
        assert stable(first) == stable(second) == stable(clean_fast)
        names = sorted(path.name for path in spec.iterdir())
        assert len(names) == len(FAST)
        assert all(name.startswith(FAST) and name.endswith(".graph")
                   for name in names)

    def test_corrupted_segment_is_a_cold_miss(self, tmp_path, clean_fast):
        spec = str(tmp_path / "graphs")
        # First sweep flushes corrupted segments (checksums broken)...
        faults.install(FaultPlan(scratch=str(tmp_path))
                       .corrupt_segment(times=0))
        first = api.sweep(protocols=FAST, targets=("validity",),
                          graph_store=spec)
        faults.install(None)
        # ... which the next sweep must reject on load and recompute.
        second = api.sweep(protocols=FAST, targets=("validity",),
                           graph_store=spec)
        assert stable(first) == stable(second) == stable(clean_fast)

    def test_next_sweep_rewrites_a_corrupted_snapshot(self, tmp_path,
                                                      clean_fast,
                                                      monkeypatch):
        from repro.counter.store import GraphStore

        spec = tmp_path / "graphs"
        loads = []
        load_into = GraphStore.load_into

        def counting_load(store, system):
            loads.append(load_into(store, system))
            return loads[-1]

        monkeypatch.setattr(GraphStore, "load_into", counting_load)

        def sweep():
            clear_shared_caches()  # cold systems, so every key loads
            loads.clear()
            report = api.sweep(protocols=FAST, targets=("validity",),
                               graph_store=str(spec))
            assert stable(report) == stable(clean_fast)
            return {path.name: path.read_bytes() for path in spec.iterdir()}

        faults.install(FaultPlan(scratch=str(tmp_path))
                       .corrupt_segment(times=0))
        corrupted = sweep()
        faults.install(None)
        # The second sweep misses on every corrupted key and rewrites it ...
        rewritten = sweep()
        assert loads and not any(loads)
        assert rewritten.keys() == corrupted.keys()
        assert all(rewritten[name] != corrupted[name] for name in rewritten)
        # ... so the third warms every key from disk and writes nothing.
        assert sweep() == rewritten
        assert loads and all(loads)


class TestRerunFromCache:
    """An interrupted sweep is finished by running it again with the same
    ``cache_dir``: finished registry tasks come back as cache hits, and
    everything the cache refuses to hold runs again."""

    TASKS = dict(protocols=FAST, targets=("validity",))

    def _counting_run_task(self, monkeypatch):
        calls = []
        original = sweep_module.run_task

        def wrapper(task):
            calls.append(task.protocol_name)
            return original(task)

        monkeypatch.setattr(sweep_module, "run_task", wrapper)
        return calls

    def test_rerun_executes_only_the_uncached_task(self, tmp_path,
                                                   monkeypatch, clean_fast):
        cache_dir = tmp_path / "cache"
        first = api.sweep(**self.TASKS, cache_dir=str(cache_dir))
        # Simulate dying before the last task finished: drop its entry.
        last = api.task_matrix(**self.TASKS)[-1]
        key = api.ResultCache(cache_dir).key_for(last)
        (cache_dir / f"{key}.json").unlink()
        calls = self._counting_run_task(monkeypatch)
        rerun = api.sweep(**self.TASKS, cache_dir=str(cache_dir))
        assert calls == [last.protocol_name]
        assert rerun.cache_hits == len(FAST) - 1
        assert [r.cached for r in rerun.results] == [True, True, False]
        assert stable(rerun) == stable(first) == stable(clean_fast)

    def test_interrupted_sweep_leaves_finished_tasks_cached(self, tmp_path,
                                                            monkeypatch,
                                                            clean_fast):
        # Each result is cached the moment it lands, not when the sweep
        # returns: an interrupt mid-sweep keeps what already finished.
        cache_dir = tmp_path / "cache"
        original = sweep_module.run_task

        def dies_on_the_second_task(task):
            if task.protocol_name == FAST[1]:
                raise KeyboardInterrupt
            return original(task)

        monkeypatch.setattr(sweep_module, "run_task", dies_on_the_second_task)
        with pytest.raises(KeyboardInterrupt):
            api.sweep(**self.TASKS, cache_dir=str(cache_dir))
        monkeypatch.setattr(sweep_module, "run_task", original)
        calls = self._counting_run_task(monkeypatch)
        rerun = api.sweep(**self.TASKS, cache_dir=str(cache_dir))
        assert calls == list(FAST[1:])
        assert [r.cached for r in rerun.results] == [True, False, False]
        assert stable(rerun) == stable(clean_fast)

    def test_pooled_rerun_executes_only_uncached_tasks(self, tmp_path,
                                                       clean_fast):
        cache_dir = tmp_path / "cache"
        api.sweep(**self.TASKS, cache_dir=str(cache_dir), processes=2,
                  task_timeout=TIMEOUT)
        cache = api.ResultCache(cache_dir)
        for task in api.task_matrix(**self.TASKS)[1:]:
            (cache_dir / f"{cache.key_for(task)}.json").unlink()
        rerun = api.sweep(**self.TASKS, cache_dir=str(cache_dir),
                          processes=2, task_timeout=TIMEOUT)
        assert rerun.cache_hits == 1
        assert [r.cached for r in rerun.results] == [True, False, False]
        assert stable(rerun) == stable(clean_fast)

    def test_rerun_with_a_changed_task_list_reuses_every_finished_task(
        self, tmp_path, monkeypatch
    ):
        # The cache is keyed per task, not per task list: dropping and
        # reordering tasks still serves each finished one.
        cache_dir = tmp_path / "cache"
        api.sweep(**self.TASKS, cache_dir=str(cache_dir))
        calls = self._counting_run_task(monkeypatch)
        report = api.sweep(protocols=("fmr05", "ks16"), targets=("validity",),
                           cache_dir=str(cache_dir))
        assert calls == []
        assert report.cache_hits == 2
        assert [r.protocol for r in report.results] == ["fmr05", "ks16"]

    def test_max_seconds_trip_reruns(self, tmp_path, monkeypatch):
        # A wall-clock trip depends on load, so the cache refuses it and
        # a re-run tries again instead of pinning its unknown.
        tasks = [api.VerificationTask(protocol="cc85b", targets=("agreement",),
                                      limits=api.Limits(max_seconds=0.0))]
        runner = api.SweepRunner(cache_dir=str(tmp_path), retry=1)
        first = runner.run(tasks)
        assert first.results[0].limit_tripped == "max_seconds"
        calls = self._counting_run_task(monkeypatch)
        second = runner.run(tasks)
        assert calls == ["cc85b"]
        assert second.cache_hits == 0
        assert second.results[0].limit_tripped == "max_seconds"

    @staticmethod
    def _uncacheable(kind):
        if kind == "custom-model":
            return api.VerificationTask(model=naive_voting.model,
                                        valuation={"n": 3, "f": 1},
                                        targets=("agreement",))
        model = by_name("cc85a").model()
        return api.VerificationTask(protocol="cc85a",
                                    queries=(PropertyLibrary(model).inv1(0),))

    @pytest.mark.parametrize("kind", ["custom-model", "ad-hoc-query"])
    def test_task_without_a_cache_key_reruns(self, tmp_path, monkeypatch,
                                             kind):
        # Custom models and ad-hoc queries have no cache key, so nothing
        # of them is stored and a re-run computes them again.
        tasks = [self._uncacheable(kind)]
        first = api.SweepRunner(cache_dir=str(tmp_path)).run(tasks)
        assert first.results[0].verdict in ("holds", "violated")
        assert list(tmp_path.glob("*.json")) == []
        calls = self._counting_run_task(monkeypatch)
        second = api.SweepRunner(cache_dir=str(tmp_path)).run(tasks)
        assert calls == [tasks[0].protocol_name]
        assert second.cache_hits == 0
        assert stable(second) == stable(first)

    def test_error_result_reruns(self, tmp_path, monkeypatch):
        tasks = [
            api.VerificationTask(protocol="ks16", targets=("validity",)),
            api.VerificationTask(protocol="nope", targets=("validity",)),
        ]
        first = api.SweepRunner(cache_dir=str(tmp_path)).run(tasks)
        assert first.results[1].verdict == "error"
        calls = self._counting_run_task(monkeypatch)
        second = api.SweepRunner(cache_dir=str(tmp_path)).run(tasks)
        # The good task is a cache hit; the error was never cached — a
        # re-run exists to finish sweeps, not to pin their failures.
        assert calls == ["nope"]
        assert second.cache_hits == 1
        assert second.results[1].verdict == "error"

    def test_journal_keywords_are_gone(self):
        assert not hasattr(api, "Journal")
        assert not hasattr(api.SweepRunner, "JOURNAL_NAME")
        for keyword in ("journal", "resume"):
            with pytest.raises(TypeError):
                api.SweepRunner(**{keyword: None})


class TestFullBenchmarkChaos:
    def test_chaos_sweep_reproduces_seed_verdicts(self, tmp_path):
        """The acceptance sweep: all 8 protocols under kills + a hang.

        Three workers are killed mid-task and one task hangs past the
        supervisor timeout; the sweep must complete without an
        exception and report verdicts bit-identical to the seed's
        golden file.
        """
        plan = (FaultPlan(scratch=str(tmp_path))
                .kill_task("mmr14", nth=1)
                .kill_task("rabin83", nth=1)
                .kill_task("miller18", nth=1)
                .hang_task("ks16", seconds=300.0, times=1))
        # Double the usual chaos timeout: under a loaded machine the
        # slower protocols must never trip it *naturally* — only the
        # injected hang may (attempts are >= not == for the same
        # reason: an incidental load-induced retry is legitimate).
        report = api.sweep(protocols=ALL_PROTOCOLS, targets=("validity",),
                           processes=4, task_timeout=2 * TIMEOUT,
                           fault_plan=plan)
        assert report.worker_restarts >= 4  # 3 kills + 1 timeout kill
        recovered = {r.protocol: r for r in report.results}
        for protocol in ("mmr14", "rabin83", "miller18", "ks16"):
            assert recovered[protocol].attempts >= 2
        assert recovered["ks16"].timed_out is True
        for result in report.results:
            assert not result.error
            (outcome,) = result.obligations
            got = {
                "queries": [[q.query, q.verdict, q.states_explored]
                            for q in outcome.queries],
                "sides": dict(outcome.side_conditions),
            }
            assert got == GOLDEN[result.protocol]["validity"]
