"""SweepRunner: determinism across pool sizes, caching, golden sweep."""

import ast
import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import api

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "checker" / "data" / "seed_verdicts.json")
    .read_text()
)

ALL_PROTOCOLS = tuple(GOLDEN)


def stable(report: api.RunReport) -> list:
    """The report minus wall-clock timings and cache flags."""
    out = []
    for result in report.results:
        out.append({
            "task_id": result.task_id,
            "verdict": result.verdict,
            "error": result.error,
            "obligations": [
                {
                    "target": o.target,
                    "queries": [
                        [q.query, q.verdict, q.states_explored,
                         q.limit_tripped,
                         q.counterexample.to_dict() if q.counterexample else None]
                        for q in o.queries
                    ],
                    "sides": dict(o.side_conditions),
                }
                for o in result.obligations
            ],
        })
    return out


class TestDeterminism:
    def test_processes_1_vs_4_bit_identical(self):
        """The 8-protocol validity sweep is identical across pool sizes."""
        serial = api.sweep(protocols=ALL_PROTOCOLS, targets=("validity",),
                           processes=1)
        parallel = api.sweep(protocols=ALL_PROTOCOLS, targets=("validity",),
                             processes=4)
        assert stable(serial) == stable(parallel)
        # ... and both match the seed's golden verdicts.
        for result in parallel.results:
            (outcome,) = result.obligations
            got = {
                "queries": [[q.query, q.verdict, q.states_explored]
                            for q in outcome.queries],
                "sides": dict(outcome.side_conditions),
            }
            assert got == GOLDEN[result.protocol]["validity"]

    def test_results_keep_task_order(self):
        report = api.sweep(protocols=("ks16", "cc85a"), targets=("validity",),
                           processes=2)
        assert [r.protocol for r in report.results] == ["ks16", "cc85a"]

    def test_error_task_does_not_kill_the_sweep(self):
        tasks = [
            api.VerificationTask(protocol="cc85a", targets=("validity",)),
            api.VerificationTask(protocol="nope", targets=("validity",)),
        ]
        report = api.SweepRunner(processes=2).run(tasks)
        assert report.results[0].verdict == "holds"
        assert report.results[1].verdict == "error"
        assert "nope" in report.results[1].error
        assert report.verdict == "error"


class TestSystemJobs:
    """One pool job per bound system: protocol, valuation and coin."""

    MATRIX = dict(
        protocols=("cc85a", "ks16"),
        valuations=({"n": 4, "t": 1, "f": 1}, {"n": 5, "t": 1, "f": 1}),
        targets=("validity",),
    )

    @staticmethod
    def _tasks():
        """2 targets x 2 valuations x 2 coins, target-major.

        Each system's two tasks are four positions apart, so grouping
        has to gather them rather than find them adjacent.
        """
        return [
            api.VerificationTask(protocol="cc85a", valuation=valuation,
                                 targets=(target,), coin=coin)
            for target in ("agreement", "validity")
            for coin in (None, "biased:1/4")
            for valuation in ({"n": 4, "t": 1, "f": 1},
                              {"n": 5, "t": 1, "f": 1})
        ]

    def test_pool_gets_one_job_per_system_in_first_appearance_order(
            self, monkeypatch):
        from repro.supervisor import SupervisedPool

        seen = []
        real = SupervisedPool.run

        def spy(pool, jobs, *args, **kwargs):
            seen.append([[index for index, _task in job] for job in jobs])
            return real(pool, jobs, *args, **kwargs)

        monkeypatch.setattr(SupervisedPool, "run", spy)
        tasks = self._tasks()
        report = api.SweepRunner(processes=2).run(tasks)
        assert seen == [[[0, 4], [1, 5], [2, 6], [3, 7]]]
        assert [r.task_id for r in report.results] == \
            [t.task_id for t in tasks]
        assert report.verdict == "holds"

    def test_bit_identical_at_1_2_and_4_processes(self):
        tasks = self._tasks()
        reports = [api.SweepRunner(processes=processes).run(tasks)
                   for processes in (1, 2, 4)]
        stables = [stable(report) for report in reports]
        assert all(s == stables[0] for s in stables[1:])

    def test_shard_key_is_the_bound_system(self):
        tasks = api.task_matrix(**self.MATRIX, coins=(None, "biased:1/4"),
                                engines=("explicit", "parameterized"))
        assert [t.shard_key for t in tasks][:5] == [
            "cc85a[f=1,n=4,t=1]",
            "cc85a[*]",
            "cc85a[f=1,n=5,t=1]",
            "cc85a[f=1,n=4,t=1;coin=biased:1/4]",
            "cc85a[*;coin=biased:1/4]",
        ]
        for task in tasks:
            assert task.task_id.startswith(task.shard_key + "/")
        # Another target of the same system shares the key.
        assert (api.VerificationTask(protocol="cc85a",
                                     targets=("agreement",)).shard_key
                == tasks[0].shard_key)

    def test_pooled_sweep_uses_cache(self, tmp_path):
        kwargs = dict(**self.MATRIX, cache_dir=str(tmp_path), processes=2)
        first = api.sweep(**kwargs)
        assert first.cache_hits == 0
        second = api.sweep(**kwargs)
        assert second.cache_hits == 4
        assert stable(first) == stable(second)

    def test_error_task_does_not_kill_its_job(self):
        # All three cc85a tasks share one system, hence one job; the
        # unknown engine fails only its own task.
        tasks = [
            api.VerificationTask(protocol="cc85a", targets=("validity",)),
            api.VerificationTask(protocol="cc85a", targets=("validity",),
                                 engine="nope"),
            api.VerificationTask(protocol="cc85a", targets=("agreement",)),
            api.VerificationTask(protocol="ks16", targets=("validity",)),
        ]
        assert len({t.shard_key for t in tasks[:3]}) == 1
        report = api.SweepRunner(processes=2).run(tasks)
        assert [r.verdict for r in report.results] == \
            ["holds", "error", "holds", "holds"]
        assert "unknown engine" in report.results[1].error


class TestCache:
    def test_second_sweep_is_served_from_cache(self, tmp_path):
        kwargs = dict(protocols=("cc85a", "ks16"), targets=("validity",),
                      cache_dir=str(tmp_path))
        first = api.sweep(**kwargs)
        assert first.cache_hits == 0
        second = api.sweep(**kwargs)
        assert second.cache_hits == 2
        assert all(r.cached for r in second.results)
        assert stable(first) == stable(second)

    def test_cache_key_separates_engines_and_limits(self, tmp_path):
        runner = api.SweepRunner(cache_dir=str(tmp_path))
        base = api.VerificationTask(protocol="cc85a", targets=("validity",))
        keys = {
            runner.cache.key_for(base),
            runner.cache.key_for(
                api.VerificationTask(protocol="cc85a", targets=("validity",),
                                     engine="parameterized")
            ),
            runner.cache.key_for(
                api.VerificationTask(protocol="cc85a", targets=("validity",),
                                     limits=api.Limits(max_states=7))
            ),
            runner.cache.key_for(
                api.VerificationTask(protocol="cc85a", targets=("validity",),
                                     valuation={"n": 7, "t": 2, "f": 2})
            ),
        }
        assert len(keys) == 4

    def test_code_version_seed_roundtrip(self):
        import importlib

        from repro.version import seed_code_version

        # repro.api re-exports a sweep() *function*; fetch the module.
        sweep_module = importlib.import_module("repro.api.sweep")

        original = sweep_module.code_version()
        try:
            seed_code_version("feedface00000000")
            assert sweep_module.code_version() == "feedface00000000"
        finally:
            seed_code_version(original)
        assert sweep_module.code_version() == original

    def test_code_version_invalidates(self, tmp_path):
        report = api.SweepRunner(cache_dir=str(tmp_path)).run(
            [api.VerificationTask(protocol="cc85a", targets=("validity",))]
        )
        assert report.cache_hits == 0
        stale = api.SweepRunner(cache_dir=str(tmp_path),
                                cache_version="other-version").run(
            [api.VerificationTask(protocol="cc85a", targets=("validity",))]
        )
        assert stale.cache_hits == 0

    def test_wall_clock_trips_are_not_cached(self, tmp_path):
        # A max_seconds unknown is load-dependent; it must be retried,
        # not replayed from the cache forever.
        kwargs = dict(protocols=("cc85b",), targets=("agreement",),
                      limits=api.Limits(max_seconds=0.0),
                      cache_dir=str(tmp_path))
        first = api.sweep(**kwargs)
        assert first.results[0].limit_tripped == "max_seconds"
        second = api.sweep(**kwargs)
        assert second.cache_hits == 0
        # Deterministic limits (max_states) stay cacheable.
        kwargs = dict(protocols=("cc85b",), targets=("agreement",),
                      limits=api.Limits(max_states=100),
                      cache_dir=str(tmp_path))
        api.sweep(**kwargs)
        assert api.sweep(**kwargs).cache_hits == 1

    def test_skipped_side_conditions_are_not_cacheable(self):
        # Queries may finish in budget while the side conditions get cut
        # off — still a load-dependent result, never cached.  Another
        # limit tripping first must not mask the max_seconds skip.
        result = api.TaskResult(
            task_id="t", protocol="p", engine="explicit",
            obligations=(
                api.ObligationOutcome(
                    target="agreement",
                    queries=(api.QueryOutcome(query="q", verdict="unknown",
                                              limit_tripped="max_states"),),
                    skipped_side_conditions={"fair_termination": "max_seconds"},
                ),
            ),
        )
        assert not api.SweepRunner._cacheable(result)
        deterministic = api.TaskResult(
            task_id="t", protocol="p", engine="explicit",
            obligations=(
                api.ObligationOutcome(
                    target="agreement",
                    queries=(api.QueryOutcome(query="q", verdict="unknown",
                                              limit_tripped="max_states"),),
                    side_conditions={"fair_termination": True},
                ),
            ),
        )
        assert api.SweepRunner._cacheable(deterministic)

    def test_unpicklable_task_runs_inline_in_parallel_sweep(self):
        from repro.protocols import cc85

        tasks = [
            api.VerificationTask(protocol="ks16", targets=("validity",)),
            api.VerificationTask(model=lambda: cc85.model_a(),
                                 valuation={"n": 4, "t": 1, "f": 1},
                                 targets=("validity",)),
            api.VerificationTask(protocol="cc85a", targets=("validity",)),
        ]
        report = api.SweepRunner(processes=2).run(tasks)
        assert [r.verdict for r in report.results] == ["holds"] * 3
        assert report.results[1].protocol.endswith("-custom")

    def test_custom_model_tasks_are_not_cached(self, tmp_path):
        from repro.protocols import cc85

        runner = api.SweepRunner(cache_dir=str(tmp_path))
        task = api.VerificationTask(model=cc85.model_a,
                                    valuation={"n": 4, "t": 1, "f": 1},
                                    targets=("validity",))
        assert runner.cache.key_for(task) is None
        report = runner.run([task, task])
        assert report.cache_hits == 0
        assert all(not r.cached for r in report.results)



class TestTaskPool:
    """``task_pool``: the one pool recipe the sweep and the daemon share."""

    def test_workers_answer_like_the_inline_run_and_crashes_become_errors(
            self, tmp_path):
        from repro.api.sweep import task_pool
        from repro.testing import FaultPlan

        tasks = [api.VerificationTask(protocol="ks16", targets=("validity",)),
                 api.VerificationTask(protocol="cc85a", targets=("validity",))]
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("cc85a", times=0)
        outcome = task_pool(2, retry=2, fault_plan=plan).run(
            [[(0, tasks[0])], [(1, tasks[1])]])
        inline = api.SweepRunner().run(tasks[:1])
        assert stable(SimpleNamespace(results=[outcome.results[0]])) == \
            stable(inline)
        crashed = outcome.results[1]
        assert crashed.verdict == "error"
        assert crashed.error.startswith("WorkerCrash")
        assert outcome.attempts[1] == 2

    def test_sweep_and_daemon_both_build_their_pool_with_it(self,
                                                           monkeypatch):
        from repro.service import server

        # ``repro.api.sweep`` the name is the sweep() function; fetch the
        # module itself.
        sweep_module = importlib.import_module("repro.api.sweep")
        calls = []
        real = sweep_module.task_pool

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "task_pool", spy)
        monkeypatch.setattr(server, "task_pool", spy)
        server.VerificationService(processes=3, task_timeout=30.0, retry=2)
        api.SweepRunner(processes=2, task_timeout=30.0, retry=2).run(
            [api.VerificationTask(protocol=name, targets=("validity",))
             for name in ("ks16", "cc85a")])
        knobs = dict(graph_store=None, task_timeout=30.0, fault_plan=None)
        assert calls == [
            ((3,), dict(knobs, retry=2)),
            ((2,), dict(knobs, retry=api.RetryPolicy(max_attempts=2))),
        ]

    def test_daemon_imports_no_private_sweep_helper(self):
        from repro.service import server

        tree = ast.parse(Path(server.__file__).read_text())
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.api.sweep"
            for alias in node.names
        }
        assert {"task_pool", "system_jobs"} <= names
        assert not [name for name in names if name.startswith("_")]

class TestGraphStore:
    """The persistent state-graph store behind the sweep runner."""

    KWARGS = dict(protocols=("cc85a", "ks16"), targets=("validity",))

    def test_second_sweep_is_warm_from_disk_and_identical(self, tmp_path):
        from repro.counter.store import active_graph_store
        from repro.counter.system import clear_shared_caches

        clear_shared_caches()
        first = api.sweep(**self.KWARGS, graph_store=str(tmp_path))
        entries = sorted(tmp_path.glob("*.graph"))
        assert entries, "cold sweep must persist its explored graphs"
        # A fresh process is emulated by dropping every in-process
        # cache; the second sweep must warm itself purely from disk.
        clear_shared_caches()
        second = api.sweep(**self.KWARGS, graph_store=str(tmp_path))
        assert stable(first) == stable(second)
        # The store deactivates after each sweep (no leakage).
        assert active_graph_store() is None

    def test_store_composes_with_result_cache(self, tmp_path):
        from repro.counter.system import clear_shared_caches

        kwargs = dict(**self.KWARGS, cache_dir=str(tmp_path / "results"),
                      graph_store=str(tmp_path / "graphs"))
        first = api.sweep(**kwargs)
        clear_shared_caches()
        second = api.sweep(**kwargs)
        assert second.cache_hits == len(second.results)
        assert stable(first) == stable(second)

    POOLED = dict(protocols=("cc85a", "ks16"),
                  valuations=({"n": 4, "t": 1, "f": 1},
                              {"n": 5, "t": 1, "f": 1}),
                  targets=("validity",), processes=2)

    def test_parallel_sweep_persists_and_replays(self, tmp_path):
        from repro.counter.system import clear_shared_caches

        kwargs = dict(**self.POOLED, graph_store=str(tmp_path))
        first = api.sweep(**kwargs)
        # 2 protocols x 2 valuations -> 4 per-valuation graph entries,
        # flushed by the pool workers (not this process).
        assert len(sorted(tmp_path.glob("*.graph"))) == 4
        clear_shared_caches()
        second = api.sweep(**kwargs)
        assert stable(first) == stable(second)

    def test_snapshot_is_on_disk_when_its_result_lands(self, tmp_path,
                                                      monkeypatch):
        # A worker flushes a task's graph before it sends the result,
        # so no per-job epilogue is needed: by the time the k-th result
        # reaches the sweep, k snapshots (one per system) are written.
        from repro.supervisor import SupervisedPool

        on_disk = []
        real = SupervisedPool.run

        def spy(pool, jobs, on_result=None, stop=None):
            def landed(index, *rest):
                on_disk.append(len(list(tmp_path.glob("*.graph"))))
                on_result(index, *rest)

            return real(pool, jobs, on_result=landed, stop=stop)

        monkeypatch.setattr(SupervisedPool, "run", spy)
        api.sweep(**self.POOLED, graph_store=str(tmp_path))
        assert len(on_disk) == 4
        assert all(count >= k for k, count in enumerate(on_disk, start=1))

    def test_sqlite_spec_is_refused(self, tmp_path, monkeypatch):
        # The store is a directory: an old ``sqlite:`` spec must fail
        # loudly, never become a directory named after it.
        from repro.errors import ValidationError

        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match="pass a directory path"):
            api.SweepRunner(processes=2, graph_store="sqlite:graphs.db")
        assert list(tmp_path.iterdir()) == []


class TestTaskMatrix:
    def test_matrix_order_is_protocol_major(self):
        tasks = api.task_matrix(protocols=("mmr14", "aby22"),
                                engines=("explicit", "parameterized"),
                                targets=("validity",))
        ids = [t.task_id for t in tasks]
        assert ids == [
            "mmr14[f=1,n=4,t=1]/validity@explicit",
            "mmr14[*]/validity@parameterized",
            "aby22[f=1,n=4,t=1]/validity@explicit",
            "aby22[*]/validity@parameterized",
        ]

    def test_parameterized_tasks_not_duplicated_per_valuation(self):
        # The schema checker covers all valuations; fanning it out per
        # valuation would rerun identical work under identical task ids.
        tasks = api.task_matrix(
            protocols=("cc85a",),
            valuations=({"n": 4, "t": 1, "f": 1}, {"n": 7, "t": 2, "f": 2}),
            engines=("explicit", "parameterized"),
            targets=("validity",),
        )
        ids = [t.task_id for t in tasks]
        assert ids == [
            "cc85a[f=1,n=4,t=1]/validity@explicit",
            "cc85a[*]/validity@parameterized",
            "cc85a[f=2,n=7,t=2]/validity@explicit",
        ]

    def test_default_matrix_covers_registry(self):
        tasks = api.task_matrix()
        assert len(tasks) == 8
        assert {t.protocol for t in tasks} == set(ALL_PROTOCOLS)


def _assert_matches_golden(report: api.RunReport) -> None:
    for result in report.results:
        assert not result.error
        for outcome in result.obligations:
            got = {
                "queries": [[q.query, q.verdict, q.states_explored]
                            for q in outcome.queries],
                "sides": dict(outcome.side_conditions),
            }
            assert got == GOLDEN[result.protocol][outcome.target]


@pytest.mark.slow_equivalence
class TestGoldenSweep:
    def test_full_4_process_sweep_reproduces_seed_verdicts(self):
        """Acceptance: all 8 protocols × all 3 targets at 4 processes."""
        report = api.sweep(processes=4)
        assert len(report.results) == 8
        _assert_matches_golden(report)
        restored = api.RunReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert restored == report

    def test_warm_from_disk_full_sweep_reproduces_seed_verdicts(
        self, tmp_path
    ):
        """Acceptance: the persistent graph store is results-neutral.

        All 8 registry protocols, all 3 targets: a cold sweep
        populates the store, every in-process
        cache is dropped (a fresh process as far as the engine can
        tell), and the warm-from-storage re-run must reproduce
        ``seed_verdicts.json`` bit-identically — verdicts *and*
        ``states_explored``.  Each graph key is one snapshot file.
        """
        from repro.counter.system import clear_shared_caches

        spec = tmp_path / "graphs"
        clear_shared_caches()
        cold = api.sweep(processes=4, graph_store=str(spec))
        _assert_matches_golden(cold)
        names = sorted(path.name for path in spec.iterdir())
        assert names, "cold sweep persisted nothing"
        assert all(name.endswith(".graph") and "~" not in name
                   for name in names)
        clear_shared_caches()
        warm = api.sweep(processes=4, graph_store=str(spec))
        assert len(warm.results) == 8
        _assert_matches_golden(warm)
        assert stable(cold) == stable(warm)
        assert sorted(path.name for path in spec.iterdir()) == names


@pytest.mark.slow_equivalence
class TestMultiValuationSweep:
    """Acceptance: 8 protocols × ≥3 valuations at 2 pool sizes.

    Every protocol contributes its seed (small) valuation plus two
    scaled ones (``n+1``, ``n+2``); the scaled tasks run the validity
    bundle under a deterministic ``max_states`` cap so the matrix stays
    tractable while still forcing every worker through cross-valuation
    program rebinding.  Both pool sizes must agree bit-for-bit, and the
    seed-valuation slice must reproduce the golden validity verdicts.
    """

    def _tasks(self):
        from repro.protocols.registry import benchmark

        tasks = []
        for entry in benchmark():
            tasks.append(api.VerificationTask(
                protocol=entry.name, targets=("validity",)
            ))
            for delta in (1, 2):
                valuation = dict(entry.small_valuation)
                valuation["n"] += delta
                tasks.append(api.VerificationTask(
                    protocol=entry.name, valuation=valuation,
                    targets=("validity",),
                    limits=api.Limits(max_states=30_000),
                ))
        return tasks

    def test_three_valuations_identical_across_pools(self):
        tasks = self._tasks()
        reports = [api.SweepRunner(processes=processes).run(tasks)
                   for processes in (1, 4)]
        assert stable(reports[0]) == stable(reports[1])
        # The seed-valuation slice reproduces the golden verdicts.
        from repro.protocols.registry import by_name

        for result in reports[0].results:
            small = by_name(result.protocol).small_valuation
            if result.valuation != small:
                continue
            (outcome,) = result.obligations
            got = {
                "queries": [[q.query, q.verdict, q.states_explored]
                            for q in outcome.queries],
                "sides": dict(outcome.side_conditions),
            }
            assert got == GOLDEN[result.protocol]["validity"]
