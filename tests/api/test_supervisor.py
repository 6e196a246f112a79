"""SupervisedPool / RetryPolicy: crash recovery, timeouts, retries.

These tests drive the pool with tiny picklable payloads and
module-level targets (pool workers are separate processes), injecting
deterministic failures through :mod:`repro.testing.faults` — the same
plumbing the sweep-level chaos suite uses, minus the engines.
"""

import os
import time

from repro.supervisor import PoolOutcome, RetryPolicy, SupervisedPool
from repro.testing import FaultPlan

#: Fast backoff so retry tests don't sleep their wall-clock away.
FAST = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


# -- module-level pool targets (must be importable in workers) ---------
def _double(x):
    return x + x


def _pid_tag(x):
    return (os.getpid(), x + x)


def _slow_double(payload):
    value, seconds = payload
    time.sleep(seconds)
    return value + value


def _raise(x):
    raise ValueError(f"boom {x}")


def _unpicklable(x):
    return lambda: x  # cannot cross the result pipe


def _flaky(payload):
    # First call wins the marker and reports transient; retries succeed.
    value, marker = payload
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        return "transient"
    except FileExistsError:
        return f"ok-{value}"


def _always_transient(x):
    return "transient"


def _broken_init():
    raise RuntimeError("worker startup is poisoned")


def _fallback(payload, exc):
    return f"fallback:{type(exc).__name__}"


def _failure(payload, kind, detail):
    return f"failed:{kind}"


def _is_transient(result):
    return result == "transient"


class TestRetryPolicy:
    def test_of_coerces_none_int_and_policy(self):
        assert RetryPolicy.of(None) == RetryPolicy()
        assert RetryPolicy.of(5).max_attempts == 5
        assert RetryPolicy.of(0).max_attempts == 1  # at least one attempt
        policy = RetryPolicy(max_attempts=7)
        assert RetryPolicy.of(policy) is policy

    def test_delay_is_deterministic_per_seed_key_attempt(self):
        policy = RetryPolicy()
        assert policy.delay(2, "mmr14") == policy.delay(2, "mmr14")
        # Different keys / attempts / seeds decorrelate the jitter.
        assert policy.delay(2, "mmr14") != policy.delay(2, "rabin83")
        assert policy.delay(1, "mmr14") != policy.delay(2, "mmr14")
        assert policy.delay(2, "mmr14") != \
            RetryPolicy(seed=1).delay(2, "mmr14")

    def test_delay_stays_within_jitter_band(self):
        policy = RetryPolicy(base_delay=0.05, backoff=2.0, max_delay=2.0,
                             jitter=0.5)
        for attempt in range(1, 12):
            raw = min(2.0, 0.05 * 2.0 ** (attempt - 1))
            delay = policy.delay(attempt, "key")
            assert raw * 0.5 <= delay <= raw * 1.5
        # The cap bounds even huge attempt numbers.
        assert policy.delay(50, "key") <= 2.0 * 1.5

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=1.0,
                             jitter=0.0)
        assert [policy.delay(a) for a in (1, 2, 3, 4, 5)] == \
            [0.1, 0.2, 0.4, 0.8, 1.0]


class TestSupervisedPool:
    def test_happy_path_one_result_per_item(self):
        pool = SupervisedPool(2, _double)
        outcome = pool.run([[(i, i)] for i in range(5)])
        assert outcome.results == {i: i + i for i in range(5)}
        assert all(outcome.attempts[i] == 1 for i in range(5))
        assert outcome.worker_restarts == 0
        assert outcome.retries == 0

    def test_empty_jobs_complete_immediately(self):
        outcome = SupervisedPool(2, _double).run([])
        assert outcome == PoolOutcome()

    def test_shard_job_streams_each_item(self):
        seen = []
        pool = SupervisedPool(1, _double)
        outcome = pool.run(
            [[(0, "a"), (1, "b"), (2, "c")]],
            on_result=lambda index, result, attempts, timed_out:
                seen.append((index, result, attempts, timed_out)),
        )
        assert outcome.results == {0: "aa", 1: "bb", 2: "cc"}
        assert sorted(seen) == [(0, "aa", 1, False), (1, "bb", 1, False),
                                (2, "cc", 1, False)]

    def test_raising_target_degrades_via_fallback(self):
        pool = SupervisedPool(1, _raise, fallback=_fallback)
        outcome = pool.run([[(0, "x")]])
        assert outcome.results == {0: "fallback:ValueError"}

    def test_unpicklable_result_degrades_instead_of_killing_the_run(self):
        pool = SupervisedPool(1, _unpicklable, fallback=_fallback)
        outcome = pool.run([[(0, "x"), (1, "y")]])
        assert set(outcome.results) == {0, 1}
        assert all(str(r).startswith("fallback:")
                   for r in outcome.results.values())

    def test_killed_worker_is_respawned_and_item_retried(self, tmp_path):
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("victim", nth=1)
        pool = SupervisedPool(2, _double, retry=FAST, failure=_failure,
                              fault_plan=plan)
        outcome = pool.run([[(0, "victim")], [(1, "other")]])
        assert outcome.results == {0: "victimvictim", 1: "otherother"}
        assert outcome.attempts[0] == 2
        assert outcome.worker_restarts >= 1

    def test_mid_shard_kill_salvages_completed_items(self, tmp_path):
        # The worker dies picking up the shard's second item; the first
        # item's already-reported result must not be recomputed.
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("second", nth=1)
        pool = SupervisedPool(1, _double, retry=FAST, failure=_failure,
                              fault_plan=plan)
        outcome = pool.run([[(0, "first"), (1, "second"), (2, "third")]])
        assert outcome.results == {0: "firstfirst", 1: "secondsecond",
                                   2: "thirdthird"}
        assert outcome.attempts[0] == 1  # salvaged, not replayed
        assert outcome.attempts[1] == 2
        assert outcome.worker_restarts == 1

    def test_hung_item_is_killed_by_supervisor_timeout(self, tmp_path):
        plan = FaultPlan(scratch=str(tmp_path)).hang_task(
            "victim", seconds=60.0, times=1)
        pool = SupervisedPool(2, _double, task_timeout=0.5, retry=FAST,
                              failure=_failure, fault_plan=plan)
        start = time.monotonic()
        outcome = pool.run([[(0, "victim")], [(1, "other")]])
        assert time.monotonic() - start < 30.0  # never waits the 60s out
        assert outcome.results == {0: "victimvictim", 1: "otherother"}
        assert outcome.timed_out.get(0) is True
        assert outcome.attempts[0] == 2
        assert outcome.worker_restarts >= 1

    def test_exhausted_attempts_record_failure_result(self, tmp_path):
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("victim", times=0)
        pool = SupervisedPool(
            2, _double, retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            failure=_failure, fault_plan=plan)
        outcome = pool.run([[(0, "victim")], [(1, "other")]])
        assert outcome.results == {0: "failed:WorkerCrash",
                                   1: "otherother"}
        assert outcome.attempts[0] == 2

    def test_transient_result_is_retried_until_success(self, tmp_path):
        marker = str(tmp_path / "first-attempt")
        pool = SupervisedPool(1, _flaky, retry=FAST,
                              transient=_is_transient)
        outcome = pool.run([[(0, ("t", marker))]])
        assert outcome.results == {0: "ok-t"}
        assert outcome.attempts[0] == 2
        assert outcome.retries == 1
        assert outcome.worker_restarts == 0  # retry, not respawn

    def test_transient_result_sticks_when_attempts_run_out(self):
        pool = SupervisedPool(1, _always_transient, retry=FAST,
                              transient=_is_transient)
        outcome = pool.run([[(0, "x")]])
        # Attempts exhausted: the transient result itself is recorded.
        assert outcome.results == {0: "transient"}
        assert outcome.attempts[0] == FAST.max_attempts

    def test_broken_initializer_fails_items_instead_of_hanging(self):
        pool = SupervisedPool(
            2, _double, initializer=_broken_init,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            failure=_failure)
        start = time.monotonic()
        outcome = pool.run([[(0, "a")], [(1, "b")]])
        assert time.monotonic() - start < 60.0
        assert set(outcome.results) == {0, 1}
        assert all(r in ("failed:WorkerCrash", "failed:PoolBroken")
                   for r in outcome.results.values())


class TestPersistentPool:
    """start()/close(): one warm fleet serving many run() batches."""

    def test_workers_survive_across_batches(self):
        with SupervisedPool(2, _pid_tag) as pool:
            assert pool.persistent
            first = pool.run([[(i, i)] for i in range(4)])
            second = pool.run([[(i, i)] for i in range(4)])
        pids_first = {pid for pid, _ in first.results.values()}
        pids_second = {pid for pid, _ in second.results.values()}
        assert first.worker_restarts == 0 and second.worker_restarts == 0
        # Same fleet, both batches: no forks in between.
        assert pids_first == pids_second and len(pids_first) == 2
        assert {v for _, v in second.results.values()} == {0, 2, 4, 6}

    def test_start_is_idempotent_and_close_reaps(self):
        pool = SupervisedPool(2, _pid_tag)
        pool.start()
        workers = list(pool._workers)
        pool.start()
        assert pool._workers == workers  # no second fleet
        pool.close()
        assert not pool.persistent
        assert all(not w.process.is_alive() for w in workers)
        pool.close()  # idempotent

    def test_crash_mid_batch_respawns_within_the_fleet(self, tmp_path):
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("victim", nth=1)
        with SupervisedPool(2, _double, retry=FAST, failure=_failure,
                            fault_plan=plan) as pool:
            outcome = pool.run([[(0, "victim")], [(1, "other")]])
            assert outcome.results == {0: "victimvictim", 1: "otherother"}
            assert outcome.worker_restarts >= 1
            # The respawned fleet keeps serving subsequent batches.
            again = pool.run([[(2, "more")]])
            assert again.results == {2: "moremore"}
            assert again.worker_restarts == 0

    def test_lifetime_restarts_count_before_the_retry_lands(self, tmp_path):
        # The daemon's status() reads the pool's lifetime count while a
        # batch may still be settling: a retried item's result must not
        # land before the restart that forced the retry is counted.
        plan = FaultPlan(scratch=str(tmp_path)).kill_task("victim", nth=1)
        seen = {}
        with SupervisedPool(2, _double, retry=FAST, failure=_failure,
                            fault_plan=plan) as pool:
            first = pool.run(
                [[(0, "victim")], [(1, "other")]],
                on_result=lambda index, *_: seen.setdefault(
                    index, pool.worker_restarts),
            )
            assert seen[0] >= 1
            pool.run([[(2, "more")]])
            assert pool.worker_restarts == first.worker_restarts

    def test_stop_returns_early_with_partial_results(self):
        stopped = {"flag": False}
        landed = []

        def on_result(index, result, _attempts, _timed_out):
            landed.append(index)
            stopped["flag"] = True  # stop after the first completion

        with SupervisedPool(2, _slow_double) as pool:
            outcome = pool.run(
                [[(0, ("fast", 0.0))], [(1, ("slow", 30.0))]],
                on_result=on_result,
                stop=lambda: stopped["flag"],
            )
        # The fast item landed; the slow one was abandoned, not awaited.
        assert 0 in outcome.results
        assert 1 not in outcome.results
        assert landed == [0]
