"""Parallel sweep execution: supervised, deterministic, cached.

:class:`SweepRunner` fans a task list out across a *supervised* worker
pool (:class:`~repro.supervisor.SupervisedPool`) and returns one
:class:`~repro.api.report.RunReport` whose results are in *input task
order* regardless of completion order — a sweep run with
``processes=4`` is bit-identical to the same sweep run with
``processes=1`` (per-task wall-clock timings aside).

Supervision makes the sweep crash-resilient: a pool worker that is
OOM-killed, segfaults, or is SIGKILLed mid-task is detected through its
process sentinel, respawned, and its in-flight tasks are reassigned; a
task that hangs past ``task_timeout`` is killed from the supervisor
side (the engine's own ``max_seconds`` budget is cooperative — it
cannot interrupt a wedged native call) and handled the same way.  Both
failure classes — plus *transient* completed results (``max_seconds``
limit trips, ``OSError``-family engine errors) — are retried under a
:class:`~repro.supervisor.RetryPolicy` with exponential backoff
and deterministic jitter; when attempts run out the task is recorded
as an error result.  **No worker failure mode raises out of**
:meth:`SweepRunner.run`.

One rule shapes the dispatch (:func:`system_jobs`): each pool job
holds the pending tasks of one *bound system* — one
:attr:`~repro.api.task.VerificationTask.shard_key`, i.e. protocol,
resolved valuation and coin.  A protocol's targets are queries over
that one counter system, so the worker binds it once and answers the
job's other tasks warm, while distinct systems (another valuation,
another coin) still spread across the pool.  Jobs keep
first-appearance order and tasks keep input order inside their job;
results are reassembled into input task order, so reports are
bit-identical at any pool size under the deterministic budgets — a
``max_seconds`` trip is load-dependent (warm caches may push a
borderline task under the wire), which is the same reason such
results are never cached.

An optional on-disk cache keyed by ``(protocol, valuation, targets,
engine, limits, code-version)`` lets repeated sweeps (cross-validation
over many valuations, CI re-runs) skip work that cannot have changed:
the code-version component is a digest of every ``repro`` source file,
so any engine change invalidates the whole cache.  The cache is also
the sweep's restart log: every cacheable result is published the
moment its task finishes, so an interrupted sweep is finished by
running it again with the same ``cache_dir``.  Finished registry tasks
come back as cache hits; ``max_seconds`` trips, error results and
custom-model or ad-hoc-query tasks (which have no cache key) run
again.  The verification daemon (:mod:`repro.service.server`)
restarts the same way, and builds its persistent pool with
:func:`task_pool`, the recipe the sweep's one-shot pool uses.

Orthogonally, ``graph_store`` enables the persistent *state-graph*
store (:class:`~repro.counter.store.GraphStore`): workers (and inline
runs) warm each task's explored successor graph from storage on
startup and, after every task, replace the graph's one snapshot file
when it grew, so a fresh process replays a previously-expanded sweep
on memoised successors.  The store is one directory that the whole
worker pool reads and writes concurrently.  The result cache skips
whole tasks; the graph store speeds the tasks that still run — notably
tasks whose result is *not* cacheable (custom models, ``max_seconds``
trips) or not yet cached.

For chaos testing, ``fault_plan`` installs a deterministic
:class:`~repro.testing.faults.FaultPlan` in every pool worker (never
in the supervisor): injected kills, hangs, I/O errors and snapshot
corruption exercise exactly the recovery paths above — see
``tests/api/test_sweep_faults.py``.
"""

from __future__ import annotations

import contextlib
import json
import logging
import pickle
import signal
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.engines import engine_for
from repro.api.report import RunReport, TaskResult
from repro.api.task import VerificationTask
from repro.counter.store import (
    activate_graph_store,
    check_graph_store_dir,
    deactivate_graph_store,
    prune_stale_temp_files,
    publish,
)
from repro.counter.system import flush_shared_graphs
from repro.supervisor import RetryPolicy, SupervisedPool
from repro.testing import faults
from repro.version import code_version, seed_code_version, stable_digest

__all__ = [
    "SweepRunner",
    "run_task",
    "system_jobs",
    "task_pool",
    "code_version",
    "ResultCache",
    "RetryPolicy",
]

logger = logging.getLogger(__name__)

#: Error-name prefixes of :attr:`TaskResult.error` treated as transient
#: (retried under the sweep's :class:`RetryPolicy`).  ``WorkerCrash`` /
#: ``SupervisorTimeout`` / ``PoolBroken`` are the supervisor's own
#: failure kinds; the OS-level families cover engine-raised I/O errors
#: (a full disk, a flaky network mount) that a retry can outlive.
#: Semantic failures (``CheckError``: unknown protocol, bad valuation)
#: are deterministic and retrying them would only triple the pain.
TRANSIENT_ERROR_PREFIXES = (
    "OSError",
    "IOError",
    "TimeoutError",
    "ConnectionError",
    "ConnectionResetError",
    "BrokenPipeError",
    "WorkerCrash",
    "SupervisorTimeout",
)


@contextlib.contextmanager
def _graceful_termination():
    """Turn SIGTERM into a raised ``SystemExit`` for the sweep's scope.

    SIGTERM's default action kills the process on the spot: pool
    workers — daemonic children whose cleanup runs from an ``atexit``
    hook that a hard signal death skips — are orphaned mid-task, and
    the graph store never flushes.  Raising instead lets the ordinary
    unwind do its job: the pool's ``finally`` reaps every worker and
    :meth:`SweepRunner.run`'s ``finally`` flushes the grown graphs.
    Every finished task is already in the result cache, so a re-run
    with the same ``cache_dir`` picks up exactly there.  Exit status
    follows the shell convention (128 + signum = 143).

    Only the main thread may set signal handlers; anywhere else (a
    sweep run from a daemon's dispatcher thread, say) this is a no-op
    — those hosts own their shutdown story.  SIGINT already raises
    ``KeyboardInterrupt`` by default and needs no help.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise_exit(signum, _frame):
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, _raise_exit)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _init_worker(version: str, graph_store: Optional[str]) -> None:
    """Pool-worker initializer: seed the digest, open the graph store.

    Workers inherit the parent's source digest instead of re-hashing
    the tree, and — when the sweep persists state graphs — install the
    process-wide store over the ``graph_store`` directory so
    :func:`~repro.counter.system.shared_system` warms fresh systems
    from storage.
    """
    seed_code_version(version)
    if graph_store:
        activate_graph_store(graph_store, version=version)


def run_task(task: VerificationTask) -> TaskResult:
    """Execute one task, capturing engine failures as error results.

    This is the pool worker target: it must stay a module-level
    function so it pickles, and it must not raise — one broken task in
    a sweep yields an ``error`` :class:`TaskResult`, not a dead pool.
    When a graph store is active the task's grown state graphs are
    flushed before returning (best-effort, and a no-op otherwise), so
    even a bounded shared-system cache cannot evict them unpersisted.
    """
    started = time.perf_counter()
    try:
        result = engine_for(task.engine).run(task)
    except Exception as exc:  # noqa: BLE001 — worker boundary
        return _error_result(task, f"{type(exc).__name__}: {exc}",
                             time.perf_counter() - started)
    finally:
        flush_shared_graphs()
    try:
        # The result must survive the trip back through the pool pipe.
        # Tasks are pre-checked for picklability in _execute; results
        # (which may embed counterexample payloads from a custom model)
        # can only be checked here — degrade to an error result instead
        # of killing the worker's send loop.
        pickle.dumps(result)
    except Exception as exc:  # noqa: BLE001 — anything unpicklable
        return _error_result(
            task,
            f"UnpicklableResult: {type(exc).__name__}: {exc}",
            time.perf_counter() - started,
        )
    return result


def _error_result(task: VerificationTask, error: str,
                  elapsed: float = 0.0) -> TaskResult:
    """The degraded :class:`TaskResult` every failure path converges on."""
    return TaskResult(
        task_id=task.task_id,
        protocol=task.protocol_name,
        engine=task.engine,
        valuation=task.resolved_valuation(strict=False),
        time_seconds=elapsed,
        error=error,
    )


def _fallback_result(task: VerificationTask, exc: BaseException) -> TaskResult:
    """Worker-boundary degradation for the supervised pool."""
    return _error_result(task, f"{type(exc).__name__}: {exc}")


def _failure_result(task: VerificationTask, kind: str,
                    detail: str) -> TaskResult:
    """Supervisor-side terminal result when retry attempts run out."""
    return _error_result(task, f"{kind}: {detail}")


def _transient_result(result: TaskResult) -> bool:
    """Completed results worth retrying under the sweep's policy.

    The transient set is exactly the complement of what
    :meth:`SweepRunner._cacheable` accepts, split by *why*: error
    results whose error class names an I/O or supervision failure
    (retrying may outlive it), and verdicts that tripped the
    load-dependent ``max_seconds`` budget (a retry on a warm, idle
    worker often finishes).  Deterministic failures — semantic
    ``CheckError``\\ s, ``max_states`` / ``max_nodes`` trips — are
    real answers and are not retried.
    """
    if result.error:
        return result.error.startswith(TRANSIENT_ERROR_PREFIXES)
    return any(
        "max_seconds" in outcome.limits_tripped
        for outcome in result.obligations
    )


def task_pool(
    processes: int,
    graph_store: Optional[str] = None,
    task_timeout: Optional[float] = None,
    retry=None,
    fault_plan=None,
) -> SupervisedPool:
    """A :class:`~repro.supervisor.SupervisedPool` that runs tasks.

    The one recipe the sweep's one-shot pool and the daemon's
    persistent pool share: workers run :func:`run_task`, start from
    this process's code version and ``graph_store``, and turn crashes,
    timeouts and exhausted retries into error :class:`TaskResult`\\ s.
    Transient results are retried under ``retry``.  :func:`run_task`
    flushes a task's grown state graphs before its result is sent, so
    workers need no epilogue between jobs.
    """
    return SupervisedPool(
        processes,
        run_task,
        initializer=_init_worker,
        initargs=(code_version(), graph_store),
        task_timeout=task_timeout,
        retry=retry,
        fallback=_fallback_result,
        failure=_failure_result,
        transient=_transient_result,
        fault_plan=fault_plan,
    )


def system_jobs(
    items: Iterable[Tuple[int, VerificationTask]],
) -> List[List[Tuple[int, VerificationTask]]]:
    """Group ``(index, task)`` items into one pool job per bound system.

    The key is :attr:`~repro.api.task.VerificationTask.shard_key`.
    Jobs keep first-appearance order and items keep input order inside
    their job; the supervisor still retries and times out every item
    on its own.  The sweep and the daemon both dispatch through this.
    """
    jobs: Dict[str, List[Tuple[int, VerificationTask]]] = {}
    for index, task in items:
        jobs.setdefault(task.shard_key, []).append((index, task))
    return list(jobs.values())


def _warn(event: str, key: str, exc: BaseException) -> None:
    """Log one swallowed result-cache failure (the sweep carries on)."""
    logger.warning(
        "result cache failure (%s) on %s: %r", event, key, exc,
        extra={"event": event, "key": key, "error": repr(exc)},
    )


class ResultCache:
    """A directory of ``<key>.json`` files, one cached TaskResult each.

    Durability contract (shared with :class:`~repro.counter.store.
    GraphStore`): writes land in a unique per-writer temp file before
    an atomic rename, so two pool workers finishing the same uncached
    task can interleave freely without ever publishing a torn blob;
    :meth:`put` is best-effort — a full disk or permission failure is
    recorded on the cache and the sweep keeps its computed result —
    mirroring :meth:`get`'s miss-not-crash contract; and temp-file
    orphans from crashed writers are pruned on init.  Each blob embeds
    the code version it was written under (``_code_version``), which
    the ``harness cache`` maintenance CLI uses to tell stale entries
    apart (the hashed file name alone cannot).
    """

    def __init__(self, root: Path, version: Optional[str] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.version = version if version is not None else code_version()
        self.put_errors = 0
        self.last_error: Optional[BaseException] = None
        prune_stale_temp_files(self.root)

    def key_for(self, task: VerificationTask) -> Optional[str]:
        payload = task.cache_payload()
        if payload is None:
            return None
        payload["code_version"] = self.version
        return stable_digest(json.dumps(payload, sort_keys=True), 32)

    def get(self, key: str) -> Optional[TaskResult]:
        path = self.root / f"{key}.json"
        try:
            # Chaos hook inside the guard: an injected OSError takes
            # the same miss-not-crash path a real read failure would.
            faults.fire("result_cache.get", key)
            if not path.exists():
                return None
            return TaskResult.from_dict(json.loads(path.read_text())).as_cached()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Unreadable/stale/hand-edited entry: a logged cache miss,
            # not a dead sweep — the task simply recomputes.
            _warn("result_cache.get_error", key, exc)
            return None

    def put(self, key: str, result: TaskResult) -> None:
        """Publish one entry atomically; failures are recorded, not raised.

        Caching is an optimization: a disk-full or permission
        ``OSError`` mid-sweep must cost one cache entry, not the sweep.
        :func:`~repro.counter.store.publish` cleans up the half-written
        temp file on failure.
        """
        blob = json.dumps({**result.to_dict(), "_code_version": self.version},
                          indent=1) + "\n"
        try:
            faults.fire("result_cache.put", key)
            publish(self.root / f"{key}.json", blob)
        except OSError as exc:
            self.put_errors += 1
            self.last_error = exc
            _warn("result_cache.put_error", key, exc)

    @staticmethod
    def entry_version(path: Path) -> Optional[str]:
        """The code version an entry was written under, or None.

        Never raises: an unreadable file, non-JSON, or JSON that is not
        an object (a hand-edited ``[1, 2]``) all answer None, matching
        the cache's own miss-not-crash contract — the maintenance CLI
        walks arbitrary directories with this.  A read or parse failure
        logs one ``result_cache.entry_error`` warning, except a file
        that vanished first (a concurrent prune), which stays silent.
        """
        try:
            blob = json.loads(path.read_text())
        except FileNotFoundError:
            return None  # a concurrent prune got there first: no entry
        except (OSError, ValueError) as exc:
            _warn("result_cache.entry_error", str(path), exc)
            return None
        if not isinstance(blob, dict):
            return None
        version = blob.get("_code_version")
        return version if isinstance(version, str) else None


class SweepRunner:
    """Run a task matrix, in parallel, with stable result ordering.

    Args:
        processes: pool size; ``1`` (the default) runs inline in this
            process — no pool, no pickling, easiest to debug (the
            in-process shared caches make inline runs warm by
            construction).  Above 1, each pool job is one bound
            system's tasks (:func:`system_jobs`).
        cache_dir: directory for the on-disk result cache; ``None``
            disables caching.  Only registry tasks with named targets
            are cacheable (custom models / ad-hoc queries have no
            stable identity) — others always run.  Re-running an
            interrupted sweep with the same ``cache_dir`` finishes it.
        graph_store: directory of the persistent state-graph store
            (:class:`~repro.counter.store.GraphStore`); ``None``
            disables it.  Workers and inline
            runs warm each task's explored graph from storage and
            rewrite its snapshot when it grew, so a sweep re-run
            in a fresh process replays on memoised successors —
            results-neutral (verdicts and ``states_explored`` stay
            bit-identical to cold runs).
        task_timeout: supervisor-enforced wall-clock seconds per task;
            a task past the deadline gets its worker killed and is
            retried / recorded per the retry policy.  ``None`` (the
            default) disables supervision timeouts — the engine's own
            cooperative ``max_seconds`` budget still applies.
        retry: a :class:`~repro.supervisor.RetryPolicy`, a bare
            ``int`` (max attempts), or ``None`` for the default policy
            (3 attempts, exponential backoff with deterministic
            jitter).  Applies to worker crashes, supervisor timeouts
            and transient completed results (see
            :func:`_transient_result`).  ``RetryPolicy(max_attempts=1)``
            disables retrying.
        fault_plan: a :class:`~repro.testing.faults.FaultPlan` to
            install in pool workers (chaos testing; never installed in
            this process).
    """

    def __init__(
        self,
        processes: int = 1,
        cache_dir: Optional[str] = None,
        cache_version: Optional[str] = None,
        graph_store: Optional[str] = None,
        task_timeout: Optional[float] = None,
        retry=None,
        fault_plan=None,
    ):
        self.processes = max(1, int(processes))
        if graph_store:
            check_graph_store_dir(graph_store)
        self.graph_store = str(graph_store) if graph_store else None
        self.cache = (
            ResultCache(Path(cache_dir), version=cache_version)
            if cache_dir
            else None
        )
        self.task_timeout = float(task_timeout) if task_timeout else None
        self.retry = RetryPolicy.of(retry)
        self.fault_plan = fault_plan

    def run(self, tasks: Sequence[VerificationTask]) -> RunReport:
        # Inline tasks (processes=1, unpicklable models, runtime
        # engines) execute in *this* process, so the graph store must
        # be active here too, not only in pool workers.  The previous
        # installation is restored afterwards so a sweep cannot leak
        # its store into unrelated later runs.  The store is always
        # keyed by the real code_version() — pool workers are seeded
        # with exactly that, so inline and pooled tasks address the
        # same entries even under a custom result-cache version.
        with _graceful_termination():
            if self.graph_store:
                previous = activate_graph_store(self.graph_store)
                try:
                    return self._run(tasks)
                finally:
                    flush_shared_graphs()
                    deactivate_graph_store(previous)
            return self._run(tasks)

    def _run(self, tasks: Sequence[VerificationTask]) -> RunReport:
        started = time.perf_counter()
        tasks = list(tasks)
        version = self.cache.version if self.cache else code_version()
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        keys: Dict[int, str] = {}
        cache_hits = 0

        def complete(index: int, result: TaskResult) -> None:
            """Land one computed result, caching it as it lands."""
            results[index] = result
            if index in keys and self._cacheable(result):
                self.cache.put(keys[index], result)

        pending: List[int] = []
        for index, task in enumerate(tasks):
            key = self.cache.key_for(task) if self.cache else None
            if key is not None:
                keys[index] = key
                results[index] = self.cache.get(key)
                if results[index] is not None:
                    cache_hits += 1
                    continue
            pending.append(index)

        worker_restarts = 0
        if pending:
            worker_restarts = self._execute(tasks, pending, complete)

        return RunReport(
            results=tuple(results),
            processes=self.processes,
            code_version=version,
            time_seconds=time.perf_counter() - started,
            cache_hits=cache_hits,
            worker_restarts=worker_restarts,
        )

    @staticmethod
    def _cacheable(result: TaskResult) -> bool:
        """Cache verdicts, not transient failures.

        ``max_states`` / ``max_nodes`` trips are deterministic for a
        given code version, so their ``unknown`` is a real (cacheable)
        answer; a ``max_seconds`` trip — on any query or a skipped side
        condition, even when another limit tripped first — depends on
        machine load and must be retried, and errors are never cached.
        """
        if result.error:
            return False
        return all(
            "max_seconds" not in outcome.limits_tripped
            for outcome in result.obligations
        )

    @staticmethod
    def _decorate(result: TaskResult, attempts: int,
                  timed_out: bool) -> TaskResult:
        """Attach supervision metadata without disturbing clean results.

        Fields are only replaced when non-default, so an undisturbed
        task's result stays byte-identical across pool sizes and to
        pre-supervision golden payloads.
        """
        if attempts > 1 and result.attempts != attempts:
            result = replace(result, attempts=attempts)
        if timed_out and not result.timed_out:
            result = replace(result, timed_out=True)
        return result

    def _run_inline(self, task: VerificationTask) -> TaskResult:
        """Execute one task here, honoring the same retry policy.

        Inline tasks can't crash or be timed out from outside (there is
        no supervisor above this process), but transient *results* —
        ``max_seconds`` trips, I/O-flavored engine errors — retry
        exactly as they would in a pool worker, keeping inline and
        pooled sweeps behaviorally aligned.
        """
        attempts = 0
        while True:
            attempts += 1
            result = run_task(task)
            if (attempts >= self.retry.max_attempts
                    or not _transient_result(result)):
                return self._decorate(result, attempts, timed_out=False)
            time.sleep(self.retry.delay(attempts, task.task_id))

    def _execute(
        self,
        tasks: List[VerificationTask],
        pending: List[int],
        on_result: Callable[[int, TaskResult], None],
    ) -> int:
        """Run the pending tasks; report each via ``on_result``.

        Returns the number of pool-worker restarts (0 for inline runs).
        """
        if self.processes == 1 or len(pending) == 1:
            # Inline: the process-wide program/system caches make this
            # warm by construction.
            for index in pending:
                on_result(index, self._run_inline(tasks[index]))
            return 0
        # Custom-model tasks built from closures may not pickle; they
        # run inline instead (one bad task must never kill the sweep).
        poolable: List[int] = []
        inline: List[int] = []
        for index in pending:
            try:
                pickle.dumps(tasks[index])
            except Exception:  # noqa: BLE001 — anything unpicklable
                inline.append(index)
            else:
                poolable.append(index)
        worker_restarts = 0
        if len(poolable) > 1:
            worker_restarts = self._execute_pool(tasks, poolable, on_result)
        else:
            inline = sorted(inline + poolable)
        for index in inline:
            on_result(index, self._run_inline(tasks[index]))
        return worker_restarts

    def _execute_pool(
        self,
        tasks: List[VerificationTask],
        poolable: List[int],
        on_result: Callable[[int, TaskResult], None],
    ) -> int:
        """Dispatch to the supervised pool, one job per bound system."""
        jobs = system_jobs((index, tasks[index]) for index in poolable)
        pool = task_pool(
            min(self.processes, len(jobs)),
            graph_store=self.graph_store,
            task_timeout=self.task_timeout,
            retry=self.retry,
            fault_plan=self.fault_plan,
        )
        outcome = pool.run(
            jobs,
            on_result=lambda index, result, attempts, timed_out: on_result(
                index, self._decorate(result, attempts, timed_out)
            ),
        )
        return outcome.worker_restarts
