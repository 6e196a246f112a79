"""Supervised worker pool: timeouts, crash recovery, bounded retries.

``multiprocessing.Pool`` is the wrong substrate for a long-running
sweep fleet: a blocking ``pool.map`` raises (killing the whole sweep)
when one worker is OOM-killed or segfaulted, and a hung task stalls the
run forever — the engine's ``max_seconds`` limit is cooperative, so
nothing outside the worker enforces wall clock.  This module replaces
it with a small *supervised* pool built directly on
``multiprocessing.Process`` + pipes:

* each worker runs a simple recv/execute/send loop over a private
  duplex :class:`~multiprocessing.connection.Connection`; the
  supervisor multiplexes every worker's pipe *and* process sentinel
  through :func:`multiprocessing.connection.wait`, so worker death is
  an observable event, not a hang;
* a *job* is an ordered list of ``(index, payload)`` items (for the
  sweep, every task of one bound system); workers report each item's
  result as it completes, so the supervisor always knows exactly which
  items of an in-flight job are still unfinished, and the report of a
  job's last item frees its worker for the next job;
* a per-item wall-clock deadline (``task_timeout``) is enforced from
  the supervisor side: a worker that blows it is SIGKILLed, a
  replacement is forked, and the job's unfinished items are
  reassigned;
* worker death (crash, OOM-kill, fault injection) is handled the same
  way: the dead worker's unfinished items are retried on a fresh
  worker under the :class:`RetryPolicy`, or — attempts exhausted —
  recorded as failure results built by the caller's ``failure``
  factory.  **No failure mode raises out of**
  :meth:`SupervisedPool.run`; the pool always completes with one
  result per item;
* *completed* results the caller classifies as transient (via the
  ``transient`` predicate — e.g. ``max_seconds`` limit trips) are also
  retried under the same policy, with exponential backoff **plus
  deterministic jitter** so a fleet of retrying workers never thunders
  back in lockstep.

The pool is deliberately generic — payloads, results, and the three
policy callbacks (``fallback``, ``failure``, ``transient``) are the
caller's — so :mod:`repro.api.sweep` stays the only module that knows
what a :class:`~repro.api.report.TaskResult` is.  It is also a leaf:
it imports neither :mod:`repro.api` nor numpy or scipy, so a pooled
simulation fleet (:func:`repro.sim.fleet.run_fleet`) forks its workers
from a parent that has loaded only the simulator.  The sweep runner,
the verification service and the fleet all import it from here.

Two lifecycles share the same run loop:

* **one-shot** (the sweep runner): :meth:`SupervisedPool.run` spawns
  workers, executes the jobs, and reaps everything before returning;
* **persistent** (the verification service): :meth:`SupervisedPool.
  start` spawns the worker fleet once, every subsequent ``run`` call
  reuses it — compiled programs, interned state and warm graph-store
  caches survive across batches — and :meth:`SupervisedPool.close`
  reaps the fleet at daemon shutdown.  A persistent ``run`` may also
  be interrupted through its ``stop`` callable (the daemon's SIGTERM
  path): already-reported results are drained and returned, unfinished
  items are simply absent from the outcome, and the pool must then be
  ``close``\\ d.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import random
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = ["RetryPolicy", "PoolOutcome", "SupervisedPool"]

logger = logging.getLogger(__name__)

#: Idle poll ceiling: the loop is event-driven (pipe readiness, process
#: sentinels), so this only bounds how late a backoff-delayed retry job
#: can be promoted.
_POLL_SECONDS = 0.1

#: A worker that dies *without* any job assigned died in its own
#: startup path (initializer crash, import failure) — retrying cannot
#: help.  After this many consecutive idle deaths the pool declares
#: itself broken and fails the remaining items instead of fork-looping.
_MAX_IDLE_DEATHS = 5


#: Backoff before retry ``attempt`` is ``BASE_DELAY * BACKOFF**(attempt-1)``
#: seconds, capped at ``MAX_DELAY`` and spread by ``±JITTER`` (a
#: fraction of the delay) with a generator seeded by ``JITTER_SEED``.
BASE_DELAY = 0.05
BACKOFF = 2.0
MAX_DELAY = 2.0
JITTER = 0.5
JITTER_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    One policy covers every transient failure class of a sweep: worker
    crashes and supervisor timeouts (the task never completed — retrying
    is always safe), and completed-but-transient results the caller's
    ``transient`` predicate flags (``max_seconds`` limit trips, store
    and cache ``OSError``\\ s — exactly the classes the result cache
    already refuses to cache).

    Only the attempt count is settable; the backoff is the module
    constants above.  The jitter is *seeded* — by :data:`JITTER_SEED`,
    the retry key (normally the task id) and the attempt number — so
    reruns of a chaos test back off identically, while different tasks
    of one fleet still decorrelate (the point of jitter: synchronized
    writers retrying in lockstep re-collide forever).
    """

    max_attempts: int = 3

    @classmethod
    def of(cls, value: Union[None, int, "RetryPolicy"]) -> "RetryPolicy":
        """Coerce ``None`` (defaults) / an attempt count / a policy."""
        if value is None:
            return cls()
        if isinstance(value, RetryPolicy):
            return value
        return cls(max_attempts=max(1, int(value)))

    @staticmethod
    def delay(attempt: int, key: str = "") -> float:
        """Seconds to back off before retry ``attempt`` (1-based)."""
        raw = min(MAX_DELAY, BASE_DELAY * BACKOFF ** max(0, attempt - 1))
        # random.Random(str) seeds via SHA-512 of the text: stable
        # across processes and PYTHONHASHSEED values.
        rng = random.Random(f"{JITTER_SEED}:{key}:{attempt}")
        spread = raw * JITTER
        return raw - spread + rng.random() * 2.0 * spread


@dataclass
class PoolOutcome:
    """What a supervised run produced, keyed by item index."""

    results: Dict[int, Any] = field(default_factory=dict)
    attempts: Dict[int, int] = field(default_factory=dict)
    timed_out: Dict[int, bool] = field(default_factory=dict)
    worker_restarts: int = 0
    retries: int = 0


class _Job:
    """A dispatchable unit: the not-yet-completed items of one job."""

    __slots__ = ("items", "ready_at")

    def __init__(self, items: List[Tuple[int, Any]], ready_at: float = 0.0):
        self.items = items
        self.ready_at = ready_at


class _Worker:
    """One supervised worker process + its private pipe."""

    __slots__ = ("process", "conn", "job", "seq", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.job: Optional[_Job] = None
        self.seq: Optional[int] = None
        self.deadline: Optional[float] = None


def _worker_main(conn, target, initializer, initargs, fallback,
                 fault_plan) -> None:
    """The worker loop: recv a job, run its items, report each result.

    Every item produces exactly one ``(seq, index, result)`` message
    even when the *result* itself cannot cross the pipe: a result that
    fails to pickle is degraded through ``fallback`` at this boundary
    (the worker-side half of the "one bad task must never kill the
    sweep" contract — tasks are pre-checked for picklability by the
    dispatcher, results can only be checked here).
    The fault hook fires *before* each item, so an injected ``kill``
    dies with the item observably in flight.
    """
    from repro.testing import faults

    if fault_plan is not None:
        faults.install(fault_plan)
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # the supervisor closed its end: no job can arrive
        if message is None:
            break
        seq, items = message
        for index, payload in items:
            try:
                faults.fire("worker.task", _describe(payload))
                result = target(payload)
            except BaseException as exc:  # noqa: BLE001 — worker boundary
                result = fallback(payload, exc)
            try:
                conn.send((seq, index, result))
            except (EOFError, BrokenPipeError):
                return  # supervisor went away; nothing left to report to
            except Exception as exc:  # noqa: BLE001 — unpicklable result
                conn.send((seq, index, fallback(payload, exc)))


def _describe(payload) -> str:
    return str(getattr(payload, "task_id", "") or payload)


class SupervisedPool:
    """Run jobs of items across supervised workers (see the module doc).

    Args:
        processes: worker count ceiling (actual = min(processes, jobs)).
        target: ``target(payload) -> result``, module-level picklable.
        initializer / initargs: per-worker setup (run on every respawn
            too, so replacement workers are indistinguishable).
        task_timeout: supervisor-enforced wall-clock seconds per
            *item*; ``None`` disables (the deadline resets as each item
            of a multi-item job completes).
        retry: a :class:`RetryPolicy` (or int / None via
            :meth:`RetryPolicy.of`).
        fallback: ``fallback(payload, exc) -> result`` — worker-side
            degradation for raising targets and unpicklable results.
        failure: ``failure(payload, kind, detail) -> result`` —
            supervisor-side terminal result when attempts are
            exhausted (kinds: ``"WorkerCrash"``,
            ``"SupervisorTimeout"``, ``"PoolBroken"``).
        transient: ``transient(result) -> bool`` — completed results to
            retry under the policy (None retries nothing completed).
        fault_plan: a :class:`~repro.testing.faults.FaultPlan`
            installed in workers (never in the supervisor) before the
            initializer runs.
    """

    def __init__(
        self,
        processes: int,
        target: Callable[[Any], Any],
        *,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        task_timeout: Optional[float] = None,
        retry: Union[None, int, RetryPolicy] = None,
        fallback: Optional[Callable[[Any, BaseException], Any]] = None,
        failure: Optional[Callable[[Any, str, str], Any]] = None,
        transient: Optional[Callable[[Any], bool]] = None,
        fault_plan=None,
    ):
        self.processes = max(1, int(processes))
        self.target = target
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.task_timeout = float(task_timeout) if task_timeout else None
        self.retry = RetryPolicy.of(retry)
        self.fallback = fallback or (lambda payload, exc: exc)
        self.failure = failure or (
            lambda payload, kind, detail: RuntimeError(f"{kind}: {detail}")
        )
        self.transient = transient
        self.fault_plan = fault_plan
        self._context = multiprocessing.get_context()
        self._seq = itertools.count()
        #: Workers replaced over the pool's lifetime (every ``run``),
        #: bumped at each respawn — before the replaced worker's items
        #: are retried, so a caller holding a retried item's result
        #: already reads the restart here.
        self.worker_restarts = 0
        #: The persistent worker fleet (``start``/``close``), or None
        #: when the pool runs in one-shot mode.
        self._workers: Optional[List[_Worker]] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the persistent worker fleet (idempotent).

        After ``start``, every :meth:`run` call reuses the same
        ``processes`` workers — their process-wide caches stay warm
        across batches — until :meth:`close` reaps them.
        """
        if self._workers is None:
            self._workers = [self._spawn() for _ in range(self.processes)]

    @property
    def persistent(self) -> bool:
        """Whether a started (and not yet closed) fleet is attached."""
        return self._workers is not None

    def close(self) -> None:
        """Reap the persistent fleet (no-op in one-shot mode)."""
        if self._workers is not None:
            workers, self._workers = self._workers, None
            self._shutdown(workers)

    def __enter__(self) -> "SupervisedPool":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Sequence[Tuple[int, Any]]],
        on_result: Optional[Callable[[int, Any, int, bool], None]] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> PoolOutcome:
        """Execute every item of every job; never raises for item failures.

        ``on_result(index, result, attempts, timed_out)`` streams each
        item's *final* outcome as it lands (the result-cache hook);
        :class:`PoolOutcome` aggregates the same data at the end.

        ``stop`` (persistent mode's shutdown hook) is polled between
        supervision passes: once it answers True the run drains every
        already-sent result and returns early — unfinished items are
        absent from the outcome, and the pool must be ``close``\\ d
        (workers may still be computing the abandoned items).
        """
        if self._workers is not None:
            return self._run_loop(self._workers, jobs, on_result, stop)
        workers = [self._spawn()
                   for _ in range(min(self.processes,
                                      sum(1 for job in jobs if job)))]
        try:
            return self._run_loop(workers, jobs, on_result, stop)
        finally:
            self._shutdown(workers)

    def _run_loop(
        self,
        workers: List[_Worker],
        jobs: Sequence[Sequence[Tuple[int, Any]]],
        on_result: Optional[Callable[[int, Any, int, bool], None]],
        stop: Optional[Callable[[], bool]],
    ) -> PoolOutcome:
        outcome = PoolOutcome()
        pending: deque = deque(_Job(list(job)) for job in jobs if job)
        delayed: List[_Job] = []
        remaining = sum(len(job.items) for job in pending)
        if not remaining:
            return outcome
        payloads: Dict[int, Any] = {
            index: payload for job in pending for index, payload in job.items
        }
        jobs_in_flight: Dict[int, _Job] = {}
        idle_deaths = 0

        def record(index: int, result: Any, timed_out: bool = False) -> None:
            nonlocal remaining
            if index in outcome.results:
                return
            outcome.results[index] = result
            if timed_out:
                outcome.timed_out[index] = True
            remaining -= 1
            if on_result is not None:
                on_result(index, result, outcome.attempts.get(index, 1),
                          outcome.timed_out.get(index, False))

        def reschedule(items: List[Tuple[int, Any]], kind: str, detail: str,
                       timed_out_index: Optional[int]) -> None:
            """Retry (with backoff) or fail a job's unfinished items."""
            retriable: List[Tuple[int, Any]] = []
            for index, payload in items:
                if index == timed_out_index:
                    outcome.timed_out[index] = True
                if outcome.attempts.get(index, 0) < self.retry.max_attempts:
                    retriable.append((index, payload))
                else:
                    record(index, self.failure(payload, kind, detail),
                           timed_out=index == timed_out_index)
            if retriable:
                outcome.retries += len(retriable)
                index, payload = retriable[0]
                delay = self.retry.delay(outcome.attempts.get(index, 1),
                                         _describe(payload))
                delayed.append(_Job(retriable, time.monotonic() + delay))

        def handle_message(worker: _Worker, message) -> None:
            seq, index, result = message
            job = jobs_in_flight.get(seq)
            if job is None:
                return  # job superseded by a reassignment; result replayed
            job.items = [(i, p) for i, p in job.items if i != index]
            if not job.items:
                # The job's last item: the worker is back in recv.
                del jobs_in_flight[seq]
                worker.job = None
                worker.seq = None
                worker.deadline = None
            elif worker.deadline is not None:
                worker.deadline = time.monotonic() + self.task_timeout
            if (self.transient is not None and self.transient(result)
                    and outcome.attempts.get(index, 1)
                    < self.retry.max_attempts):
                outcome.retries += 1
                delay = self.retry.delay(outcome.attempts.get(index, 1),
                                         _describe(payloads[index]))
                delayed.append(_Job([(index, payloads[index])],
                                    time.monotonic() + delay))
                return
            record(index, result)

        def drain(worker: _Worker) -> None:
            """Consume every message the worker has managed to send.

            Run for every worker *before* handling deaths: a worker may
            have reported items (or finished its whole job) and *then*
            died — those results are real and must not be replayed.
            """
            while True:
                try:
                    if not worker.conn.poll(0):
                        return
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    # The worker's end closed as it died: the death pass
                    # that follows reassigns its unfinished items.
                    return
                handle_message(worker, message)

        try:
            while remaining > 0:
                if stop is not None and stop():
                    # Shutdown drain: collect everything the workers
                    # already reported, abandon the rest.  The caller
                    # (the service daemon) caches what landed and
                    # closes the pool.
                    for worker in workers:
                        drain(worker)
                    return outcome
                now = time.monotonic()
                for job in [j for j in delayed if j.ready_at <= now]:
                    delayed.remove(job)
                    pending.append(job)
                for worker in workers:
                    if worker.job is None and pending:
                        self._assign(worker, pending.popleft(),
                                     jobs_in_flight, outcome)
                self._wait(workers, delayed)
                for worker in workers:
                    drain(worker)
                now = time.monotonic()
                for position, worker in enumerate(workers):
                    if worker.process.is_alive():
                        continue
                    drain(worker)
                    job, seq = worker.job, worker.seq
                    if seq is not None:
                        jobs_in_flight.pop(seq, None)
                    self._replace(workers, position, outcome)
                    exitcode = worker.process.exitcode
                    if job is None:
                        idle_deaths += 1
                        if idle_deaths >= _MAX_IDLE_DEATHS:
                            raise _PoolBroken()
                        continue
                    idle_deaths = 0
                    reschedule(job.items, "WorkerCrash",
                               f"pool worker died (exit code {exitcode})",
                               None)
                for position, worker in enumerate(workers):
                    if (worker.deadline is None or worker.job is None
                            or now < worker.deadline):
                        continue
                    # Hung item: the first unfinished item of the job is
                    # the one on the worker's CPU right now.
                    job, seq = worker.job, worker.seq
                    if seq is not None:
                        jobs_in_flight.pop(seq, None)
                    hung = job.items[0][0] if job.items else None
                    self._replace(workers, position, outcome, kill=True)
                    reschedule(
                        job.items, "SupervisorTimeout",
                        f"task exceeded task_timeout={self.task_timeout}s "
                        f"(supervisor wall clock)", hung)
        except _PoolBroken:
            # Workers die before they can accept work (broken
            # initializer, poisoned environment): fail what's left
            # rather than fork-loop — the sweep still completes.  In
            # persistent mode the next run's death pass respawns the
            # fleet, so the daemon keeps serving.
            for index, payload in payloads.items():
                if index not in outcome.results:
                    record(index, self.failure(
                        payload, "PoolBroken",
                        "workers repeatedly died before accepting work"))
            return outcome
        return outcome

    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        ours, theirs = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(theirs, self.target, self.initializer, self.initargs,
                  self.fallback, self.fault_plan),
            daemon=True,
        )
        process.start()
        theirs.close()
        return _Worker(process, ours)

    def _replace(self, workers: List[_Worker], position: int,
                 outcome: PoolOutcome, kill: bool = False) -> None:
        """Reap a dead or wedged worker and fork its replacement."""
        outcome.worker_restarts += 1
        self.worker_restarts += 1
        self._reap(workers[position], kill=kill)
        workers[position] = self._spawn()

    def _assign(self, worker: _Worker, job: _Job, jobs_in_flight,
                outcome: PoolOutcome) -> None:
        seq = next(self._seq)
        for index, _payload in job.items:
            outcome.attempts[index] = outcome.attempts.get(index, 0) + 1
        worker.job = job
        worker.seq = seq
        worker.deadline = (
            time.monotonic() + self.task_timeout if self.task_timeout
            else None
        )
        jobs_in_flight[seq] = job
        try:
            worker.conn.send((seq, job.items))
        except (OSError, BrokenPipeError):
            pass  # the worker just died; the sentinel pass reassigns

    def _wait(self, workers: List[_Worker], delayed: List[_Job]) -> None:
        timeout = _POLL_SECONDS
        now = time.monotonic()
        for worker in workers:
            if worker.deadline is not None and worker.job is not None:
                timeout = min(timeout, max(0.0, worker.deadline - now))
        for job in delayed:
            timeout = min(timeout, max(0.0, job.ready_at - now))
        handles = ([worker.conn for worker in workers]
                   + [worker.process.sentinel for worker in workers])
        try:
            _connection_wait(handles, timeout)
        except OSError:
            pass  # a handle died mid-wait; the per-worker passes handle it

    def _reap(self, worker: _Worker, kill: bool = False,
              timeout: float = 5.0) -> None:
        """Join a worker (killing it first, or once ``timeout`` passes)."""
        process = worker.process
        try:
            if kill and process.is_alive():
                process.kill()
            process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        except (OSError, ValueError) as exc:
            # The process handle is already closed or unusable; there is
            # nothing left to join, but say so to whoever is listening.
            logger.debug(
                "supervisor could not reap worker %s: %r", process.pid, exc,
                extra={"event": "supervisor.reap_error", "pid": process.pid,
                       "error": repr(exc)},
            )
        try:
            worker.conn.close()
        except OSError:
            pass  # a pipe that is already broken is as closed as it gets

    def _shutdown(self, workers: List[_Worker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, BrokenPipeError):
                pass  # the worker is already dead; the reap below joins it
        deadline = time.monotonic() + 5.0
        for worker in workers:
            self._reap(worker, timeout=max(0.0, deadline - time.monotonic()))


class _PoolBroken(Exception):
    """Internal: workers keep dying before accepting any work."""
