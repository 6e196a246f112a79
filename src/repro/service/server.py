"""The verification daemon: HTTP requests in, warm pool results out.

:class:`VerificationService` is a long-running process hosting exactly
one **persistent** :class:`~repro.supervisor.SupervisedPool`.
Clients POST :class:`~repro.api.task.VerificationTask` matrices as
JSON; the daemon queues them onto the warm fleet — whose compiled
protocol programs, interned states and graph-store caches survive
across requests — and streams each task's
:class:`~repro.api.report.TaskResult` back as NDJSON the moment it
completes.  Request cost drops from "fork + import + compile +
explore" to "explore what's new", and repeated requests drop to
milliseconds.

Three layers answer a submitted task, each consulted in order:

1. the in-memory :class:`~repro.service.registry.TaskRegistry` — a
   result computed (or loaded) earlier in this daemon's lifetime is
   served instantly with ``cached=True``;
2. the on-disk :class:`~repro.api.sweep.ResultCache` under the state
   directory (the same layout ``sweep --cache-dir`` uses, so daemon
   and local sweeps share warmth);
3. the pool — unless an *identical* task (by
   :attr:`~repro.api.task.VerificationTask.dedup_key`) is already in
   flight for any client, in which case this submission joins it as a
   waiter and is served the same result with ``deduped=True``: two
   concurrent clients submitting the same matrix cost one computation.

Request handling is thread-per-connection
(:class:`~http.server.ThreadingHTTPServer`); all pool dispatch happens
on one *dispatcher* thread that drains the submission queue in batches
and hands each batch to the pool as one job per bound system
(:func:`~repro.api.sweep.system_jobs`, the sweep's own rule),
so the single-consumer discipline of
:meth:`~repro.supervisor.SupervisedPool.run` is preserved while
any number of requests stream concurrently.  Responses are
HTTP/1.0-style close-delimited streams (no ``Content-Length``), which
keeps the client a stdlib ``http.client`` + ``readline`` loop.

The result cache is also the daemon's restart log.  Every cacheable
completion is written to it before any waiter hears of the result, so
it is durable the moment a client sees it.  Shutdown (SIGTERM/SIGINT
via :func:`serve`, or :meth:`~VerificationService.stop`) drains rather
than drops: the dispatcher's in-flight batch is interrupted through
the pool's ``stop`` hook, everything workers already completed lands
in the cache, pending streams are woken with an error event, workers
are reaped, and the state-file breadcrumb is removed.  A daemon
restarted on the same ``--cache-dir`` serves every previously
completed task as a cache hit, without recompute — the
restart-and-resume contract CI's smoke job drills.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.report import TaskResult
from repro.api.sweep import ResultCache, SweepRunner, system_jobs, task_pool
from repro.api.task import VerificationTask
from repro.core.coinspec import resolve_coin_spec
from repro.counter.store import check_graph_store_dir
from repro.errors import CheckError
from repro.service.registry import (
    TaskRegistry,
    remove_state_file,
    write_state_file,
)
from repro.version import code_version

__all__ = ["VerificationService", "serve"]

#: Sentinel the dispatcher queue uses to wake for shutdown.
_STOP = object()

#: How a submitted task was answered (per slot, in claim order).
_COMPUTED, _DEDUPED, _WARM = "computed", "deduped", "warm"


class ServiceStopping(CheckError):
    """Raised to submissions that arrive while the daemon shuts down."""


class _PendingRequest:
    """One client request's view of the daemon: slots + an event queue.

    ``submit`` routes every task of the matrix (registry / disk cache /
    dedup join / pool dispatch) and records, per dedup key, the ordered
    list of ``(input index, serving mode)`` slots awaiting it.  Warm
    answers are buffered immediately; computed and deduped answers
    arrive through :meth:`_notify` — the waiter callback the registry
    invokes on completion — and :meth:`events` interleaves both into
    the response stream.  A key submitted twice in one matrix simply
    owns two slots: the registry notifies once per registered waiter,
    and slots pop FIFO in claim order.
    """

    def __init__(self, service: "VerificationService", request_id: str,
                 total: int):
        self.service = service
        self.request_id = request_id
        self.total = total
        self.started = time.perf_counter()
        self.queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self.slots: Dict[str, List[Tuple[int, str]]] = {}
        self.immediate: List[Tuple[int, dict]] = []
        self.cache_hits = 0
        self.deduped = 0

    def _notify(self, key: str, payload: Optional[dict]) -> None:
        self.queue.put((key, payload))

    # ------------------------------------------------------------------
    def events(self):
        """Yield ``(index, result payload)`` as answers land.

        Warm answers first (in input order), then live completions in
        arrival order.  Raises :class:`ServiceStopping` when the daemon
        shuts down before the request completes.
        """
        for index, payload in self.immediate:
            yield index, payload
        remaining = self.total - len(self.immediate)
        while remaining > 0:
            try:
                key, payload = self.queue.get(timeout=1.0)
            except queue.Empty:
                if self.service.stopping:
                    raise ServiceStopping("daemon is shutting down")
                continue
            if payload is None:
                raise ServiceStopping(
                    "daemon shut down before this task completed"
                )
            index, mode = self.slots[key].pop(0)
            if mode == _DEDUPED:
                payload = dict(payload)
                payload["deduped"] = True
            yield index, payload
            remaining -= 1

    def report(self) -> dict:
        """The stream's final ``done`` event body (RunReport metadata)."""
        return {
            "request_id": self.request_id,
            "processes": self.service.processes,
            "code_version": self.service.version,
            "time_seconds": time.perf_counter() - self.started,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
        }


class VerificationService:
    """The daemon object: one warm pool, one registry, one HTTP server.

    Args:
        host / port: bind address; ``port=0`` picks an ephemeral port
            (read the bound one from :attr:`port` after :meth:`start`).
        processes: persistent pool size.
        state_dir: directory holding the daemon's durable state — the
            on-disk result cache and the state file; ``None`` runs
            fully in-memory (no resume, no cross-run cache).
        graph_store: directory of the workers' persistent
            state-graph store (as ``sweep --graph-store``).
        task_timeout / retry: supervision knobs, passed through to the
            pool (see :class:`~repro.api.sweep.SweepRunner`).
        fault_plan: a :class:`~repro.testing.faults.FaultPlan`
            installed in pool workers (chaos drills against a live
            daemon; never installed in the daemon process itself).
        default_coin: a :class:`~repro.core.coinspec.CoinSpec` (or
            spec string) applied to every submitted registry task that
            carries no coin of its own; tasks that name a coin keep
            it.  The perfect coin normalizes to None (no rewriting),
            so a ``--coin perfect`` daemon answers byte-identically to
            a coin-less one.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        processes: int = 2,
        state_dir: Optional[str] = None,
        graph_store: Optional[str] = None,
        task_timeout: Optional[float] = None,
        retry=None,
        fault_plan=None,
        default_coin=None,
    ):
        self.host = host
        self.port = int(port)
        self.processes = max(1, int(processes))
        self.state_dir = Path(state_dir) if state_dir else None
        if graph_store:
            check_graph_store_dir(graph_store)
        self.graph_store = str(graph_store) if graph_store else None
        self.version = code_version()
        spec = resolve_coin_spec(default_coin)
        self.default_coin = None if spec.is_default else spec
        self.registry = TaskRegistry()
        self.cache: Optional[ResultCache] = None
        self._pool = task_pool(
            self.processes,
            graph_store=self.graph_store,
            task_timeout=task_timeout,
            retry=retry,
            fault_plan=fault_plan,
        )
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._stopping = threading.Event()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._threads: List[threading.Thread] = []
        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "tasks_computed": 0,
            "tasks_failed": 0,
            "dedup_hits": 0,
            "cache_hits": 0,
        }
        self._started_at = time.time()

    # ------------------------------------------------------------------
    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Warm up and begin serving (returns once the port is bound)."""
        if self.state_dir is not None:
            self.cache = ResultCache(self.state_dir)
        # Fork the worker fleet before any server thread exists: forking
        # a multi-threaded process risks inheriting held locks.
        self._pool.start()
        dispatcher = threading.Thread(
            target=self._dispatch_loop, name="service-dispatcher", daemon=True
        )
        dispatcher.start()
        self._threads.append(dispatcher)
        try:
            self._httpd = ThreadingHTTPServer((self.host, self.port),
                                              _Handler)
        except OSError:
            # Bind failure after the fleet is warm: reap it before the
            # error propagates, or the workers outlive the daemon.
            self.stop()
            raise
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        server = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="service-http",
            daemon=True,
        )
        server.start()
        self._threads.append(server)
        if self.state_dir is not None:
            write_state_file(self.state_dir, {
                "pid": os.getpid(),
                "host": self.host,
                "port": self.port,
                "processes": self.processes,
                "code_version": self.version,
                "started": self._started_at,
            })

    def stop(self) -> None:
        """Drain, reap, unbind (idempotent)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._queue.put(_STOP)
        for thread in self._threads:
            if thread.name == "service-dispatcher":
                thread.join(timeout=30.0)
        self._pool.close()
        # Wake every stream still waiting on an abandoned task *after*
        # the pool is down, so completions that raced shutdown were
        # already cached and notified by the dispatcher.
        self.registry.fail_pending()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self.state_dir is not None:
            remove_state_file(self.state_dir)

    def __enter__(self) -> "VerificationService":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def submit(self, tasks: Sequence[VerificationTask],
               request_id: Optional[str] = None) -> _PendingRequest:
        """Route one request's matrix; returns its pending stream."""
        if self._stopping.is_set():
            raise ServiceStopping("daemon is shutting down")
        with self._stats_lock:
            self._stats["requests"] += 1
        if not request_id:
            request_id = f"r{next(self._request_ids):06d}"
        pending = _PendingRequest(self, request_id, len(tasks))
        for index, task in enumerate(tasks):
            if (self.default_coin is not None and task.coin is None
                    and task.protocol is not None):
                # The daemon's default coin fills the gap *before*
                # dedup and cache keying, so a defaulted task and
                # an explicitly-coined identical one are one identity.
                task = task.with_coin(self.default_coin)
            key = task.dedup_key
            payload = self.registry.resolve(key)
            if payload is None and self.cache is not None:
                cache_key = self.cache.key_for(task)
                cached = (self.cache.get(cache_key)
                          if cache_key is not None else None)
                if cached is not None:
                    # Strip the transport flag before retaining: each
                    # serve decorates its own copy.
                    blob = cached.to_dict()
                    blob["cached"] = False
                    self.registry.adopt(key, blob)
                    payload = blob
            if payload is not None:
                warm = dict(payload)
                warm["cached"] = True
                pending.immediate.append((index, warm))
                pending.cache_hits += 1
                with self._stats_lock:
                    self._stats["cache_hits"] += 1
                continue
            status, raced = self.registry.claim(key, task, pending._notify)
            if status == "done":
                warm = dict(raced)
                warm["cached"] = True
                pending.immediate.append((index, warm))
                pending.cache_hits += 1
                with self._stats_lock:
                    self._stats["cache_hits"] += 1
                continue
            if status == "joined":
                pending.slots.setdefault(key, []).append((index, _DEDUPED))
                pending.deduped += 1
                with self._stats_lock:
                    self._stats["dedup_hits"] += 1
                continue
            pending.slots.setdefault(key, []).append((index, _COMPUTED))
            self._queue.put((key, task))
        return pending

    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """The single pool consumer: drain the queue, run the batch."""
        while not self._stopping.is_set():
            item = self._queue.get()
            if item is _STOP or self._stopping.is_set():
                return
            batch = [item]
            while True:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break  # the queue is drained: this is the whole batch
                if extra is not _STOP:
                    batch.append(extra)
            assignments: Dict[int, Tuple[str, VerificationTask]] = {}
            for key, task in batch:
                assignments[next(self._ids)] = (key, task)
            jobs = system_jobs(
                (index, task) for index, (_key, task) in assignments.items()
            )

            def on_result(index, result, attempts, timed_out,
                          assignments=assignments):
                key, task = assignments[index]
                self._complete(
                    key, task,
                    SweepRunner._decorate(result, attempts, timed_out),
                )

            self._pool.run(
                jobs, on_result=on_result, stop=self._stopping.is_set
            )

    def _complete(self, key: str, task: VerificationTask,
                  result: TaskResult) -> None:
        """Land one computed result: cache, count, then notify."""
        payload = result.to_dict()
        retain = SweepRunner._cacheable(result)
        if retain and self.cache is not None:
            cache_key = self.cache.key_for(task)
            if cache_key is not None:
                self.cache.put(cache_key, result)
        with self._stats_lock:
            self._stats["tasks_computed"] += 1
            if result.error:
                self._stats["tasks_failed"] += 1
        self.registry.complete(key, payload, retain=retain)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        with self._stats_lock:
            stats = dict(self._stats)
        stats["worker_restarts"] = self._pool.worker_restarts
        stats.update(self.registry.stats())
        stats.update({
            "pid": os.getpid(),
            "host": self.host,
            "port": self.port,
            "processes": self.processes,
            "code_version": self.version,
            "uptime_seconds": time.time() - self._started_at,
            "stopping": self._stopping.is_set(),
            "default_coin": (self.default_coin.spec_str()
                             if self.default_coin is not None else None),
        })
        return stats


class _Handler(BaseHTTPRequestHandler):
    """The daemon's three endpoints (see each ``_handle_*``)."""

    server_version = "repro-verification-service/1"
    protocol_version = "HTTP/1.0"  # close-delimited streams

    @property
    def service(self) -> VerificationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, *_args) -> None:
        pass  # the daemon's stdout is its own; HTTP noise helps no one

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path in ("/v1/status", "/healthz"):
            self._send_json(200, self.service.status())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        if self.path == "/v1/sweep":
            self._handle_sweep()
        elif self.path == "/v1/verify":
            self._handle_verify()
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    # ------------------------------------------------------------------
    def _read_tasks(self):
        """Parse the request body into tasks, or answer 4xx and None."""
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            raw = body["tasks"]
            if not isinstance(raw, list) or not raw:
                raise CheckError("'tasks' must be a non-empty list")
            tasks = [VerificationTask.from_dict(entry) for entry in raw]
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            self._send_json(400, {"error": f"bad request: {exc}"})
            return None, None
        return tasks, body.get("request_id")

    def _handle_sweep(self) -> None:
        """POST /v1/sweep — stream NDJSON result events, then ``done``."""
        tasks, request_id = self._read_tasks()
        if tasks is None:
            return
        try:
            pending = self.service.submit(tasks, request_id=request_id)
        except ServiceStopping as exc:
            self._send_json(503, {"error": str(exc)})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for index, payload in pending.events():
                self._send_event(
                    {"event": "result", "index": index, "result": payload}
                )
            self._send_event({"event": "done", "report": pending.report()})
        except ServiceStopping as exc:
            self._send_event({"event": "error", "message": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-stream.  Computation continues —
            # results land in the registry and cache for the retry.
            pass

    def _handle_verify(self) -> None:
        """POST /v1/verify — one task, one plain JSON result."""
        tasks, request_id = self._read_tasks()
        if tasks is None:
            return
        if len(tasks) != 1:
            self._send_json(
                400, {"error": "/v1/verify takes exactly one task; "
                               "use /v1/sweep for matrices"})
            return
        try:
            pending = self.service.submit(tasks, request_id=request_id)
            for _index, payload in pending.events():
                self._send_json(200, payload)
                return
        except ServiceStopping as exc:
            self._send_json(503, {"error": str(exc)})

    # ------------------------------------------------------------------
    def _send_event(self, event: dict) -> None:
        self.wfile.write(json.dumps(event).encode("utf-8") + b"\n")
        self.wfile.flush()

    def _send_json(self, code: int, payload: dict) -> None:
        try:
            blob = json.dumps(payload, indent=1).encode("utf-8") + b"\n"
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before the reply: nobody is left to
            # tell, and the daemon's state does not depend on it.
            pass


def serve(
    host: str = "127.0.0.1",
    port: int = 8123,
    processes: int = 2,
    state_dir: Optional[str] = None,
    graph_store: Optional[str] = None,
    task_timeout: Optional[float] = None,
    retry=None,
    fault_plan=None,
    default_coin=None,
) -> int:
    """Run a daemon until SIGTERM/SIGINT (the ``harness serve`` body).

    Both signals trigger the same draining shutdown
    :meth:`VerificationService.stop` implements; the readiness line
    (``serving on http://…``) is printed only after the port is bound
    and the worker fleet is warm, so wrappers can poll stdout.
    """
    service = VerificationService(
        host=host,
        port=port,
        processes=processes,
        state_dir=state_dir,
        graph_store=graph_store,
        task_timeout=task_timeout,
        retry=retry,
        fault_plan=fault_plan,
        default_coin=default_coin,
    )
    stop_event = threading.Event()
    previous = {
        sig: signal.signal(sig, lambda *_args: stop_event.set())
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        try:
            service.start()
        except OSError as exc:
            print(f"cannot bind {host}:{port}: {exc}", flush=True)
            return 1
        print(
            f"serving on {service.url} "
            f"(pid {os.getpid()}, {service.processes} workers, "
            f"state {service.state_dir or 'in-memory'})",
            flush=True,
        )
        stop_event.wait()
        print("shutting down (draining in-flight work)", flush=True)
        service.stop()
        print("stopped", flush=True)
        return 0
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
