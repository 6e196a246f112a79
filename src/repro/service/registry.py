"""Daemon-side task registry: in-flight dedup + the daemon's state file.

The verification daemon serves many clients from one warm substrate;
this module is the bookkeeping that makes that safe and cheap:

* :class:`TaskRegistry` — a thread-safe map from task identity
  (:attr:`~repro.api.task.VerificationTask.dedup_key`) to either a
  *completed* result payload or an *in-flight* computation with
  waiters.  Identical tasks submitted by concurrent clients collapse
  onto one computation: the first claim owns it, every later claim
  joins as a waiter and is notified when the owner's result lands.
  Completed non-error results are retained for the daemon's lifetime
  (the in-memory warm layer above the on-disk
  :class:`~repro.api.sweep.ResultCache`, which is also what a
  restarted daemon resumes from); error results notify their waiters
  but are *not* retained, so a later request retries instead of
  replaying a failure forever — the same rule the sweep journal
  applies on load.

* the **state file** (``service-state.json``) — a breadcrumb the
  daemon drops in its state directory while running (pid, endpoint,
  pool size) and removes on clean shutdown, so ``harness cache info``
  can report what daemon owns a cache directory and whether it exited
  cleanly.

The state file is I/O-best-effort in the house style: an unreadable
file or a full disk costs a breadcrumb, never the daemon.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "SERVICE_STATE_NAME",
    "TaskRegistry",
    "read_state_file",
    "remove_state_file",
    "write_state_file",
]

#: The breadcrumb a running daemon leaves under its state directory;
#: the cache maintenance CLI knows it (``info`` lists it, ``clear``
#: removes it, ``prune`` leaves it alone).
SERVICE_STATE_NAME = "service-state.json"

#: ``waiter(key, payload)`` — ``payload`` is a TaskResult ``to_dict``
#: dict, or None when the daemon is shutting down before completion.
Waiter = Callable[[str, Optional[dict]], None]


class _InFlight:
    """One claimed-but-unfinished task and everyone waiting on it."""

    __slots__ = ("task", "waiters")

    def __init__(self, task):
        self.task = task
        self.waiters: List[Waiter] = []


class TaskRegistry:
    """Thread-safe dedup registry (see the module doc).

    Lock discipline: every state transition happens under one lock;
    waiter callbacks are invoked *outside* it (they enqueue into a
    request's queue and may run arbitrary handler-side code).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._done: Dict[str, dict] = {}
        self._inflight: Dict[str, _InFlight] = {}

    # -- serving -------------------------------------------------------
    def resolve(self, key: str) -> Optional[dict]:
        """The retained payload for ``key``, or None."""
        with self._lock:
            return self._done.get(key)

    def claim(self, key: str, task, waiter: Waiter) -> Tuple[str, Optional[dict]]:
        """Atomically route one submission of ``key``.

        Returns ``("done", payload)`` when a retained result exists
        (claim raced a completion), ``("joined", None)`` when the key
        is already in flight (``waiter`` registered — this submission
        triggered no computation), or ``("claimed", None)`` when this
        submission owns the computation (``waiter`` registered; the
        caller must dispatch the task and eventually :meth:`complete`).
        """
        with self._lock:
            payload = self._done.get(key)
            if payload is not None:
                return "done", payload
            entry = self._inflight.get(key)
            if entry is not None:
                entry.waiters.append(waiter)
                return "joined", None
            entry = _InFlight(task)
            entry.waiters.append(waiter)
            self._inflight[key] = entry
            return "claimed", None

    def adopt(self, key: str, payload: dict) -> None:
        """Retain an externally-served result (a disk-cache hit).

        Never displaces an in-flight computation or an existing
        retained payload — adoption is a warmth optimization, not a
        source of truth.
        """
        with self._lock:
            if key not in self._done and key not in self._inflight:
                self._done[key] = payload

    # -- completing ----------------------------------------------------
    def complete(self, key: str, payload: dict, retain: bool) -> None:
        """Land a computed result and notify every waiter.

        ``retain=False`` (error results) notifies waiters but leaves
        no retained entry, so the next request recomputes.
        """
        with self._lock:
            entry = self._inflight.pop(key, None)
            if retain:
                self._done[key] = payload
            waiters = list(entry.waiters) if entry is not None else []
        for waiter in waiters:
            waiter(key, payload)

    def fail_pending(self) -> int:
        """Wake every in-flight waiter with None (daemon shutdown)."""
        with self._lock:
            entries = list(self._inflight.items())
            self._inflight.clear()
        for key, entry in entries:
            for waiter in entry.waiters:
                waiter(key, None)
        return len(entries)

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "retained": len(self._done),
                "in_flight": len(self._inflight),
            }


# ----------------------------------------------------------------------
# The daemon's state-file breadcrumb
# ----------------------------------------------------------------------
def write_state_file(root, info: dict) -> None:
    """Drop ``service-state.json`` under ``root`` (best-effort)."""
    path = Path(root) / SERVICE_STATE_NAME
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(info, indent=1, sort_keys=True) + "\n")
        tmp.replace(path)
    except OSError:
        pass


def read_state_file(root) -> Optional[dict]:
    """The parsed state file under ``root``, or None (never raises)."""
    try:
        blob = json.loads((Path(root) / SERVICE_STATE_NAME).read_text())
    except (OSError, ValueError):
        return None
    return blob if isinstance(blob, dict) else None


def remove_state_file(root) -> None:
    try:
        (Path(root) / SERVICE_STATE_NAME).unlink()
    except OSError:
        pass
