"""Deterministic fault injection for chaos-testing sweeps.

The substrate of the standing chaos suite
(``tests/api/test_sweep_faults.py``): a :class:`FaultPlan` is a plain,
picklable value describing *which* failures to inject *where* —
installed process-wide by :func:`install` (the sweep runner does this
in pool workers via its initializer, never in the supervisor process,
which must survive to observe the failure).  Production code calls the
two hook functions at its I/O boundaries:

* :func:`fire` — may kill the calling process, sleep (hang/delay), or
  raise ``OSError``;
* :func:`transform` — may corrupt a byte blob (flip its last byte, so
  a checksummed graph snapshot fails verification on load).

With no plan installed both are no-ops guarded by a single module-
global ``None`` check, so the hooks are free on the happy path.

Determinism
-----------
A rule fires on the *nth* matching hit and at most ``times`` times.
Hit counting is either per-process (``scope="worker"``: each pool
worker counts its own hits — "kill a worker on its Nth task") or
global across every process of a sweep (``scope="global"``): global
hits are claimed through atomic ``O_CREAT | O_EXCL`` marker files
under the plan's ``scratch`` directory, so exactly one process
observes hit *k* no matter how many race for it, and a respawned
worker never re-fires a trigger that already fired — which is what
lets a chaos sweep with kills and hangs *terminate* with bit-identical
verdicts instead of crash-looping.  ``seed`` namespaces the markers,
so two plans may share one scratch directory.

Hook points wired into the code base::

    worker.task              detail=task_id   (supervised pool worker,
                                               before running a task)
    graph_store.load         detail=entry key (GraphStore.load_into)
    graph_store.flush        detail=entry key (GraphStore.flush; also
                                               the ``corrupt`` point)
    result_cache.get         detail=entry key (ResultCache.get)
    result_cache.put         detail=entry key (ResultCache.put)

Every store/cache hook sits *inside* the surrounding best-effort
``try`` block, so an injected ``OSError`` exercises exactly the
recorded-miss-not-crash contract the real failure would.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = [
    "FaultPlan",
    "FaultRule",
    "active",
    "fire",
    "install",
    "transform",
]

#: Actions :func:`fire` understands (``corrupt`` goes via :func:`transform`).
ACTIONS = ("kill", "hang", "delay", "oserror", "corrupt")


@dataclass(frozen=True)
class FaultRule:
    """One injected failure: *what* happens *where*, and *when*.

    Attributes:
        point: hook name this rule listens on (see the module doc).
        action: ``"kill"`` (SIGKILL the calling process), ``"hang"`` /
            ``"delay"`` (sleep ``seconds`` — hang long enough for the
            supervisor timeout, delay briefly), ``"oserror"`` (raise
            ``OSError``), or ``"corrupt"`` (flip the blob's last byte;
            only consulted by :func:`transform`).
        match: substring the hook's ``detail`` must contain ("" = any).
        nth: fire on the nth *matching* hit (1-based).
        times: how many consecutive hits fire (0 = every hit >= nth).
        seconds: sleep duration for ``hang`` / ``delay``.
        scope: ``"global"`` (hits counted across all processes via the
            plan's scratch markers) or ``"worker"`` (each process
            counts privately).
    """

    point: str
    action: str
    match: str = ""
    nth: int = 1
    times: int = 1
    seconds: float = 60.0
    scope: str = "global"

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.scope not in ("global", "worker"):
            raise ValueError(f"unknown fault scope {self.scope!r}")

    def fires_on(self, hit: int) -> bool:
        if hit < self.nth:
            return False
        return not self.times or hit < self.nth + self.times

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "action": self.action,
            "match": self.match,
            "nth": self.nth,
            "times": self.times,
            "seconds": self.seconds,
            "scope": self.scope,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            point=data["point"],
            action=data["action"],
            match=data.get("match", ""),
            nth=int(data.get("nth", 1)),
            times=int(data.get("times", 1)),
            seconds=float(data.get("seconds", 60.0)),
            scope=data.get("scope", "global"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A picklable set of :class:`FaultRule`\\ s plus shared scratch state.

    ``scratch`` is a directory (created on demand) holding the atomic
    hit markers of every ``scope="global"`` rule; it must be shared by
    all processes of the sweep under test (a pytest ``tmp_path`` is
    perfect).  ``seed`` namespaces the markers so plans can share a
    scratch directory — and is folded into nothing else, keeping plans
    deterministic by construction rather than by sampling.
    """

    rules: Tuple[FaultRule, ...] = ()
    scratch: str = ""
    seed: int = 0

    # -- convenience builders (each returns a new plan) ---------------
    def _with(self, rule: FaultRule) -> "FaultPlan":
        return FaultPlan(self.rules + (rule,), self.scratch, self.seed)

    def kill_task(self, match: str, nth: int = 1, times: int = 1,
                  scope: str = "global") -> "FaultPlan":
        """SIGKILL the worker as it picks up a matching task."""
        return self._with(FaultRule("worker.task", "kill", match, nth,
                                    times, scope=scope))

    def hang_task(self, match: str, seconds: float = 60.0,
                  times: int = 1) -> "FaultPlan":
        """Stall a matching task well past any supervisor timeout."""
        return self._with(FaultRule("worker.task", "hang", match, 1,
                                    times, seconds))

    def break_io(self, point: str, match: str = "", times: int = 1,
                 nth: int = 1) -> "FaultPlan":
        """Raise ``OSError`` from a store/cache hook point."""
        return self._with(FaultRule(point, "oserror", match, nth, times))

    def corrupt_segment(self, match: str = "", nth: int = 1,
                        times: int = 1) -> "FaultPlan":
        """Flip a byte of a flushed graph snapshot (checksum breaks)."""
        return self._with(FaultRule("graph_store.flush", "corrupt",
                                    match, nth, times))

    # -- JSON round trip (``harness serve --fault-plan FILE``) --------
    def to_dict(self) -> dict:
        """JSON form, so a plan can cross a process boundary as a file
        (the service daemon loads one at startup for chaos drills)."""
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "scratch": self.scratch,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            rules=tuple(
                FaultRule.from_dict(rule) for rule in data.get("rules", [])
            ),
            scratch=data.get("scratch", ""),
            seed=int(data.get("seed", 0)),
        )


# ----------------------------------------------------------------------
# Process-wide installation + hit counting
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None
#: Per-process hit counters, keyed by rule index (``scope="worker"``).
_WORKER_HITS: Dict[int, int] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Install (or with ``None`` clear) the process-wide plan."""
    global _ACTIVE
    _ACTIVE = plan
    _WORKER_HITS.clear()


def active() -> Optional[FaultPlan]:
    """The currently-installed plan, or None."""
    return _ACTIVE


def _claim_hit(plan: FaultPlan, rule_index: int, rule: FaultRule) -> int:
    """The 1-based hit number this event is, within the rule's scope.

    Global hits are claimed via ``O_CREAT | O_EXCL`` marker files:
    exactly one process wins marker *k*, so the numbering is a total
    order across every worker of the sweep — and survives worker
    respawns, because the markers outlive the processes.
    """
    if rule.scope == "worker":
        _WORKER_HITS[rule_index] = _WORKER_HITS.get(rule_index, 0) + 1
        return _WORKER_HITS[rule_index]
    root = Path(plan.scratch or ".")
    root.mkdir(parents=True, exist_ok=True)
    k = 0
    while True:
        marker = root / f"fault-{plan.seed}-r{rule_index}-hit{k}"
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            k += 1
            continue
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return k + 1


def _matching(point: str, detail: str):
    plan = _ACTIVE
    if plan is None:
        return
    for index, rule in enumerate(plan.rules):
        if rule.point != point:
            continue
        if rule.match and rule.match not in detail:
            continue
        yield index, rule


def fire(point: str, detail: str = "") -> None:
    """Run every matching non-``corrupt`` rule's action at this point.

    No-op without an installed plan.  ``kill`` never returns;
    ``oserror`` raises (callers place the hook inside their existing
    best-effort handling, so injection exercises the same path a real
    failure would); ``hang`` / ``delay`` sleep and return.
    """
    plan = _ACTIVE
    if plan is None:
        return
    for index, rule in _matching(point, detail):
        if rule.action == "corrupt":
            continue
        if not rule.fires_on(_claim_hit(plan, index, rule)):
            continue
        if rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif rule.action in ("hang", "delay"):
            time.sleep(rule.seconds)
        elif rule.action == "oserror":
            raise OSError(
                f"injected fault at {point}"
                + (f" ({detail})" if detail else "")
            )


def transform(point: str, detail: str, blob: bytes) -> bytes:
    """Apply matching ``corrupt`` rules to ``blob`` (identity otherwise)."""
    plan = _ACTIVE
    if plan is None:
        return blob
    for index, rule in _matching(point, detail):
        if rule.action != "corrupt":
            continue
        if rule.fires_on(_claim_hit(plan, index, rule)) and blob:
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    return blob
