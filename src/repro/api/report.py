"""JSON-serializable verification reports.

This is the data side of the public API: everything a verification run
produces is captured in a small hierarchy of frozen dataclasses —

``RunReport`` (one sweep)
  └── ``TaskResult`` (one :class:`~repro.api.task.VerificationTask`)
        └── ``ObligationOutcome`` (one target: agreement / validity / …)
              └── ``QueryOutcome`` (one A- or E-query)
                    └── ``CounterexampleData`` (a replayable witness)

The lower three levels live in :mod:`repro.checker.result`, because
both checkers return them directly; this module adds the task and
sweep levels and re-exports the rest.  Every level round-trips through
``to_dict`` / ``from_dict`` (plain JSON types only), so reports can be
cached on disk, shipped across process boundaries, diffed between
engine versions, and compared with ``==`` after a round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.checker.result import (
    CounterexampleData,
    ObligationOutcome,
    QueryOutcome,
    worst_verdict,
)

__all__ = [
    "CounterexampleData",
    "QueryOutcome",
    "ObligationOutcome",
    "TaskResult",
    "RunReport",
    "worst_verdict",
]


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one verification task (all its targets)."""

    task_id: str
    protocol: str
    engine: str
    valuation: Dict[str, int] = field(default_factory=dict)
    obligations: Tuple[ObligationOutcome, ...] = ()
    time_seconds: float = 0.0
    #: served from the sweep runner's on-disk cache
    cached: bool = False
    #: non-empty when the engine raised instead of returning a verdict
    error: str = ""
    #: dispatch attempts the supervised pool spent on this task (1 =
    #: first try succeeded; >1 = retried after a crash/timeout/transient)
    attempts: int = 1
    #: the supervisor's wall-clock ``task_timeout`` killed this task at
    #: least once (the final result may still be a success via retry)
    timed_out: bool = False
    #: served by collapsing onto another request's identical in-flight
    #: task (the verification service's dedup; this request never
    #: triggered a computation of its own)
    deduped: bool = False

    @property
    def verdict(self) -> str:
        if self.error:
            return "error"
        return worst_verdict(o.verdict for o in self.obligations)

    @property
    def counterexample(self) -> Optional[CounterexampleData]:
        for outcome in self.obligations:
            if outcome.counterexample is not None:
                return outcome.counterexample
        return None

    @property
    def queries(self) -> Tuple[QueryOutcome, ...]:
        return tuple(q for o in self.obligations for q in o.queries)

    @property
    def states_explored(self) -> int:
        return sum(o.states_explored for o in self.obligations)

    @property
    def nschemas(self) -> int:
        return sum(o.nschemas for o in self.obligations)

    @property
    def limit_tripped(self) -> str:
        for outcome in self.obligations:
            if outcome.limit_tripped:
                return outcome.limit_tripped
        return ""

    def outcome(self, target: str) -> ObligationOutcome:
        for candidate in self.obligations:
            if candidate.target == target:
                return candidate
        raise KeyError(f"task {self.task_id!r} has no target {target!r}")

    def as_cached(self) -> "TaskResult":
        return replace(self, cached=True)

    def to_dict(self) -> dict:
        data = {
            "task_id": self.task_id,
            "protocol": self.protocol,
            "engine": self.engine,
            "valuation": dict(self.valuation),
            "verdict": self.verdict,
            "obligations": [o.to_dict() for o in self.obligations],
            "time_seconds": self.time_seconds,
            "cached": self.cached,
            "error": self.error,
        }
        # Emitted only when non-default: payloads from undisturbed runs
        # stay byte-identical to pre-supervisor ones (cache entries,
        # golden fixtures, cross-pool-size determinism).
        if self.attempts != 1:
            data["attempts"] = self.attempts
        if self.timed_out:
            data["timed_out"] = True
        if self.deduped:
            data["deduped"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TaskResult":
        return cls(
            task_id=data["task_id"],
            protocol=data["protocol"],
            engine=data["engine"],
            valuation={k: int(v) for k, v in data.get("valuation", {}).items()},
            obligations=tuple(
                ObligationOutcome.from_dict(o) for o in data.get("obligations", [])
            ),
            time_seconds=float(data.get("time_seconds", 0.0)),
            cached=bool(data.get("cached", False)),
            error=data.get("error", ""),
            attempts=int(data.get("attempts", 1)),
            timed_out=bool(data.get("timed_out", False)),
            deduped=bool(data.get("deduped", False)),
        )

    def __str__(self) -> str:
        header = f"{self.task_id}: {self.verdict}"
        if self.error:
            return f"{header} [{self.error}]"
        lines = [header]
        for outcome in self.obligations:
            lines.extend(f"  {line}" for line in str(outcome).splitlines())
        return "\n".join(lines)


@dataclass(frozen=True)
class RunReport:
    """Outcome of a whole sweep, in deterministic task order."""

    results: Tuple[TaskResult, ...]
    processes: int = 1
    code_version: str = ""
    time_seconds: float = 0.0
    cache_hits: int = 0
    #: pool workers respawned after a crash or supervisor timeout
    worker_restarts: int = 0
    #: the serving daemon's id for this request ("" = a local run)
    request_id: str = ""
    #: tasks served by collapsing onto another request's in-flight
    #: computation (the verification service's dedup)
    deduped: int = 0

    @property
    def verdict(self) -> str:
        return worst_verdict(r.verdict for r in self.results)

    def to_dict(self) -> dict:
        data = {
            "results": [r.to_dict() for r in self.results],
            "processes": self.processes,
            "code_version": self.code_version,
            "time_seconds": self.time_seconds,
            "cache_hits": self.cache_hits,
        }
        # Same non-default rule as TaskResult.to_dict: undisturbed runs
        # serialize exactly as they did before supervised dispatch.
        if self.worker_restarts:
            data["worker_restarts"] = self.worker_restarts
        if self.request_id:
            data["request_id"] = self.request_id
        if self.deduped:
            data["deduped"] = self.deduped
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        # Unknown keys are dropped: reports from releases with a sweep
        # journal may carry ``resumed``.
        return cls(
            results=tuple(TaskResult.from_dict(r) for r in data["results"]),
            processes=int(data.get("processes", 1)),
            code_version=data.get("code_version", ""),
            time_seconds=float(data.get("time_seconds", 0.0)),
            cache_hits=int(data.get("cache_hits", 0)),
            worker_restarts=int(data.get("worker_restarts", 0)),
            request_id=data.get("request_id", ""),
            deduped=int(data.get("deduped", 0)),
        )

    def summary(self) -> str:
        """One line per task: id, verdict, states, wall clock."""
        lines = []
        for result in self.results:
            flags = []
            if result.cached:
                flags.append("cached")
            if result.limit_tripped:
                flags.append(f"limit:{result.limit_tripped}")
            if result.attempts > 1:
                flags.append(f"attempts:{result.attempts}")
            if result.timed_out:
                flags.append("timed-out")
            if result.deduped:
                flags.append("deduped")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(
                f"{result.task_id:48s} {result.verdict:9s} "
                f"{result.states_explored:>9d} states "
                f"{result.time_seconds:7.2f}s{suffix}"
            )
        tail = (
            f"-- {len(self.results)} tasks, verdict {self.verdict}, "
            f"{self.cache_hits} cache hits, {self.processes} processes, "
            f"{self.time_seconds:.2f}s wall clock"
        )
        if self.worker_restarts:
            tail += f", {self.worker_restarts} worker restarts"
        if self.deduped:
            tail += f", {self.deduped} deduped"
        if self.request_id:
            tail += f" (request {self.request_id})"
        lines.append(tail)
        return "\n".join(lines)
