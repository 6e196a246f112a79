"""Verdicts, counterexamples and per-target outcomes.

Both checkers build these types directly; :mod:`repro.api.report` adds
the task and sweep levels on top —

``ObligationOutcome`` (one target: agreement / validity / …)
  └── ``QueryOutcome`` (one A- or E-query)
        └── ``CounterexampleData`` (a replayable witness)

Every level round-trips through ``to_dict`` / ``from_dict`` (plain JSON
types only) and compares with ``==`` after a round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.counter.actions import Action

HOLDS = "holds"
VIOLATED = "violated"
UNKNOWN = "unknown"

#: Severity order for aggregation: any violation dominates, any unknown
#: taints, otherwise everything holds.
_SEVERITY = {VIOLATED: 3, "error": 2, UNKNOWN: 1, HOLDS: 0}


def worst_verdict(verdicts) -> str:
    """Aggregate verdict: violated > error > unknown > holds."""
    worst = HOLDS
    for verdict in verdicts:
        if _SEVERITY.get(verdict, 1) > _SEVERITY[worst]:
            worst = verdict
    return worst


@dataclass(frozen=True)
class CounterexampleData:
    """A concrete witness refuting a query: valuation + placement + schedule.

    For A-queries the schedule is a path; for E-queries (games) it is
    one play of the winning adversary strategy (coin branches chosen
    arbitrarily among the all-winning options).  ``schedule`` holds
    :class:`~repro.counter.actions.Action` objects, replayable on the
    explicit semantics; on the wire each is ``[rule, round, branch]``.
    """

    valuation: Dict[str, int]
    initial_placement: Dict[str, int]
    schedule: Tuple[Action, ...]
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "valuation": dict(self.valuation),
            "initial_placement": dict(self.initial_placement),
            "schedule": [
                [action.rule, action.round, action.branch]
                for action in self.schedule
            ],
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CounterexampleData":
        return cls(
            valuation={k: int(v) for k, v in data["valuation"].items()},
            initial_placement={
                k: int(v) for k, v in data["initial_placement"].items()
            },
            schedule=tuple(
                Action(rule, int(rnd), branch)
                for rule, rnd, branch in data["schedule"]
            ),
            description=data.get("description", ""),
        )

    def __str__(self) -> str:
        steps = " ".join(str(action) for action in self.schedule)
        placement = ", ".join(
            f"{name}={count}"
            for name, count in self.initial_placement.items()
            if count
        )
        return (
            f"parameters {self.valuation}; start [{placement}]; "
            f"schedule: {steps}"
        )


@dataclass(frozen=True)
class QueryOutcome:
    """Outcome of one query check."""

    query: str
    verdict: str
    states_explored: int = 0
    #: number of schemas examined (parameterized checker only)
    nschemas: int = 0
    time_seconds: float = 0.0
    #: which resource limit forced an ``unknown``:
    #: ``"max_states"`` | ``"max_nodes"`` | ``"max_seconds"`` | ``""``
    limit_tripped: str = ""
    detail: str = ""
    counterexample: Optional[CounterexampleData] = None

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "verdict": self.verdict,
            "states_explored": self.states_explored,
            "nschemas": self.nschemas,
            "time_seconds": self.time_seconds,
            "limit_tripped": self.limit_tripped,
            "detail": self.detail,
            "counterexample": (
                self.counterexample.to_dict() if self.counterexample else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryOutcome":
        ce = data.get("counterexample")
        return cls(
            query=data["query"],
            verdict=data["verdict"],
            states_explored=int(data.get("states_explored", 0)),
            nschemas=int(data.get("nschemas", 0)),
            time_seconds=float(data.get("time_seconds", 0.0)),
            limit_tripped=data.get("limit_tripped", ""),
            detail=data.get("detail", ""),
            counterexample=CounterexampleData.from_dict(ce) if ce else None,
        )

    def __str__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.query}: {self.verdict}{extra}"


@dataclass(frozen=True)
class ObligationOutcome:
    """Aggregated outcome over one target's obligation bundle."""

    target: str
    queries: Tuple[QueryOutcome, ...] = ()
    side_conditions: Dict[str, bool] = field(default_factory=dict)
    time_seconds: float = 0.0
    #: side conditions cut off by a resource budget, mapped to the
    #: limit that cut them ("max_seconds" | "max_states") — neither
    #: failed nor established.
    skipped_side_conditions: Dict[str, str] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        verdict = worst_verdict(q.verdict for q in self.queries)
        if verdict == HOLDS and (
            not all(self.side_conditions.values())
            or self.skipped_side_conditions
        ):
            return UNKNOWN
        return verdict

    @property
    def counterexample(self) -> Optional[CounterexampleData]:
        for query in self.queries:
            if query.counterexample is not None:
                return query.counterexample
        return None

    @property
    def states_explored(self) -> int:
        return sum(q.states_explored for q in self.queries)

    @property
    def nschemas(self) -> int:
        return sum(q.nschemas for q in self.queries)

    @property
    def limit_tripped(self) -> str:
        for limit in self.limits_tripped:
            return limit
        return ""

    @property
    def limits_tripped(self) -> Tuple[str, ...]:
        """*Every* limit that tripped in this bundle (no masking)."""
        limits = [q.limit_tripped for q in self.queries if q.limit_tripped]
        limits.extend(self.skipped_side_conditions.values())
        return tuple(limits)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "queries": [q.to_dict() for q in self.queries],
            "side_conditions": dict(self.side_conditions),
            "time_seconds": self.time_seconds,
            "skipped_side_conditions": dict(self.skipped_side_conditions),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ObligationOutcome":
        return cls(
            target=data["target"],
            queries=tuple(QueryOutcome.from_dict(q) for q in data["queries"]),
            side_conditions={
                k: bool(v) for k, v in data.get("side_conditions", {}).items()
            },
            time_seconds=float(data.get("time_seconds", 0.0)),
            skipped_side_conditions=dict(
                data.get("skipped_side_conditions", {})
            ),
        )

    def __str__(self) -> str:
        lines = [f"{self.target}: {self.verdict}"]
        for query in self.queries:
            lines.append(f"  {query}")
        for name, ok in self.side_conditions.items():
            lines.append(f"  [side] {name}: {'ok' if ok else 'FAILED'}")
        for name, limit in self.skipped_side_conditions.items():
            lines.append(f"  [side] {name}: skipped ({limit})")
        return "\n".join(lines)
