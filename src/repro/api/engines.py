"""Pluggable verification engines.

An :class:`Engine` turns a :class:`~repro.api.task.VerificationTask`
into a :class:`~repro.api.report.TaskResult`.  Two adapters wrap the
existing checkers:

* :class:`ExplicitEngine` — exhaustive explicit-state checking at the
  task's concrete valuation (:class:`~repro.checker.explicit.
  ExplicitChecker`).  Handles every query shape and the Theorem 2 side
  conditions.
* :class:`ParameterizedEngine` — schema-based checking over *all*
  admissible valuations (:class:`~repro.checker.parameterized.
  ParameterizedChecker`).  A-queries only: game queries are reported
  ``unknown`` (explicit-only by Lemma 2's game reduction), and the
  Theorem 2 side conditions are *omitted* from the outcome — as in the
  paper's ByMC workflow, a parametric ``holds`` covers the A-queries
  alone and the side conditions are discharged on the explicit engine.

Both honour the same :class:`~repro.api.task.Limits` and record which
limit tripped per query.  New engines (remote backends, sharded
explicit search, …) plug in through :func:`register_engine` without
touching any caller.

Engines are deliberately stateless: all cross-run warmth lives in the
process-wide caches below them.  The checkers bind their models through
:func:`~repro.counter.program.shared_program` /
:func:`~repro.counter.system.shared_system`, so within one task the
agreement and validity targets share a bound system (termination uses
the refined model's own), and across tasks a persistent sharded-sweep
worker reuses the compiled program for every valuation of its shard.

Heap rules of the explicit engine
---------------------------------
An explicit task builds graphs of up to about a million objects
(interned configs, ``(Action, Config)`` pairs, move groups).  Three
rules keep CPython's cyclic garbage collector out of that work:

* nothing in a graph refers back to its bound system (the batch
  expander holds it weakly), so a dropped or evicted system is freed
  by reference counting the moment its last user lets go;
* every path that builds actions takes them from the program's one
  ``Action`` table, so edges share labels instead of each owning one;
* :meth:`ExplicitEngine.run` pauses the collector for the task
  (:func:`_collector_paused`).  The task leaves no cyclic garbage, and
  without the pause the collector re-walks the growing graph every
  time the long-lived heap grows by a quarter.  The pause is global to
  the process; pool workers run one task at a time and the daemon
  dispatches from one thread, and two tasks overlapping in threads
  only lose the pause, never an answer.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Protocol, Tuple

from repro.checker.explicit import ExplicitChecker
from repro.checker.parameterized import ParameterizedChecker, unsupported
from repro.checker.result import ObligationOutcome
from repro.errors import CheckError
from repro.spec.obligations import obligations_for
from repro.spec.queries import ReachQuery
from repro.api.report import TaskResult
from repro.api.task import VerificationTask

__all__ = [
    "Engine",
    "ExplicitEngine",
    "ParameterizedEngine",
    "ENGINES",
    "engine_for",
    "engine_names",
    "register_engine",
]

#: Default budgets applied when a task's Limits leave a field None.
DEFAULT_MAX_STATES = 400_000
DEFAULT_MAX_NODES = 100_000


class Engine(Protocol):
    """The engine interface: run one task, return its result."""

    name: str

    def run(self, task: VerificationTask) -> TaskResult:
        """Check every target (and custom query) of ``task``."""
        ...


def _result(task: VerificationTask, outcomes, started: float) -> TaskResult:
    return TaskResult(
        task_id=task.task_id,
        protocol=task.protocol_name,
        engine=task.engine,
        valuation=task.resolved_valuation(strict=False),
        obligations=tuple(outcomes),
        time_seconds=time.perf_counter() - started,
    )


@contextmanager
def _collector_paused():
    """Disable the cyclic collector for the body, if it is enabled.

    Turns it back on when the body exits, also when it raises; a
    caller that had already disabled it finds it still disabled.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class ExplicitEngine:
    """Exhaustive explicit-state verification at one valuation.

    Successors are expanded a frontier at a time by numpy when it
    imports, one config at a time otherwise; verdicts and
    ``states_explored`` are bit-identical either way.
    """

    name = "explicit"

    def run(self, task: VerificationTask) -> TaskResult:
        with _collector_paused():
            started = time.perf_counter()
            valuation = task.resolved_valuation()
            limits = task.limits
            outcomes: List[ObligationOutcome] = []
            for target in task.targets:
                # One checker per target; targets on the same model
                # structure (agreement/validity) share their bound
                # system and explored graph through shared_system.
                checker = ExplicitChecker(
                    task.model_for_target(target),
                    valuation,
                    max_states=(
                        limits.max_states
                        if limits.max_states is not None
                        else DEFAULT_MAX_STATES
                    ),
                    max_seconds=limits.max_seconds,
                )
                outcomes.append(checker.check_obligations(
                    obligations_for(checker.model, target)
                ))
            if task.queries:
                outcomes.append(self._custom_queries(task, valuation))
            return _result(task, outcomes, started)

    def _custom_queries(self, task: VerificationTask, valuation) -> ObligationOutcome:
        limits = task.limits
        t0 = time.perf_counter()
        checker = ExplicitChecker(
            task.model_for_target(task.targets[0] if task.targets else "agreement"),
            valuation,
            max_states=(
                limits.max_states
                if limits.max_states is not None
                else DEFAULT_MAX_STATES
            ),
            max_seconds=limits.max_seconds,
        )
        with checker.shared_deadline():
            results = tuple(checker.check(query) for query in task.queries)
        return ObligationOutcome(
            target="custom",
            queries=results,
            time_seconds=time.perf_counter() - t0,
        )


class ParameterizedEngine:
    """Schema-based verification over all admissible valuations."""

    name = "parameterized"

    def run(self, task: VerificationTask) -> TaskResult:
        started = time.perf_counter()
        outcomes: List[ObligationOutcome] = []
        for target in task.targets:
            checker = self._checker(task, task.model_for_target(target))
            outcomes.append(
                checker.check_obligations(obligations_for(checker.model, target))
            )
        if task.queries:
            outcomes.append(self._custom_queries(task))
        return _result(task, outcomes, started)

    def _checker(self, task: VerificationTask, model) -> ParameterizedChecker:
        limits = task.limits
        return ParameterizedChecker(
            model,
            node_budget=(
                limits.max_nodes
                if limits.max_nodes is not None
                else DEFAULT_MAX_NODES
            ),
            max_seconds=limits.max_seconds,
        )

    def _custom_queries(self, task: VerificationTask) -> ObligationOutcome:
        t0 = time.perf_counter()
        model = task.model_for_target(
            task.targets[0] if task.targets else "agreement"
        )
        checker = self._checker(task, model)
        results = []
        with checker.shared_deadline():
            for query in task.queries:
                if isinstance(query, ReachQuery):
                    results.append(checker.check_reach(query))
                else:
                    results.append(unsupported(query.name))
        return ObligationOutcome(
            target="custom",
            queries=tuple(results),
            time_seconds=time.perf_counter() - t0,
        )


#: Engine registry; extended at runtime via :func:`register_engine`.
ENGINES: Dict[str, Callable[[], Engine]] = {
    ExplicitEngine.name: ExplicitEngine,
    ParameterizedEngine.name: ParameterizedEngine,
}

#: Engines available in a freshly-imported worker process.  Runtime
#: registrations only exist in the registering process, so the sweep
#: runner keeps tasks on non-builtin engines inline.
BUILTIN_ENGINES = frozenset(ENGINES)


def register_engine(name: str, factory: Callable[[], Engine]) -> None:
    """Add (or override) an engine under ``name``."""
    ENGINES[name] = factory


def engine_names() -> Tuple[str, ...]:
    return tuple(sorted(ENGINES))


def engine_for(name: str) -> Engine:
    try:
        factory = ENGINES[name]
    except KeyError:
        raise CheckError(
            f"unknown engine {name!r}; registered: {', '.join(engine_names())}"
        ) from None
    return factory()
