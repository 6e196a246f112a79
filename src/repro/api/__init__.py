"""``repro.api`` — the one entry point for all verification.

The paper's workflow is "pick a protocol, pick obligations, check them
under one or many parameter valuations, compare engines".  This package
is that workflow as a library:

* :class:`VerificationTask` — what to check: a registry protocol (or a
  custom model), a valuation, an obligation selection, an engine and a
  uniform resource :class:`Limits`;
* :class:`Engine` / :class:`ExplicitEngine` / :class:`ParameterizedEngine`
  — pluggable backends wrapping the explicit and schema checkers;
* :class:`TaskResult` / :class:`RunReport` — JSON-round-trippable
  results (``to_dict`` / ``from_dict``);
* :class:`SweepRunner` — a protocol × valuation × engine matrix fanned
  out over a ``multiprocessing`` pool, with deterministic result
  ordering and an optional on-disk cache.

Quickstart::

    from repro import api

    # one protocol, one valuation, all three consensus properties
    result = api.verify("mmr14", valuation={"n": 4, "t": 1, "f": 1})
    print(result.verdict)               # "violated" — the §II bug
    print(result.counterexample)        # the replayable schedule

    # the whole benchmark, four ways in parallel, cached on disk
    report = api.sweep(processes=4, cache_dir=".repro-cache")
    print(report.summary())

Everything downstream (the CLI ``python -m repro.harness verify|sweep``,
the Table II harness, the examples) goes through this module; nothing
outside engine internals constructs a checker directly.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import CheckError
from repro.protocols.registry import benchmark, by_name
from repro.api.engines import (
    ENGINES,
    Engine,
    ExplicitEngine,
    ParameterizedEngine,
    engine_for,
    engine_names,
)
from repro.api.report import (
    CounterexampleData,
    ObligationOutcome,
    QueryOutcome,
    RunReport,
    TaskResult,
    worst_verdict,
)
from repro.api.sweep import ResultCache, SweepRunner, code_version, run_task
from repro.api.task import TARGETS, Limits, VerificationTask
from repro.counter.store import GraphStore
from repro.supervisor import RetryPolicy, SupervisedPool
from repro.testing import FaultPlan

__all__ = [
    "CounterexampleData",
    "ENGINES",
    "Engine",
    "ExplicitEngine",
    "FaultPlan",
    "GraphStore",
    "Limits",
    "ObligationOutcome",
    "ParameterizedEngine",
    "QueryOutcome",
    "ResultCache",
    "RetryPolicy",
    "RunReport",
    "SupervisedPool",
    "SweepRunner",
    "TARGETS",
    "TaskResult",
    "VerificationTask",
    "code_version",
    "engine_for",
    "engine_names",
    "run_task",
    "sweep",
    "task_matrix",
    "verify",
    "worst_verdict",
]


def verify(
    protocol: Optional[str] = None,
    *,
    model=None,
    valuation=None,
    target: Optional[str] = None,
    targets: Optional[Sequence[str]] = None,
    queries: Sequence = (),
    engine: str = "explicit",
    limits: Optional[Limits] = None,
    coin=None,
    cache_dir: Optional[str] = None,
) -> TaskResult:
    """Verify one protocol (or custom model) and return its result.

    The blocking single-task facade: builds a
    :class:`VerificationTask` and runs it on the requested engine in
    this process.  Engine errors propagate as exceptions (use
    :func:`sweep` / :func:`run_task` for error-capturing behaviour).

    Args:
        protocol: registry name (``"mmr14"``, …) — or pass ``model=``.
        model: a :class:`~repro.core.system.SystemModel` or factory.
        valuation: concrete parameters for the explicit engine;
            registry tasks default to their smallest admissible one.
        target: a single obligation target; ``targets`` for several.
            Omitting both checks agreement, validity and termination.
        queries: extra explicit :class:`~repro.spec.queries.ReachQuery`
            / ``GameQuery`` objects, reported under target "custom".
        engine: ``"explicit"`` | ``"parameterized"`` (or registered).
            The explicit engine expands successors batched when numpy
            imports, scalar otherwise, with bit-identical verdicts and
            ``states_explored``.
        limits: uniform resource budget (:class:`Limits`).
        coin: the :class:`~repro.core.coinspec.CoinSpec` (or spec
            string like ``"biased:1/4"``) the registry models are built
            under; None / ``"perfect"`` is the default fair coin and
            keeps the task's identity byte-identical to a coin-free
            one.  Registry tasks only.
        cache_dir: the sweep runner's on-disk :class:`ResultCache`
            directory; a previously-computed identical task (same
            protocol, valuation, targets, engine, limits *and* code
            version) is served from disk with ``cached=True`` instead
            of re-exploring, and a fresh cacheable verdict is stored
            for later ``verify`` and ``sweep`` runs alike.  Custom
            models / ad-hoc queries always run (no stable identity).
    """
    if target is not None and targets is not None:
        raise CheckError("pass either target= or targets=, not both")
    selected = (target,) if target is not None else tuple(targets or ())
    task = VerificationTask(
        protocol=protocol,
        model=model,
        valuation=dict(valuation) if valuation is not None else None,
        targets=selected,
        queries=tuple(queries),
        engine=engine,
        limits=limits or Limits(),
        coin=coin,
    )
    cache = ResultCache(cache_dir) if cache_dir else None
    key = cache.key_for(task) if cache is not None else None
    if key is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = engine_for(task.engine).run(task)
    if key is not None and SweepRunner._cacheable(result):
        cache.put(key, result)
    return result


def task_matrix(
    protocols: Optional[Sequence[str]] = None,
    valuations: Optional[Sequence[dict]] = None,
    engines: Sequence[str] = ("explicit",),
    targets: Sequence[str] = TARGETS,
    limits: Optional[Limits] = None,
    coins: Sequence = (None,),
) -> list:
    """The protocol × coin × valuation × engine cross product as tasks.

    ``protocols=None`` means all 8 registry protocols;
    ``valuations=None`` uses each protocol's smallest admissible
    valuation.  Order is deterministic: protocol-major, then coin, then
    valuation, then engine — the order results appear in the sweep's
    report.  The default ``coins=(None,)`` (one axis point: the perfect
    coin) leaves the matrix exactly as it was before coin models
    existed.  The parameterized engine quantifies over *all*
    valuations, so it contributes one task per protocol × coin
    regardless of how many valuations the explicit tasks fan out over.
    """
    entries = (
        benchmark()
        if protocols is None
        else tuple(by_name(name) for name in protocols)
    )
    matrix = []
    for entry in entries:
        for coin in coins:
            candidates = valuations if valuations is not None else (None,)
            for position, valuation in enumerate(candidates):
                for engine in engines:
                    chosen = valuation
                    if engine == "parameterized":
                        if position:
                            continue  # valuation-independent: once is enough
                        chosen = None
                    matrix.append(
                        VerificationTask(
                            protocol=entry.name,
                            valuation=dict(chosen) if chosen else None,
                            targets=tuple(targets),
                            engine=engine,
                            limits=limits or Limits(),
                            coin=coin,
                        )
                    )
    return matrix


def sweep(
    tasks: Optional[Sequence[VerificationTask]] = None,
    *,
    protocols: Optional[Sequence[str]] = None,
    valuations: Optional[Sequence[dict]] = None,
    engines: Sequence[str] = ("explicit",),
    targets: Sequence[str] = TARGETS,
    limits: Optional[Limits] = None,
    coins: Optional[Sequence] = None,
    processes: int = 1,
    cache_dir: Optional[str] = None,
    graph_store: Optional[str] = None,
    task_timeout: Optional[float] = None,
    retry=None,
    fault_plan=None,
) -> RunReport:
    """Run a sweep and return its :class:`RunReport`.

    Either pass an explicit ``tasks`` list, or let the keyword matrix
    arguments build one via :func:`task_matrix`.  ``processes > 1``
    fans tasks out over a *supervised* worker pool: a crashed worker is
    respawned and its tasks retried, a task hung past ``task_timeout``
    seconds is killed from outside, and transient failures (crashes,
    timeouts, ``max_seconds`` trips, I/O errors) retry under ``retry``
    (a :class:`RetryPolicy`, a max-attempts int, or None for the
    default bounded backoff-with-jitter policy) — no worker failure
    aborts the sweep.  Each pool job holds the tasks of one bound
    system (protocol, valuation, coin), so a worker binds the system
    once and answers its other targets warm.  Results keep task order
    either way, so reports are bit-identical across pool sizes.
    ``graph_store=`` names the directory of the persistent
    state-graph store, shared by the whole worker pool.  Each
    explored successor graph is kept there as one snapshot file,
    rewritten after a task that grew it and reloaded by later runs
    (fresh processes included), which speeds the tasks the result
    cache cannot skip — results stay bit-identical either way.
    With a ``cache_dir`` every finished registry task is cached as it
    lands, so running an interrupted sweep again with the same
    ``cache_dir`` re-executes only what is not cached: unfinished
    tasks, ``max_seconds`` trips, error results and custom-model
    tasks.  ``fault_plan=`` installs a
    :class:`~repro.testing.faults.FaultPlan` in pool workers (chaos
    testing).
    """
    if tasks is None:
        tasks = task_matrix(
            protocols=protocols,
            valuations=valuations,
            engines=engines,
            targets=targets,
            limits=limits,
            coins=tuple(coins) if coins is not None else (None,),
        )
    return SweepRunner(
        processes=processes,
        cache_dir=cache_dir,
        graph_store=graph_store,
        task_timeout=task_timeout,
        retry=retry,
        fault_plan=fault_plan,
    ).run(tasks)
