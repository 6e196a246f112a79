"""Simulation driver: wire processes, network, coin and scheduler.

:class:`Simulation` owns one protocol instance; :func:`run` drives it
with a scheduler for a bounded number of deliveries and reports a
:class:`SimResult` (who decided what and when, agreement/validity
checks).  :func:`expected_rounds` measures the mean decision round over
many seeds — the "4 expected rounds" folklore number for the fixed
MMR14-family protocols (§II of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.sim.adversary import EquivocatingByzantine, RandomScheduler, Scheduler
from repro.sim.coin import CommonCoin
from repro.sim.network import Network
from repro.sim.process import ByzantineProcess, CorrectProcess
from repro.version import stable_digest


def split_seed(seed: int, stream: str) -> int:
    """A decorrelated sub-seed for ``stream`` derived from ``seed``.

    ``stable_digest`` (sha256) keyed splitting: the coin stream and the
    scheduler stream of one run must not be the *same* integer seed —
    feeding ``seed`` to both ``random.Random`` constructors correlates
    the coin sequence with the delivery order across every run of a
    sweep.  Stable across processes and ``PYTHONHASHSEED`` (fleet
    shards on different workers derive identical streams).
    """
    return int(stable_digest(f"sim-stream:{stream}:{seed}", length=16), 16)


class Simulation:
    """One protocol run: ``n`` processes, the last ``t_actual`` Byzantine."""

    def __init__(
        self,
        process_cls: Type[CorrectProcess],
        n: int,
        t: int,
        inputs: Sequence[int],
        coin_seed: int = 0,
        byzantine_count: Optional[int] = None,
        epsilon: float = 0.5,
        coin=None,
    ):
        if n < 1:
            raise ValueError(f"need at least one process, got n={n}")
        if t < 0:
            raise ValueError(f"fault budget t must be >= 0, got t={t}")
        faulty = t if byzantine_count is None else byzantine_count
        if faulty < 0:
            raise ValueError(
                f"byzantine_count must be >= 0, got {faulty} (a negative "
                f"count would fabricate more correct processes than n)"
            )
        if faulty > t:
            raise ValueError(
                f"byzantine_count {faulty} cannot exceed the fault budget "
                f"t={t}"
            )
        n_correct = n - faulty
        if n_correct < 1:
            raise ValueError(
                f"no correct processes left: n={n} with {faulty} Byzantine"
            )
        if len(inputs) != n_correct:
            raise ValueError(f"need {n_correct} inputs, got {len(inputs)}")
        self.n = n
        self.t = t
        self.network = Network(n)
        self.coin = CommonCoin(seed=coin_seed, epsilon=epsilon, spec=coin)
        self.correct: Dict[int, CorrectProcess] = {}
        for pid in range(n_correct):
            self.correct[pid] = process_cls(
                pid, n, t, self.network, self.coin, inputs[pid]
            )
        self.byzantine: Dict[int, ByzantineProcess] = {
            pid: ByzantineProcess(pid, n, self.network)
            for pid in range(n_correct, n)
        }
        self.steps = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        for process in self.correct.values():
            process.start()

    def deliver(self, envelope) -> None:
        self.network.deliver(envelope)
        self.steps += 1
        target = self.correct.get(envelope.recipient)
        if target is not None:
            target.receive(envelope.sender, envelope.message)
        else:
            self.byzantine[envelope.recipient].receive(
                envelope.sender, envelope.message
            )

    # ------------------------------------------------------------------
    def decided_values(self) -> Dict[int, Optional[int]]:
        return {pid: p.decided for pid, p in self.correct.items()}

    def all_decided(self) -> bool:
        return all(p.decided is not None for p in self.correct.values())

    def agreement_holds(self) -> bool:
        values = {p.decided for p in self.correct.values() if p.decided is not None}
        return len(values) <= 1

    def validity_holds(self) -> bool:
        proposed = {p.input for p in self.correct.values()}
        return all(
            p.decided is None or p.decided in proposed
            for p in self.correct.values()
        )


@dataclass
class SimResult:
    """Outcome of one bounded run."""

    decided: Dict[int, Optional[int]]
    decision_rounds: Dict[int, Optional[int]]
    agreement: bool
    validity: bool
    all_decided: bool
    steps: int
    rounds_reached: int

    def __str__(self) -> str:
        return (
            f"decided={self.decided} rounds={self.decision_rounds} "
            f"agreement={self.agreement} validity={self.validity} "
            f"steps={self.steps}"
        )


def run(
    sim: Simulation,
    scheduler: Scheduler,
    max_steps: int = 50_000,
    stop_when_decided: bool = True,
    stop: Optional[Callable[[Simulation], bool]] = None,
) -> SimResult:
    """Drive the simulation until decision, quiescence or budget.

    ``stop`` is an extra termination predicate over the live simulation
    — the category-A protocols (no decide action) end their runs on
    estimate *convergence* instead of all-decided.
    """
    sim.start()
    byzantine = getattr(scheduler, "byzantine", None)
    for _ in range(max_steps):
        if stop_when_decided and sim.all_decided():
            break
        if stop is not None and stop(sim):
            break
        if byzantine is not None:
            byzantine.inject_round(sim, byzantine.max_round(sim))
        envelope = scheduler.next_envelope(sim)
        if envelope is None:
            break
        sim.deliver(envelope)
    return SimResult(
        decided=sim.decided_values(),
        decision_rounds={pid: p.decided_round for pid, p in sim.correct.items()},
        agreement=sim.agreement_holds(),
        validity=sim.validity_holds(),
        all_decided=sim.all_decided(),
        steps=sim.steps,
        rounds_reached=max(p.round for p in sim.correct.values()),
    )


@dataclass(frozen=True)
class RoundStats:
    """Decision-round statistics over a batch of Monte Carlo runs.

    ``mean`` is the mean 1-based all-decided round **conditioned on the
    run completing** (``inf`` when nothing completed); a protocol that
    hangs 30% of the time therefore reports the *same* mean as one that
    always decides — which is exactly why :attr:`completion` (the
    fraction of runs that decided within budget) travels with it and
    every consumer must report both.
    """

    mean: float
    completed: int
    runs: int

    @property
    def completion(self) -> float:
        """Fraction of runs that fully decided within the step budget."""
        return self.completed / self.runs if self.runs else 0.0


def expected_rounds_stats(
    process_cls: Type[CorrectProcess],
    n: int,
    t: int,
    inputs: Sequence[int],
    runs: int = 50,
    max_steps: int = 50_000,
    byzantine_count: Optional[int] = None,
    with_byzantine_noise: bool = True,
    coin=None,
) -> RoundStats:
    """Decision-round statistics over ``runs`` random-scheduler runs.

    Run ``seed`` derives decorrelated sub-seeds for the coin and the
    scheduler via :func:`split_seed`.
    """
    total = 0.0
    completed = 0
    for seed in range(runs):
        sim = Simulation(
            process_cls, n, t, inputs,
            coin_seed=split_seed(seed, "coin"),
            byzantine_count=byzantine_count, coin=coin,
        )
        scheduler = RandomScheduler(seed=split_seed(seed, "scheduler"))
        if with_byzantine_noise and sim.byzantine:
            scheduler.byzantine = EquivocatingByzantine(list(sim.byzantine))
        result = run(sim, scheduler, max_steps=max_steps)
        if result.all_decided:
            completed += 1
            total += max(result.decision_rounds.values()) + 1
    mean = total / completed if completed else float("inf")
    return RoundStats(mean=mean, completed=completed, runs=runs)


def expected_rounds(
    process_cls: Type[CorrectProcess],
    n: int,
    t: int,
    inputs: Sequence[int],
    runs: int = 50,
    max_steps: int = 50_000,
    byzantine_count: Optional[int] = None,
    with_byzantine_noise: bool = True,
    coin=None,
) -> float:
    """Mean decision round (1-based) over ``runs`` random-scheduler runs.

    **Conditioned on completion** — non-terminating runs are excluded
    from the mean.  Callers that care about hangs should use
    :func:`expected_rounds_stats`, which reports the completion
    fraction alongside.
    """
    return expected_rounds_stats(
        process_cls, n, t, inputs,
        runs=runs, max_steps=max_steps, byzantine_count=byzantine_count,
        with_byzantine_noise=with_byzantine_noise, coin=coin,
    ).mean
