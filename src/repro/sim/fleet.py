"""Monte Carlo fleets over the executable substrate.

One *fleet* is thousands of independent :class:`~repro.sim.runner.
Simulation` instances of a single (protocol, coin, scheduler) cell.
Runs are pure CPU, so each shard of seeds is one plain loop, one run
after another; a run that raises becomes that seed's ``error`` record.
Across cores, the seed list is sharded over the existing
:class:`~repro.supervisor.SupervisedPool` workers, so a fleet
inherits the sweep infrastructure's timeouts, bounded retries and
crash-resilience for free — a worker OOM-killed mid-shard surfaces as
per-seed ``error`` records, never a crashed experiment.

The product is a :class:`FleetReport`: per-run records (seed, outcome,
termination round, safety checks) plus derived statistics — the
termination-probability-by-round curve with Wilson score intervals,
expected rounds *with* the completion fraction (the two travel
together; see :class:`~repro.sim.runner.RoundStats`), and
agreement/validity violation counts with the offending seeds for
replay.  Reports round-trip through JSON (``to_dict``/``from_dict``)
and are **seed-reproducible**: every run's RNG streams derive from
``base_seed + i`` via :func:`~repro.sim.runner.split_seed`, so the
same invocation yields the same report regardless of sharding or
worker count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.coinspec import CoinLike, resolve_coin_spec
from repro.sim.registry import SimProtocol, sim_by_name
from repro.sim.runner import Simulation, split_seed

#: bump when the report schema changes shape
FLEET_REPORT_VERSION = 1

#: z for 99% Wilson score intervals (matches the α=0.01 gate tests).
_Z99 = 2.5758293035489004


def wilson_interval(successes: int, total: int, z: float = _Z99):
    """Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z * z / total
    centre = p + z * z / (2 * total)
    spread = z * math.sqrt(p * (1.0 - p) / total + z * z / (4 * total * total))
    # Clamp to [0, 1] and force the interval to contain the point
    # estimate (float rounding can land the p = 1 bound at 1 - ulp).
    low = min(max(0.0, (centre - spread) / denom), p)
    high = max(min(1.0, (centre + spread) / denom), p)
    return low, high


@dataclass(frozen=True)
class RunRecord:
    """One simulation's outcome (the report's unit of replay)."""

    seed: int
    decided: bool
    #: 0-based round of the termination witness (None: ran out of budget)
    decision_round: Optional[int]
    #: the agreed value (None: not terminated or agreement violated)
    decision_value: Optional[int]
    rounds_reached: int
    steps: int
    agreement: bool
    validity: bool
    error: Optional[str] = None


@dataclass
class FleetReport:
    """Everything one fleet produced, JSON-round-trippable."""

    protocol: str
    coin: str
    scheduler: str
    n: int
    t: int
    byzantine_count: int
    max_steps: int
    base_seed: int
    records: List[RunRecord] = field(default_factory=list)

    # -- derived statistics --------------------------------------------
    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def ok_records(self) -> List[RunRecord]:
        return [r for r in self.records if r.error is None]

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.decided)

    @property
    def completion(self) -> float:
        return self.completed / self.runs if self.runs else 0.0

    def completion_interval(self) -> Tuple[float, float]:
        return wilson_interval(self.completed, self.runs)

    def decision_rounds(self) -> List[int]:
        """0-based termination rounds of the completed runs."""
        return [
            r.decision_round
            for r in self.records
            if r.decision_round is not None
        ]

    def decision_outcomes(self) -> List[Tuple[int, Optional[int]]]:
        """(0-based round, agreed value) pairs of the completed runs."""
        return [
            (r.decision_round, r.decision_value)
            for r in self.records
            if r.decision_round is not None
        ]

    def expected_rounds(self) -> float:
        """Mean 1-based termination round, conditioned on completion.

        ``inf`` when nothing completed; always read together with
        :attr:`completion` — a hanging protocol does not get to launder
        its hangs out of the mean (that was the pre-fleet estimator
        bug).
        """
        rounds = self.decision_rounds()
        if not rounds:
            return float("inf")
        return sum(rounds) / len(rounds) + 1.0

    def expected_rounds_interval(self) -> Tuple[float, float]:
        """Normal-approximation 99% CI around :meth:`expected_rounds`."""
        rounds = self.decision_rounds()
        if len(rounds) < 2:
            return float("inf"), float("inf")
        mean = sum(rounds) / len(rounds)
        var = sum((x - mean) ** 2 for x in rounds) / (len(rounds) - 1)
        half = _Z99 * math.sqrt(var / len(rounds))
        return mean + 1.0 - half, mean + 1.0 + half

    def termination_curve(self, through: Optional[int] = None):
        """P(terminated by round r) with Wilson CIs, r = 1-based.

        Each point: ``{"round": r, "p": ..., "lo": ..., "hi": ...}``
        over *all* runs (errors count as non-terminated — the curve is
        an experiment-level quantity, not a conditional one).
        """
        rounds = self.decision_rounds()
        if through is None:
            through = max(rounds) + 1 if rounds else 0
        curve = []
        for r in range(1, through + 1):
            done = sum(1 for x in rounds if x + 1 <= r)
            lo, hi = wilson_interval(done, self.runs)
            curve.append(
                {
                    "round": r,
                    "p": done / self.runs if self.runs else 0.0,
                    "lo": lo,
                    "hi": hi,
                }
            )
        return curve

    def agreement_violations(self) -> List[int]:
        """Seeds whose run violated agreement (replayable)."""
        return [r.seed for r in self.ok_records if not r.agreement]

    def validity_violations(self) -> List[int]:
        return [r.seed for r in self.ok_records if not r.validity]

    def error_seeds(self) -> List[int]:
        return [r.seed for r in self.records if r.error is not None]

    # -- serialization --------------------------------------------------
    def summary(self) -> dict:
        lo, hi = self.completion_interval()
        elo, ehi = self.expected_rounds_interval()
        return {
            "runs": self.runs,
            "completed": self.completed,
            "completion": self.completion,
            "completion_ci99": [lo, hi],
            "expected_rounds": self.expected_rounds(),
            "expected_rounds_ci99": [elo, ehi],
            "agreement_violations": self.agreement_violations(),
            "validity_violations": self.validity_violations(),
            "errors": self.error_seeds(),
            "termination_curve": self.termination_curve(),
        }

    def to_dict(self) -> dict:
        return {
            "kind": "fleet_report",
            "version": FLEET_REPORT_VERSION,
            "protocol": self.protocol,
            "coin": self.coin,
            "scheduler": self.scheduler,
            "n": self.n,
            "t": self.t,
            "byzantine_count": self.byzantine_count,
            "max_steps": self.max_steps,
            "base_seed": self.base_seed,
            "records": [asdict(r) for r in self.records],
            "summary": self.summary(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetReport":
        if data.get("kind") != "fleet_report":
            raise ValueError(
                f"not a fleet report: kind={data.get('kind')!r}"
            )
        records = [RunRecord(**r) for r in data["records"]]
        return cls(
            protocol=data["protocol"],
            coin=data["coin"],
            scheduler=data["scheduler"],
            n=data["n"],
            t=data["t"],
            byzantine_count=data["byzantine_count"],
            max_steps=data["max_steps"],
            base_seed=data["base_seed"],
            records=records,
        )


# ----------------------------------------------------------------------
# Driving the runs of one shard


def _drive(
    proto: SimProtocol,
    coin: str,
    scheduler_name: str,
    seed: int,
    max_steps: int,
    byzantine_noise: bool,
) -> RunRecord:
    sim = Simulation(
        proto.process_cls,
        proto.n,
        proto.t,
        proto.mixed_inputs(),
        coin_seed=split_seed(seed, "coin"),
        byzantine_count=proto.f,
        coin=coin,
    )
    scheduler = proto.make_scheduler(
        sim, scheduler_name, split_seed(seed, "scheduler"),
        byzantine_noise=byzantine_noise,
    )
    stop = proto.stop_predicate()
    byzantine = getattr(scheduler, "byzantine", None)
    sim.start()
    for _ in range(max_steps):
        if proto.decides and sim.all_decided():
            break
        if stop is not None and stop(sim):
            break
        if byzantine is not None:
            byzantine.inject_round(sim, byzantine.max_round(sim))
        envelope = scheduler.next_envelope(sim)
        if envelope is None:
            break
        sim.deliver(envelope)
    decision_round = proto.termination_round(sim)
    return RunRecord(
        seed=seed,
        decided=decision_round is not None,
        decision_round=decision_round,
        decision_value=proto.termination_value(sim),
        rounds_reached=max(p.round for p in sim.correct.values()),
        steps=sim.steps,
        agreement=sim.agreement_holds(),
        validity=sim.validity_holds(),
    )


def _error_record(seed: int, exc: BaseException) -> RunRecord:
    return RunRecord(
        seed=seed,
        decided=False,
        decision_round=None,
        decision_value=None,
        rounds_reached=0,
        steps=0,
        agreement=True,
        validity=True,
        error=f"{type(exc).__name__}: {exc}",
    )


def _run_shard(payload: dict) -> List[RunRecord]:
    """Run one shard's seeds in order; a raising run is its seed's error."""
    proto = sim_by_name(payload["protocol"])
    records = []
    for seed in payload["seeds"]:
        try:
            record = _drive(
                proto,
                payload["coin"],
                payload["scheduler"],
                seed,
                payload["max_steps"],
                payload["byzantine_noise"],
            )
        except Exception as exc:  # noqa: BLE001 — per-run isolation
            record = _error_record(seed, exc)
        records.append(record)
    return records


# -- SupervisedPool glue (module-level, picklable) ---------------------


def _fleet_worker(payload: dict) -> List[dict]:
    """Pool target: run one shard's seeds, return plain record dicts."""
    return [asdict(record) for record in _run_shard(payload)]


def _fleet_fallback(payload: dict, exc: BaseException) -> dict:
    return {"failed_seeds": list(payload["seeds"]),
            "error": f"{type(exc).__name__}: {exc}"}


def _fleet_failure(payload: dict, kind: str, detail: str) -> dict:
    return {"failed_seeds": list(payload["seeds"]),
            "error": f"{kind}: {detail}"}


def _shards(seeds: Sequence[int], count: int) -> List[List[int]]:
    """Contiguous near-even shards (merge order restored by seed sort)."""
    count = max(1, min(count, len(seeds)))
    size, extra = divmod(len(seeds), count)
    shards, start = [], 0
    for i in range(count):
        end = start + size + (1 if i < extra else 0)
        shards.append(list(seeds[start:end]))
        start = end
    return shards


def run_fleet(
    protocol: str,
    *,
    coin: CoinLike = None,
    runs: int = 1000,
    scheduler: str = "random",
    max_steps: int = 20_000,
    base_seed: int = 0,
    processes: int = 1,
    byzantine_noise: bool = True,
    task_timeout: Optional[float] = None,
) -> FleetReport:
    """Execute ``runs`` instances of one (protocol, coin, scheduler) cell.

    ``processes <= 1`` runs every seed in this interpreter, one after
    another; larger values shard the seed list across a
    :class:`~repro.supervisor.SupervisedPool` (each worker running
    the same loop on its shard).  The report is identical either way —
    records are keyed and re-ordered by seed, and every RNG stream
    derives from the seed alone.
    """
    proto = sim_by_name(protocol)
    spec = resolve_coin_spec(coin)
    if runs < 1:
        raise ValueError(f"need at least one run, got runs={runs}")
    # Validate the scheduler choice before spawning anything.
    proto.make_scheduler(
        Simulation(
            proto.process_cls, proto.n, proto.t, proto.mixed_inputs(),
            byzantine_count=proto.f,
        ),
        scheduler, 0, byzantine_noise=byzantine_noise,
    )
    seeds = [base_seed + i for i in range(runs)]
    payload_base = {
        "protocol": proto.name,
        "coin": spec.spec_str(),
        "scheduler": scheduler,
        "max_steps": max_steps,
        "byzantine_noise": byzantine_noise,
    }
    if processes <= 1:
        records = _run_shard({**payload_base, "seeds": seeds})
    else:
        records = _pooled_records(
            payload_base, seeds, processes, task_timeout
        )
    records.sort(key=lambda record: record.seed)
    return FleetReport(
        protocol=proto.name,
        coin=spec.spec_str(),
        scheduler=scheduler,
        n=proto.n,
        t=proto.t,
        byzantine_count=proto.f,
        max_steps=max_steps,
        base_seed=base_seed,
        records=records,
    )


def _pooled_records(
    payload_base: dict,
    seeds: List[int],
    processes: int,
    task_timeout: Optional[float],
) -> List[RunRecord]:
    from repro.supervisor import SupervisedPool

    # A few shards per worker keeps retry granularity small without
    # paying per-run dispatch overhead.
    shards = _shards(seeds, processes * 4)
    jobs: List[List[tuple]] = [[] for _ in range(processes)]
    for index, shard in enumerate(shards):
        jobs[index % processes].append(
            (index, {**payload_base, "seeds": shard})
        )
    with SupervisedPool(
        processes,
        _fleet_worker,
        task_timeout=task_timeout,
        retry=1,
        fallback=_fleet_fallback,
        failure=_fleet_failure,
    ) as pool:
        outcome = pool.run([job for job in jobs if job])
    records: List[RunRecord] = []
    for index, shard in enumerate(shards):
        result = outcome.results.get(index)
        if isinstance(result, list):
            records.extend(RunRecord(**r) for r in result)
        else:
            detail = (
                result.get("error", "shard lost")
                if isinstance(result, dict)
                else f"shard result {result!r}"
            )
            records.extend(
                _error_record(seed, RuntimeError(detail)) for seed in shard
            )
    return records
