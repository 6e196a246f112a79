"""Executable asynchronous message-passing substrate.

Real (non-counter-abstracted) implementations of every registry
protocol — the BV-broadcast family (MMR14, Miller18, ABY22) and the
voting family (Rabin83, CC85a/b, FMR05, KS16) — over a reliable
point-to-point network with adversary-controlled delivery, Byzantine
equivocation and an ε-Good common-coin oracle, including the §II
adaptive attack that starves MMR14 forever.  :mod:`repro.sim.fleet`
executes thousands of instances concurrently; the test oracle
``tests/sim/crossval.py`` cross-validates the empirical statistics
against the checker's exact MDP.
"""

from repro.sim.aby22 import ABY22Process
from repro.sim.adversary import (
    AdaptiveCoinAttack,
    EquivocatingByzantine,
    RandomScheduler,
    Scheduler,
)
from repro.sim.coin import CommonCoin
from repro.sim.fleet import FleetReport, RunRecord, run_fleet, wilson_interval
from repro.sim.miller18 import Miller18Process
from repro.sim.mmr14 import MMR14Process
from repro.sim.network import Envelope, Message, Network
from repro.sim.process import ByzantineProcess, CorrectProcess, RoundState
from repro.sim.registry import SimProtocol, sim_benchmark, sim_by_name, sim_names
from repro.sim.runner import (
    RoundStats,
    SimResult,
    Simulation,
    expected_rounds,
    expected_rounds_stats,
    run,
    split_seed,
)
from repro.sim.voting import (
    CC85aProcess,
    CC85bProcess,
    FMR05Process,
    KS16Process,
    Rabin83Process,
    VotingProcess,
    converged_round,
)

__all__ = [
    "ABY22Process",
    "AdaptiveCoinAttack",
    "ByzantineProcess",
    "CC85aProcess",
    "CC85bProcess",
    "CommonCoin",
    "CorrectProcess",
    "Envelope",
    "EquivocatingByzantine",
    "FMR05Process",
    "FleetReport",
    "KS16Process",
    "Message",
    "Miller18Process",
    "MMR14Process",
    "Network",
    "Rabin83Process",
    "RandomScheduler",
    "RoundState",
    "RoundStats",
    "RunRecord",
    "Scheduler",
    "SimProtocol",
    "SimResult",
    "Simulation",
    "VotingProcess",
    "converged_round",
    "expected_rounds",
    "expected_rounds_stats",
    "run",
    "run_fleet",
    "sim_benchmark",
    "sim_by_name",
    "sim_names",
    "split_seed",
    "wilson_interval",
]
