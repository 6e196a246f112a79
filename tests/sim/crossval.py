"""Sim-vs-checker cross-validation: the standing statistical gate.

The repo models every benchmark protocol twice — the counter-system
MDP (§III-E semantics, sampled under a :class:`~repro.counter.
adversary.RandomAdversary`) and the message-level simulator (driven at
fleet scale by :mod:`repro.sim.fleet`).  This module turns the PR-5
single-protocol agreement test into a library: termination-round
extractors for both layers over the *whole* registry, and the
chi-square machinery that compares them per (protocol, coin) cell.

What is (and is not) comparable across layers:

* **termination** — both layers must terminate with agreeing frequency
  under random scheduling (2×2 decided/undecided homogeneity);
* **shape** — decision rounds are geometric *past the modal round* in
  both layers.  Under Byzantine noise a run first spends a short
  transient unanimizing the correct estimates (no decision is possible
  before that), so the raw decision round is transient + geometric and
  a plain geometric fit rejects it wholesale.  Memorylessness holds
  conditionally: given no decision by the modal round, the remaining
  wait is geometric.  The gate therefore re-bases every group at its
  mode (:func:`geometric_tail`) and fits the tail.  Under a biased
  coin the pooled distribution is additionally a two-rate mixture —
  each decided *value*'s subsample is geometric on its own (a
  unanimized estimate is absorbing; it decides exactly when the coin
  lands on it), so the fit splits per value;
* **rate** — only the simulator's tail rate is pinned to the coin
  lottery (P(coin = v) for value-v decisions), because its round
  structure matches the folklore argument directly;
* **failed coins** — the one deliberate semantic divergence: a failed
  model round *publishes nothing*, parking the coin automaton on
  ``Tbot``/``Cbot`` and blocking every coin-guarded rule forever,
  while the simulator's oracle serves per-process private bits and the
  run proceeds.  Failing cells therefore do not get a homogeneity
  check; instead every undecided MDP path must be parked on a failed
  coin, and the simulator must still terminate;
* **category A** — Rabin83 terminates by estimate *convergence*, which
  is not memoryless (the first common-coin round unanimizes with
  probability ~1 at ``n = 11, t = 1``), so A cells check termination
  and round-support agreement, not a geometric fit.

All tolerances live in module constants so a calibration run can tune
them in one place; everything is seeded, so the gate guards modelling
drift, not sampling noise.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.core.coinspec import CoinLike, resolve_coin_spec
from repro.counter.adversary import RandomAdversary
from repro.counter.mdp import sample_path
from repro.counter.store import InternTable
from repro.counter.system import CounterSystem
from repro.protocols.registry import by_name
from repro.sim.fleet import FleetReport, run_fleet
from repro.sim.registry import sim_by_name

#: χ² critical values at α = 0.01 by degrees of freedom.
CHI2_CRIT = {1: 6.63, 2: 9.21, 3: 11.34, 4: 13.28, 5: 15.09, 6: 16.81,
             7: 18.48, 8: 20.09}

#: minimum termination frequency either layer must show (non-failing).
TERMINATION_MIN = 0.95
#: maximum |sim − mdp| termination-frequency gap (non-failing cells).
TERMINATION_GAP = 0.05
#: sim-layer tail decision rate must sit within
#: [lottery − RATE_SLACK_BELOW, lottery + RATE_TOLERANCE]: residual
#: unanimization transient in the tail can only *slow* decisions (it
#: deflates p̂, never inflates it), so the band is wider below.  The
#: drag is worst for high-rate groups, whose geometric wait is too
#: short to dominate the transient.
RATE_TOLERANCE = 0.16
RATE_SLACK_BELOW = 0.30
#: per-value geometric fits need at least this many samples.
MIN_SUBSAMPLE = 25
#: geometric GOF bin counts per layer (tail-binned beyond).
SIM_GOF_BINS = 4
MDP_GOF_BINS = 8


@dataclass
class LayerSample:
    """One layer's sampled termination outcomes for a cell."""

    #: (0-based termination round, agreed value or None) per run
    outcomes: List[Tuple[int, Optional[int]]]
    runs: int
    #: undecided runs whose coin automaton parked on Tbot/Cbot
    parked: int = 0

    @property
    def rounds(self) -> List[int]:
        return [round_no for round_no, _value in self.outcomes]

    @property
    def undecided(self) -> int:
        return self.runs - len(self.outcomes)

    @property
    def termination_frequency(self) -> float:
        return len(self.outcomes) / self.runs if self.runs else 0.0

    def rounds_for(self, value: int) -> List[int]:
        return [r for r, v in self.outcomes if v == value]


# ----------------------------------------------------------------------
# Extractors


def sim_layer(
    protocol: str,
    coin: CoinLike = None,
    runs: int = 150,
    max_steps: int = 20_000,
    base_seed: int = 0,
    processes: int = 1,
) -> LayerSample:
    """The simulator's termination outcomes, via a fleet run."""
    report = run_fleet(
        protocol, coin=coin, runs=runs, max_steps=max_steps,
        base_seed=base_seed, processes=processes,
    )
    return sample_from_report(report)


def sample_from_report(report: FleetReport) -> LayerSample:
    return LayerSample(outcomes=report.decision_outcomes(),
                       runs=report.runs)


def mdp_layer(
    protocol: str,
    coin: CoinLike = None,
    runs: int = 150,
    max_steps: int = 12_000,
    base_seed: int = 0,
) -> LayerSample:
    """Sampled termination outcomes of the counter-system MDP.

    Mirrors the fleet's setup: the checker entry's small valuation and
    the same maximally-split input placement the simulator uses.

    Paths stop at the first failed toss (a ``Tbot``/``Cbot`` counter
    going positive) as well as on termination.  A failing coin's
    automaton returns to ``J2`` after every toss, so a random adversary
    can walk it through unboundedly many rounds ahead of the processes;
    the config then grows a layer per round and per-step cost becomes
    quadratic.  Stopping at the park keeps the cell classification
    consistent — a parked path counts as undecided ∧ parked, and
    failing-coin cells assert exactly that (no termination floor, no
    homogeneity or rate pin), while the decided-before-park rounds that
    feed the goodness-of-fit stay geometric as the winning arm of a
    decide-vs-park race of memoryless competitors.  Perfect and biased
    coins have no ``Tbot``/``Cbot`` locations, so the predicate is
    inert for them.
    """
    entry = by_name(protocol)
    # A private intern table, as the parameterized checker's replay
    # uses, so sampled configs never pile up in the program's
    # process-lifetime table; it is emptied after each path, so the
    # cell holds one path's configs at a time, not all of them.
    intern_table = InternTable()
    system = CounterSystem(entry.build_model(coin=coin),
                           entry.small_valuation,
                           intern_table=intern_table)
    proto = sim_by_name(protocol)
    inputs = proto.mixed_inputs()
    placement = {
        "J0": sum(1 for value in inputs if value == 0),
        "J1": sum(1 for value in inputs if value == 1),
    }
    if system.n_coins:
        placement[system.coin_start[0].name] = system.n_coins
    config = system.make_config(placement)
    terminated = _terminated_probe(system, entry.category)
    parked_probe = _parked_probe(system)

    outcomes: List[Tuple[int, Optional[int]]] = []
    parked = 0
    for seed in range(base_seed, base_seed + runs):
        path = sample_path(
            system, config, RandomAdversary(seed=seed),
            random.Random(seed), max_steps=max_steps,
            stop=lambda c: terminated(c) is not None or parked_probe(c),
        )
        outcome = terminated(path.last)
        if outcome is not None:
            outcomes.append(outcome)
        elif parked_probe(path.last):
            parked += 1
        intern_table.reset()
    return LayerSample(outcomes=outcomes, runs=runs, parked=parked)


def _terminated_probe(system: CounterSystem, category: str):
    """config -> (0-based round, value) | None, per category semantics."""
    processes = system.n_processes
    if category == "A":
        def probe(config):
            # Convergence: a fully-voted layer with unanimous votes.
            for round_no in range(config.rounds):
                v0 = system.value_of(config, "v0", round_no)
                v1 = system.value_of(config, "v1", round_no)
                if v0 + v1 == processes and (v0 == 0 or v1 == 0):
                    return round_no, (0 if v1 == 0 else 1)
            return None
        return probe

    d0, d1 = system.loc_index["D0"], system.loc_index["D1"]
    block = system.block

    def probe(config):
        data = config.data
        for round_no in range(config.rounds):
            base = round_no * block
            in_d0, in_d1 = data[base + d0], data[base + d1]
            if in_d0 + in_d1 == processes:
                return round_no, (0 if in_d1 == 0 else 1)
        return None
    return probe


def _parked_probe(system: CounterSystem):
    """config -> did the coin park on a failed-toss location?"""
    indices = [
        system.loc_index[name]
        for name in ("Tbot", "Cbot")
        if name in system.loc_index
    ]
    if not indices:
        return lambda config: False
    block = system.block

    def probe(config):
        data = config.data
        return any(
            data[round_no * block + index]
            for round_no in range(config.rounds)
            for index in indices
        )
    return probe


# ----------------------------------------------------------------------
# Statistics


def chi2_geometric(
    rounds: List[int], bins: int
) -> Tuple[float, float, int]:
    """χ² of ``rounds`` against Geometric(p̂), equal-probability bins.

    p̂ is the moment estimate 1 / (1 + mean).  Bin edges sit at the
    *fitted* distribution's quantiles, so every bin's expected count is
    ≈ ``n / bins`` regardless of the rate — unit-width bins break down
    on low-rate samples (a p̂ ≈ 0.01 MDP layer spreads 100 runs over
    hundreds of rounds, leaving per-round expected counts ≪ 5 where χ²
    diverges on pure noise).  Returns ``(statistic, p̂, used_bins)``;
    ``used_bins`` can land below ``bins`` when quantile edges collide
    at high rates (df = used_bins - 1 with the moment estimate).
    """
    n = len(rounds)
    p_hat = 1.0 / (1.0 + sum(rounds) / n)
    survival = 1.0 - p_hat  # P(X >= k) = survival ** k
    edges: List[int] = []
    if 0.0 < survival < 1.0:
        for k in range(1, bins):
            # Smallest boundary b with P(X < b) >= k / bins.
            boundary = max(
                1,
                math.ceil(
                    math.log(1.0 - k / bins) / math.log(survival)
                ),
            )
            if not edges or boundary > edges[-1]:
                edges.append(boundary)
    statistic = 0.0
    lows = [0] + edges
    for index, low in enumerate(lows):
        high = edges[index] if index < len(edges) else None
        observed = sum(
            1 for x in rounds if x >= low and (high is None or x < high)
        )
        expected = n * (
            survival ** low - (survival ** high if high is not None else 0.0)
        )
        statistic += (observed - expected) ** 2 / max(expected, 1e-9)
    return statistic, p_hat, len(lows)


def geometric_tail(rounds: List[int]) -> Tuple[List[int], int]:
    """``rounds`` re-based at their mode: ``([r - mode | r >= mode], mode)``.

    Decision rounds under Byzantine noise are a unanimization transient
    plus a geometric wait; the transient mass concentrates at the modal
    round, so the tail past the mode recovers the memoryless part.  On
    seeded data ``Counter.most_common`` breaks ties deterministically.
    """
    mode = collections.Counter(rounds).most_common(1)[0][0]
    return [r - mode for r in rounds if r >= mode], mode


def chi2_homogeneity_2x2(
    a_success: int, a_total: int, b_success: int, b_total: int
) -> float:
    """2×2 χ² homogeneity of two success/failure columns (0 if equal)."""
    total = a_total + b_total
    successes = a_success + b_success
    failures = total - successes
    if successes == 0 or failures == 0:
        return 0.0
    statistic = 0.0
    for observed_s, observed_f, column in (
        (a_success, a_total - a_success, a_total),
        (b_success, b_total - b_success, b_total),
    ):
        for observed, margin in ((observed_s, successes),
                                 (observed_f, failures)):
            expected = margin * column / total
            statistic += (observed - expected) ** 2 / max(expected, 1e-9)
    return statistic


def exact_lottery(protocol: str, coin: CoinLike) -> Dict[Optional[int], Fraction]:
    """The built model's toss lottery: P(coin = 0 / 1 / None-failed)."""
    model = by_name(protocol).build_model(coin=resolve_coin_spec(coin))
    toss = next(rule for rule in model.coin.rules if rule.name == "rb")
    by_value: Dict[Optional[int], Fraction] = {
        0: Fraction(0), 1: Fraction(0), None: Fraction(0)
    }
    for target, probability in toss.branches:
        if target.endswith("0"):
            by_value[0] += probability
        elif target.endswith("1"):
            by_value[1] += probability
        else:  # Tbot: the failed toss
            by_value[None] += probability
    return by_value


# ----------------------------------------------------------------------
# The per-cell gate


@dataclass
class CellVerdict:
    """One (protocol, coin) cell's cross-validation outcome."""

    protocol: str
    coin: str
    sim: LayerSample
    mdp: LayerSample
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_cell(
    protocol: str,
    coin: CoinLike = None,
    *,
    sim_sample: Optional[LayerSample] = None,
    mdp_sample: Optional[LayerSample] = None,
    runs: int = 150,
) -> CellVerdict:
    """Cross-validate one (protocol, coin) cell; see the module docs
    for which checks apply where.  Pre-computed samples can be passed
    in (the registry-wide suite shares them across assertions)."""
    spec = resolve_coin_spec(coin)
    category = by_name(protocol).category
    sim = sim_sample if sim_sample is not None else sim_layer(
        protocol, spec, runs=runs
    )
    mdp = mdp_sample if mdp_sample is not None else mdp_layer(
        protocol, spec, runs=runs
    )
    verdict = CellVerdict(protocol=protocol, coin=spec.spec_str(),
                          sim=sim, mdp=mdp)
    fail = verdict.failures.append
    lottery = exact_lottery(protocol, spec)
    failing_coin = lottery[None] > 0

    # Simulator termination: required everywhere (private bits keep
    # failed rounds moving — the sim analogue of the disagreeing axis).
    if sim.termination_frequency < TERMINATION_MIN:
        fail(
            f"sim termination {sim.termination_frequency:.3f} < "
            f"{TERMINATION_MIN} ({sim.undecided} of {sim.runs} undecided)"
        )

    if failing_coin:
        # The model blocks on a failed toss: undecided MDP paths must
        # be *parked*, not merely slow.
        stuck = mdp.undecided
        if stuck and mdp.parked < stuck:
            fail(
                f"{stuck - mdp.parked} of {stuck} undecided MDP paths "
                f"are not parked on Tbot/Cbot — non-termination without "
                f"a failed coin"
            )
    else:
        if mdp.termination_frequency < TERMINATION_MIN:
            fail(
                f"mdp termination {mdp.termination_frequency:.3f} < "
                f"{TERMINATION_MIN} ({mdp.undecided} of {mdp.runs} "
                f"undecided)"
            )
        gap = abs(sim.termination_frequency - mdp.termination_frequency)
        if gap > TERMINATION_GAP:
            fail(f"termination frequency gap {gap:.3f} > {TERMINATION_GAP}")
        statistic = chi2_homogeneity_2x2(
            len(sim.outcomes), sim.runs, len(mdp.outcomes), mdp.runs
        )
        if statistic >= CHI2_CRIT[1]:
            fail(f"2x2 termination homogeneity χ²={statistic:.2f} >= "
                 f"{CHI2_CRIT[1]}")

    if category != "A":
        _check_geometric_shape(verdict, lottery, fail)
    return verdict


def _check_geometric_shape(verdict: CellVerdict, lottery, fail) -> None:
    """Geometric decision-round checks for the deciding categories.

    Each group's rounds are re-based at their mode (the unanimization
    transient, see :func:`geometric_tail`) and the tail is fitted.  A
    biased coin makes the pooled distribution a two-rate mixture
    (value-v decisions arrive at rate ~P(coin = v)), so the fit splits
    per decided value; the fair case pools.  The sim tail rate is
    pinned to the lottery only when the coin publishes a common value
    every round — with a failing coin the simulator's private bits
    decouple the decision rate from the common lottery by design.
    """
    biased = lottery[0] != lottery[1]
    failing = lottery[None] > 0
    for layer_name, layer, bins in (
        ("sim", verdict.sim, SIM_GOF_BINS),
        ("mdp", verdict.mdp, MDP_GOF_BINS),
    ):
        if biased:
            groups = [(f"value {v}", layer.rounds_for(v), float(lottery[v]))
                      for v in (0, 1)]
        else:
            groups = [("pooled", layer.rounds, 0.5)]
        for group_name, rounds, expected_rate in groups:
            if len(rounds) < MIN_SUBSAMPLE:
                continue
            tail, _mode = geometric_tail(rounds)
            if len(tail) < MIN_SUBSAMPLE:
                continue
            effective_bins = min(bins, max(2, len(tail) // 12))
            statistic, p_hat, used_bins = chi2_geometric(
                tail, effective_bins
            )
            critical = CHI2_CRIT[max(1, used_bins - 1)]
            if statistic >= critical:
                fail(
                    f"{layer_name} {group_name} tail rounds reject the "
                    f"geometric fit: χ²={statistic:.2f} >= {critical}"
                )
            if layer_name == "sim" and not failing:
                low = expected_rate - RATE_SLACK_BELOW
                high = expected_rate + RATE_TOLERANCE
                if not low <= p_hat <= high:
                    fail(
                        f"sim {group_name} tail rate {p_hat:.3f} "
                        f"outside [{low:.2f}, {high:.2f}] around the "
                        f"lottery probability {expected_rate:.3f}"
                    )
