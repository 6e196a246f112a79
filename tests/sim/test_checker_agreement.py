"""Simulator-vs-checker statistical agreement, registry wide.

The repo models every benchmark protocol twice, at different
granularities: the counter-system MDP (§III-E semantics, sampled by
:func:`repro.counter.mdp.sample_path` under a random adversary) and the
message-level simulator (:mod:`repro.sim.fleet` under a random
scheduler).  ``TestRegistryWideCrossValidation`` runs the standing
:func:`tests.sim.crossval.check_cell` gate over all 8 protocols × the
perfect / biased / failing coin columns; the MMR14-specific classes
below are the original PR-5 derivation of the statistics (silent
Byzantine, plain geometric fit) kept as an independently-wired pin.

The MMR14 story the original classes check at ``n=4, t=1, f=1``:

* **termination probability** — under *random* (non-adaptive)
  scheduling MMR14 terminates almost surely (the §II attack needs an
  adaptive adversary); the sampled termination frequency of both
  layers must sit at the top of the scale and agree within a small
  tolerance, and a 2×2 chi-square homogeneity statistic over
  decided/undecided counts must stay under the α=0.01 critical value;
* **memorylessness** — in both layers the all-decided round is driven
  by the common coin matching the unanimous value, so each layer's
  decision-round distribution must pass a chi-square goodness-of-fit
  against a geometric law with its *own* estimated rate.  The rates
  themselves legitimately differ (one simulator "round" is many MDP
  scheduling steps, and the random adversary wanders through coin
  round-switches), which is exactly why the cross-layer invariant is
  the shape, not the rate.  The simulator's per-round decision rate,
  however, is the folklore coin-match probability and must straddle
  1/2.

Everything is seeded, so the sampled statistics are deterministic —
the tolerances guard modelling drift, not sampling noise.  Sampling a
few hundred 6000-step paths is slow, hence the ``slow_equivalence``
gate (CI runs it with ``--run-slow-equivalence``).
"""

import collections
import random

import pytest

from repro.counter.adversary import RandomAdversary
from repro.counter.mdp import sample_path
from repro.counter.system import CounterSystem
from repro.protocols import mmr14
from repro.protocols.registry import names
from repro.sim import MMR14Process
from repro.sim.adversary import RandomScheduler
from tests.sim.crossval import check_cell
from repro.sim.runner import Simulation, run

pytestmark = pytest.mark.slow_equivalence

#: fleet/MDP sample size per registry cell (calibrated: every cell of
#: the 8 × 3 matrix passes deterministically at this size).
REGISTRY_RUNS = 120


@pytest.mark.parametrize(
    "coin",
    [None, "biased:1/4", "failing:1/8"],
    ids=["perfect", "biased", "failing"],
)
@pytest.mark.parametrize("protocol", names())
class TestRegistryWideCrossValidation:
    """The standing gate: every (protocol, coin) cell cross-validates.

    One :func:`check_cell` call samples both layers and applies the
    full battery — termination floors and homogeneity (or, for the
    failing coin, the parked-on-Tbot invariant), the mode-shifted
    geometric tail fit per layer (split per decided value under bias)
    and the simulator's lottery rate pin.  Everything is seeded: a
    failure is modelling drift, not sampling noise.
    """

    def test_cell_cross_validates(self, protocol, coin):
        verdict = check_cell(protocol, coin, runs=REGISTRY_RUNS)
        assert verdict.passed, (
            f"{protocol} / {verdict.coin}:\n  "
            + "\n  ".join(verdict.failures)
        )

VALUATION = {"n": 4, "t": 1, "f": 1}
RUNS = 150
#: Step budget per sampled MDP path; at this depth the sampled
#: termination frequency has converged (0.93 at 1500, 1.00 at 6000).
MAX_STEPS = 6000

#: χ² critical values at α = 0.01 by degrees of freedom.
CHI2_CRIT = {1: 6.63, 3: 11.34, 7: 18.48}


def _mdp_decision_rounds():
    """Sampled all-decided rounds of the counter-system MDP."""
    system = CounterSystem(mmr14.model(), VALUATION)
    d0, d1 = system.loc_index["D0"], system.loc_index["D1"]
    block, processes = system.block, system.n_processes
    # Mixed inputs (one 0, two 1) and the coin at its round-entry
    # location — the same split the simulator runs below.
    config = system.make_config({"J0": 1, "J1": 2, "J2": 1})

    def decided_round(candidate):
        data = candidate.data
        for round_no in range(candidate.rounds):
            base = round_no * block
            if data[base + d0] + data[base + d1] == processes:
                return round_no
        return None

    rounds = []
    undecided = 0
    for seed in range(RUNS):
        path = sample_path(
            system, config, RandomAdversary(seed=seed),
            random.Random(seed), max_steps=MAX_STEPS,
            stop=lambda c: decided_round(c) is not None,
        )
        round_no = decided_round(path.last)
        if round_no is None:
            undecided += 1
        else:
            rounds.append(round_no)
    return rounds, undecided


def _sim_decision_rounds():
    """Empirical all-decided rounds of the message-level simulator."""
    rounds = []
    undecided = 0
    for seed in range(RUNS):
        simulation = Simulation(MMR14Process, 4, 1, [0, 1, 1],
                                coin_seed=seed)
        result = run(simulation, RandomScheduler(seed=seed),
                     max_steps=20_000)
        if result.all_decided:
            rounds.append(max(result.decision_rounds.values()))
        else:
            undecided += 1
    return rounds, undecided


def _chi2_geometric(rounds, bins):
    """χ² statistic of ``rounds`` against Geometric(p̂), plus p̂.

    Bins 0..bins-1 individually, everything beyond as one tail bin;
    p̂ is the moment estimate 1 / (1 + mean), losing one further
    degree of freedom (df = bins - 1).
    """
    n = len(rounds)
    p_hat = 1.0 / (1.0 + sum(rounds) / n)
    counts = collections.Counter(rounds)
    statistic = 0.0
    for k in range(bins):
        expected = n * p_hat * (1.0 - p_hat) ** k
        statistic += (counts.get(k, 0) - expected) ** 2 / expected
    tail_expected = n * (1.0 - p_hat) ** bins
    tail_observed = sum(v for k, v in counts.items() if k >= bins)
    statistic += (tail_observed - tail_expected) ** 2 / max(
        tail_expected, 1e-9
    )
    return statistic, p_hat


@pytest.fixture(scope="module")
def samples():
    return {"mdp": _mdp_decision_rounds(), "sim": _sim_decision_rounds()}


class TestTerminationProbabilityAgreement:
    def test_both_layers_terminate_with_agreeing_frequency(self, samples):
        frequencies = {}
        for layer, (rounds, undecided) in samples.items():
            frequency = len(rounds) / RUNS
            assert frequency >= 0.95, (
                f"{layer}: termination frequency {frequency:.3f} "
                f"({undecided} undecided of {RUNS})"
            )
            frequencies[layer] = frequency
        assert abs(frequencies["mdp"] - frequencies["sim"]) <= 0.05

    def test_two_by_two_chi_square_homogeneity(self, samples):
        decided = {layer: len(rounds) for layer, (rounds, _u) in
                   samples.items()}
        undecided = {layer: RUNS - count for layer, count in decided.items()}
        total_decided = sum(decided.values())
        total_undecided = sum(undecided.values())
        if total_undecided == 0:
            return  # identical columns: χ² = 0 by definition
        statistic = 0.0
        for layer in samples:
            for observed, total in (
                (decided[layer], total_decided),
                (undecided[layer], total_undecided),
            ):
                expected = total * RUNS / (2 * RUNS)
                statistic += (observed - expected) ** 2 / max(expected, 1e-9)
        assert statistic < CHI2_CRIT[1], (
            f"termination counts diverge across layers: χ²={statistic:.2f}"
        )


class TestGeometricDecisionRounds:
    def test_mdp_decision_round_is_geometric(self, samples):
        rounds, _undecided = samples["mdp"]
        statistic, _p_hat = _chi2_geometric(rounds, bins=8)
        assert statistic < CHI2_CRIT[7], (
            f"MDP decision rounds reject the geometric fit: "
            f"χ²={statistic:.2f} (crit {CHI2_CRIT[7]})"
        )

    def test_sim_decision_round_is_geometric_at_the_coin_rate(self, samples):
        rounds, _undecided = samples["sim"]
        statistic, p_hat = _chi2_geometric(rounds, bins=4)
        assert statistic < CHI2_CRIT[3], (
            f"sim decision rounds reject the geometric fit: "
            f"χ²={statistic:.2f} (crit {CHI2_CRIT[3]})"
        )
        # Folklore: one decision chance per round, won when the common
        # coin matches the unanimous value — probability 1/2.
        assert 0.35 <= p_hat <= 0.65, (
            f"sim per-round decision rate {p_hat:.3f} far from the "
            f"coin-match probability 1/2"
        )
