"""Statistical pins for the ε-Good oracle and its CoinSpec models.

Two contracts:

* **The strong coin.**  ``CommonCoin()`` replays the historical
  single-draw stream under the same seed, and the chi-square pin used
  for fairness rejects a ``P(1) = ε`` sampler by four orders of
  magnitude.  A weaker ε-Good coin is a ``CoinSpec`` (``biased:p1``).

* **Sim ≡ checker on the coin model.**  A ``CoinSpec`` is one object
  consumed by two semantics: the coin automaton's exact branch lottery
  (checker side) and ``sample_round`` (simulation side).  For each
  spec we read the lottery off the *built model's* toss rule and
  chi-square the sampled outcome counts against exactly those
  fractions — the two sides must describe the same coin.

Everything is seeded; tolerances guard semantics drift, not noise.
"""

import random
from fractions import Fraction

from repro.protocols.registry import by_name
from repro.sim.coin import CommonCoin
from repro.sim.runner import Simulation, run
from repro.sim.adversary import RandomScheduler
from repro.sim import MMR14Process

#: χ² critical values at α = 0.01 by degrees of freedom.
CHI2_CRIT = {1: 6.63, 2: 9.21}

ROUNDS = 20_000


def _chi2(counts, expected_probs):
    total = sum(counts)
    stat = 0.0
    for observed, p in zip(counts, expected_probs):
        expected = total * float(p)
        stat += (observed - expected) ** 2 / expected
    return stat


def _common_draws(coin, rounds=ROUNDS):
    """The per-round common values (None = no common value)."""
    values = []
    for round_no in range(rounds):
        coin.get(round_no, 0)
        values.append(coin.peek(round_no))
    return values


class TestEpsilonSemantics:
    def test_strong_coin_keeps_legacy_sequence(self):
        """ε = 1/2 must replay the historical single-draw stream."""
        reference = random.Random(7)
        legacy = [1 if reference.random() < 0.5 else 0 for _ in range(64)]
        assert _common_draws(CommonCoin(seed=7), 64) == legacy
        assert _common_draws(CommonCoin(seed=7, spec="perfect"), 64) == legacy

    def test_old_semantics_would_fail_this_pin(self):
        """Sanity: the pre-fix sampler is firmly rejected."""
        rng = random.Random(11)
        values = [1 if rng.random() < 0.1 else 0 for _ in range(ROUNDS)]
        counts = (values.count(0), values.count(1))
        assert _chi2(counts, (0.5, 0.5)) > 1000 * CHI2_CRIT[1]


class TestSpecSampling:
    def _model_lottery(self, protocol, coin):
        """The toss-rule lottery of the checker-side built model."""
        model = by_name(protocol).build_model(coin=coin)
        toss = next(r for r in model.coin.rules if r.name == "rb")
        by_value = {}
        for target, probability in toss.branches:
            by_value[target] = probability
        return by_value

    def test_biased_sampling_matches_checker_lottery(self):
        spec = "biased:1/4"
        lottery = self._model_lottery("cc85a", spec)
        assert lottery == {"T0": Fraction(3, 4), "T1": Fraction(1, 4)}
        values = _common_draws(CommonCoin(seed=5, spec=spec))
        counts = (values.count(0), values.count(1))
        stat = _chi2(counts, (lottery["T0"], lottery["T1"]))
        assert stat < CHI2_CRIT[1], (
            f"sim frequencies {counts} disagree with the coin "
            f"automaton's lottery (χ²={stat:.1f})"
        )

    def test_failing_sampling_matches_checker_lottery(self):
        spec = "failing:1/8"
        lottery = self._model_lottery("cc85a", spec)
        assert lottery == {"T0": Fraction(7, 16), "T1": Fraction(7, 16),
                           "Tbot": Fraction(1, 8)}
        values = _common_draws(CommonCoin(seed=5, spec=spec))
        counts = (values.count(0), values.count(1), values.count(None))
        stat = _chi2(counts, (lottery["T0"], lottery["T1"], lottery["Tbot"]))
        assert stat < CHI2_CRIT[2]

    def test_no_common_value_rounds_serve_split_private_bits(self):
        coin = CommonCoin(seed=1, spec="disagreeing:1/2")
        split_rounds = [r for r in range(200)
                        if coin.get(r, 0) is not None and coin.peek(r) is None]
        assert split_rounds, "ρ=1/2 produced no split rounds in 200"
        disagreements = 0
        for round_no in split_rounds:
            bits = [coin.get(round_no, pid) for pid in range(6)]
            # Re-reads are stable per process...
            assert bits == [coin.get(round_no, pid) for pid in range(6)]
            if len(set(bits)) > 1:
                disagreements += 1
        # ...and the views genuinely split between processes.
        assert disagreements > 0

    def test_private_bits_leave_common_stream_unperturbed(self):
        """Reader count must not shift later rounds' common draws."""
        few = CommonCoin(seed=9, spec="failing:1/2")
        many = CommonCoin(seed=9, spec="failing:1/2")
        for round_no in range(100):
            few.get(round_no, 0)
            for pid in range(10):
                many.get(round_no, pid)
        assert [few.peek(r) for r in range(100)] == \
            [many.peek(r) for r in range(100)]


class TestSimulationIntegration:
    def test_simulation_threads_the_spec(self):
        sim = Simulation(MMR14Process, n=4, t=1, inputs=[0, 1, 1],
                         coin="biased:1/4")
        assert sim.coin.spec is not None
        assert sim.coin.spec.spec_str() == "biased:1/4"

    def test_mmr14_still_agrees_under_a_biased_coin(self):
        """Random-scheduler MMR14 runs stay safe with P(1) = 1/4."""
        decided = 0
        for seed in range(6):
            sim = Simulation(MMR14Process, n=4, t=1, inputs=[0, 1, 1],
                             coin_seed=seed, coin="biased:1/4")
            result = run(sim, RandomScheduler(seed=seed), max_steps=20_000)
            assert result.agreement and result.validity
            decided += result.all_decided
        assert decided >= 4, "biased coin stalled most runs unexpectedly"
