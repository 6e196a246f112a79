"""Golden coin-matrix verdicts: registry + teaching models × CoinSpecs.

``data/coin_verdicts.json`` was recorded by the explicit checker at
``max_states=150_000`` over three protocols under the coin models the
CoinSpec layer introduces — per query the verdict AND
``states_explored`` (exploration-order sensitive), plus the fairness
side conditions, exactly like ``seed_verdicts.json``.  What it pins:

* **mmr14** × {perfect, biased:1/4, failing:1/8} — the biased coin is
  *bit-identical* to the perfect one (a lottery reweighting never
  changes the explicit reach support), while the failing coin grows the
  state space (the silent branch is a new behaviour) without rescuing
  or breaking any verdict — the §II termination counterexample
  survives;
* **cc85a** × {perfect, biased:1/4, failing:1/8, disagreeing:1/8} —
  the split-view coin *flips agreement to violated*: on a split round
  both coin views are published and mixed-view processes adopt
  different values (the README's headline example);
* **naive-voting** × all three — the protocol uses no coin, so every
  spec yields identical observations (the `coin=` keyword is uniform
  across factories, not semantics-bearing where no coin exists).

``mmr14`` cells explore 5-figure state counts and are gated behind
``--run-slow-equivalence`` like the seed fixture's slow protocols.
"""

import json
from pathlib import Path

import pytest

from repro.checker.explicit import ExplicitChecker
from repro.counter.system import clear_shared_caches
from repro.protocols import naive_voting
from repro.protocols.registry import by_name
from repro.spec.obligations import obligations_for

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "coin_verdicts.json").read_text()
)

COINS = ("perfect", "biased:1/4", "failing:1/8")
TARGETS = ("agreement", "validity", "termination")


def _observed(model, valuation, target):
    clear_shared_caches()
    checker = ExplicitChecker(model, valuation, max_states=150_000)
    report = checker.check_obligations(obligations_for(checker.model, target))
    return {
        "queries": [
            [r.query, r.verdict, r.states_explored] for r in report.queries
        ],
        "sides": dict(report.side_conditions),
    }


def _registry_observed(name, coin, target):
    entry = by_name(name)
    model = (
        entry.verification_model(coin=coin)
        if target == "termination"
        else entry.build_model(coin=coin)
    )
    return _observed(model, entry.small_valuation, target)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize(
    "coin", ("perfect", "biased:1/4", "failing:1/8", "disagreeing:1/8")
)
def test_cc85a_matches_recording(coin, target):
    assert _registry_observed("cc85a", coin, target) == \
        GOLDEN["cc85a"][coin][target]


@pytest.mark.parametrize("target", ("agreement", "validity"))
@pytest.mark.parametrize("coin", COINS)
def test_naive_voting_matches_recording(coin, target):
    observed = _observed(naive_voting.model(coin=coin), {"n": 3, "f": 1},
                         target)
    assert observed == GOLDEN["naive-voting"][coin][target]


@pytest.mark.slow_equivalence
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("coin", COINS)
def test_mmr14_matches_recording_slow(coin, target):
    assert _registry_observed("mmr14", coin, target) == \
        GOLDEN["mmr14"][coin][target]


def test_biased_coin_is_support_invisible():
    """A pure lottery reweighting never changes explicit observations."""
    for target in TARGETS:
        assert GOLDEN["cc85a"]["biased:1/4"][target] == \
            GOLDEN["cc85a"]["perfect"][target]
        assert GOLDEN["mmr14"]["biased:1/4"][target] == \
            GOLDEN["mmr14"]["perfect"][target]


def test_failing_coin_grows_the_state_space():
    perfect = GOLDEN["cc85a"]["perfect"]["agreement"]["queries"]
    failing = GOLDEN["cc85a"]["failing:1/8"]["agreement"]["queries"]
    assert [q[1] for q in perfect] == [q[1] for q in failing]  # verdicts
    assert all(f[2] > p[2] for p, f in zip(perfect, failing))  # states

def test_disagreeing_coin_breaks_cc85a_agreement():
    verdicts = [q[1] for q in
                GOLDEN["cc85a"]["disagreeing:1/8"]["agreement"]["queries"]]
    assert verdicts == ["violated", "violated"]


def test_coinless_protocol_is_coin_invariant():
    for coin in COINS[1:]:
        assert GOLDEN["naive-voting"][coin] == GOLDEN["naive-voting"]["perfect"]
