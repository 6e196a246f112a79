"""Differential suite: frontier-batched vs scalar successor expansion.

The batch engine (:mod:`repro.counter.batch`) promises bit-identical
results to the scalar path — same verdicts, same ``states_explored``
(including ``max_states`` early exits), same flattened action order.
This module pins that contract from two sides:

* **group level** — for every registry protocol and every fuzz seed of
  ``test_differential.py``, a scalar system's ``successor_groups`` and
  a batch-expanded system's pre-filled ``_succ_cache`` must hold the
  same group tuples over several BFS levels, and flattening them must
  reproduce ``enabled_actions(..., include_stutters=False)``;
* **end to end** — ``api.verify`` with numpy present and with numpy
  hidden from the batch module (``batch._np = None``, which is what a
  numpy-less interpreter sees; cold caches each) must return
  stable-identical reports on all 8 registry protocols and the 30 fuzz
  models, plus a deliberately tight ``max_states`` budget where the
  early exit must trip at the very same state count.
"""

import pytest

from repro import api
from repro.counter import batch
from repro.counter.batch import batch_available
from repro.counter.system import CounterSystem, clear_shared_caches
from repro.protocols.registry import benchmark

from tests.checker.test_differential import (
    LIMITS,
    SEEDS,
    TARGETS,
    _stable,
    random_model,
    small_valuation,
)

pytestmark = pytest.mark.skipif(
    not batch_available(), reason="numpy unavailable: no batch engine"
)

REGISTRY = tuple(entry.name for entry in benchmark())

#: Bounded registry budget: small enough that the slow protocols stay
#: fast *and* several of them trip max_states — the early-exit state
#: counts must match exactly between the engines.
REGISTRY_LIMITS = api.Limits(max_states=12_000)


def _flat(groups):
    return [
        (action.rule, action.round, action.branch, succ.data)
        for group in groups
        for action, succ in group
    ]


def _group_differential(model, valuation, levels=3, fanout_cap=60):
    """Batch-expand BFS levels; compare groups against a scalar twin."""
    scalar = CounterSystem(model, valuation)
    batched = CounterSystem(model, valuation)
    expander = batched.batch_expander()
    assert expander is not None
    frontier = list(batched.initial_configs())
    scalar_frontier = list(scalar.initial_configs())
    assert [c.data for c in frontier] == [c.data for c in scalar_frontier]
    for _level in range(levels):
        expander.expand_frontier(iter(frontier))
        next_frontier, seen = [], set()
        for batch_config, scalar_config in zip(frontier, scalar_frontier):
            batch_groups = batched._succ_cache.get(batch_config)
            assert batch_groups is not None, "expander left a cache hole"
            scalar_groups = scalar.successor_groups(scalar_config)
            assert _flat(batch_groups) == _flat(scalar_groups)
            # Flattened group order == the derandomized action order.
            actions = scalar.enabled_actions(
                scalar_config, include_stutters=False
            )
            assert [
                (a.rule, a.round, a.branch) for a in actions
            ] == [
                (a.rule, a.round, a.branch)
                for group in batch_groups
                for a, _succ in group
            ]
            for group in batch_groups:
                for _action, successor in group:
                    if successor not in seen:
                        seen.add(successor)
                        next_frontier.append(successor)
        frontier = next_frontier[:fanout_cap]
        scalar_frontier = [scalar.intern(c) for c in frontier]


def _verify_both(monkeypatch, limits, **kwargs):
    """Cold batch run vs cold scalar run (numpy hidden) of one task."""
    clear_shared_caches()
    batched = api.verify(limits=limits, **kwargs)
    clear_shared_caches()
    with monkeypatch.context() as patch:
        patch.setattr(batch, "_np", None)
        scalar = api.verify(limits=limits, **kwargs)
        clear_shared_caches()
    return batched, scalar


class TestGroupDifferential:
    @pytest.mark.parametrize("name", REGISTRY)
    def test_registry_protocol_groups(self, name):
        entry = next(e for e in benchmark() if e.name == name)
        _group_differential(entry.model(), dict(entry.small_valuation))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_model_groups(self, seed):
        model = random_model(seed)
        _group_differential(model, small_valuation(model))


class TestEndToEndDifferential:
    def test_hidden_numpy_binds_no_expander(self, monkeypatch):
        entry = next(e for e in benchmark() if e.name == "mmr14")
        monkeypatch.setattr(batch, "_np", None)
        clear_shared_caches()
        system = CounterSystem(entry.model(), dict(entry.small_valuation))
        assert system.batch_expander() is None
        clear_shared_caches()

    @pytest.mark.parametrize("name", REGISTRY)
    def test_registry_protocol_reports(self, monkeypatch, name):
        batched, scalar = _verify_both(
            monkeypatch, REGISTRY_LIMITS, protocol=name, targets=TARGETS
        )
        assert batched.engine == scalar.engine == "explicit"
        assert _stable(batched) == _stable(scalar)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fuzz_model_reports(self, monkeypatch, seed):
        batched, scalar = _verify_both(
            monkeypatch,
            LIMITS,
            model=random_model(seed),
            valuation=small_valuation(random_model(seed)),
            targets=TARGETS,
        )
        assert _stable(batched) == _stable(scalar)

    def test_max_states_early_exit_is_bit_identical(self, monkeypatch):
        # A budget far below mmr14's reach space: both paths must
        # trip the limit after exploring the very same prefix.
        batched, scalar = _verify_both(
            monkeypatch,
            api.Limits(max_states=500),
            protocol="mmr14",
            targets=("agreement",),
        )
        stable = _stable(batched)
        assert stable == _stable(scalar)
        tripped = [
            query
            for _target, queries, _sides in stable
            for query in queries
            if query[3] == "max_states"
        ]
        assert tripped, "budget of 500 states unexpectedly sufficed"


# ----------------------------------------------------------------------
# Non-uniform lotteries: the CoinSpec axis through the batch engine
# ----------------------------------------------------------------------

from tests.checker.test_differential import (  # noqa: E402
    COIN_LIMITS,
    COIN_PROTOCOLS,
    COIN_SEEDS,
    COIN_TARGETS,
    random_coin_spec,
)


class TestCoinLotteryDifferential:
    """Batch ≡ scalar must survive generalized coin lotteries.

    The perfect coin compiles to a two-branch 1/2-1/2 toss; random
    CoinSpecs give two- and three-branch lotteries with non-dyadic
    probabilities (and, for disagreeing coins, a doubled coin-variable
    space plus twinned process rules).  Both the per-config successor
    groups and the end-to-end reports must stay bit-identical between
    the frontier-batched and scalar expansion paths.
    """

    @pytest.mark.parametrize("name", COIN_PROTOCOLS)
    @pytest.mark.parametrize("seed", COIN_SEEDS[:4])
    def test_groups_identical_under_random_coins(self, name, seed):
        entry = next(e for e in benchmark() if e.name == name)
        model = entry.build_model(coin=random_coin_spec(seed))
        _group_differential(model, dict(entry.small_valuation))

    @pytest.mark.parametrize("name", COIN_PROTOCOLS)
    @pytest.mark.parametrize("seed", COIN_SEEDS)
    def test_reports_identical_under_random_coins(self, monkeypatch, name, seed):
        batched, scalar = _verify_both(
            monkeypatch, COIN_LIMITS, protocol=name, targets=COIN_TARGETS,
            coin=random_coin_spec(seed),
        )
        assert _stable(batched) == _stable(scalar)

    def test_three_branch_lottery_early_exit_identical(self, monkeypatch):
        # The failing coin's three-branch toss under a tight budget:
        # both paths must trip max_states on the very same prefix.
        batched, scalar = _verify_both(
            monkeypatch, api.Limits(max_states=400),
            protocol="cc85a", targets=("agreement",), coin="failing:1/8",
        )
        stable = _stable(batched)
        assert stable == _stable(scalar)
        assert any(
            query[3] == "max_states"
            for _target, queries, _sides in stable
            for query in queries
        ), "budget of 400 states unexpectedly sufficed"
