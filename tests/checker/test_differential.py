"""Differential fuzzing: ExplicitEngine vs ParameterizedEngine.

``test_engine_equivalence.py`` pins the explicit engine to the seed
recording on the 8 registry protocols; this module extends the net
beyond the registry with ~30 *seeded random* threshold-automaton
models, checked through ``repro.api`` on both engines.  The oracle is
the semantic relation between the engines (the parameterized checker
quantifies over **all** admissible valuations, the explicit checker
fixes one):

* a parametric ``holds`` on a query implies an explicit ``holds`` for
  that query at *every* admissible valuation — we check the model's
  smallest interesting one;
* a parametric ``violated`` comes with a replayed counterexample at a
  concrete valuation — the explicit checker at *that* valuation must
  reproduce the violation;
* ``unknown`` (budget) constrains nothing, but the corpus must not
  degenerate: the seeds are pinned so both verdict classes appear.

The generated models are naive-voting-shaped (two initial values, an
echo chain, threshold-guarded decisions) with randomized chain depth,
guard thresholds, resilience condition and optional cross rules —
small enough that every case decides in well under a second.

A second suite replays one fuzz case cold vs warm-from-store through
the :class:`~repro.counter.store.GraphStore` and asserts the
reports are bit-identical — the store must stay results-neutral on
models it has never seen in any registry.
"""

import itertools
import random

import pytest

from repro import api
from repro.core.builder import AutomatonBuilder
from repro.core.environment import ge, gt, standard_environment
from repro.core.expression import params
from repro.core.system import SystemModel
from repro.counter.store import (
    active_graph_store,
    activate_graph_store,
    deactivate_graph_store,
)
from repro.counter.system import clear_shared_caches

SEEDS = tuple(range(30))

#: Query budgets: generously above what these tiny models need, so an
#: ``unknown`` is a generator bug rather than routine noise.
LIMITS = api.Limits(max_states=60_000, max_nodes=30_000)
TARGETS = ("agreement", "validity")


def random_model(seed: int) -> SystemModel:
    """A seeded random small threshold-automaton model.

    Shape: ``I0/I1 -> S (-> T0 -> T1) -> D0/D1`` with vote counters
    ``v0``/``v1``; the rng draws the echo-chain depth, per-hop guards,
    the two decision thresholds, an optional *cross* rule (deciding a
    value off the other value's counter — an injected disagreement
    hazard), and the resilience condition ``n > 2f`` or ``n > 3f``.
    Deterministic per seed, including location/rule names.
    """
    rng = random.Random(seed)
    n, f = params("n f")
    builder = AutomatonBuilder(f"fuzz{seed}")
    builder.shared("v0", "v1")
    builder.initial("I0", value=0)
    builder.initial("I1", value=1)
    chain = ["S"] + [f"T{i}" for i in range(rng.randint(0, 2))]
    for name in chain:
        builder.location(name)
    builder.final("D0", value=0, decision=True)
    builder.final("D1", value=1, decision=True)
    v0, v1 = builder.var("v0"), builder.var("v1")

    builder.rule("r1", "I0", chain[0], update={"v0": 1})
    builder.rule("r2", "I1", chain[0], update={"v1": 1})
    rule_no = 3
    hop_guards = (None, v0 + v1 >= n - 2 * f, v0 + v1 >= f + 1)
    for source, target in zip(chain, chain[1:]):
        builder.rule(f"r{rule_no}", source, target,
                     guard=hop_guards[rng.randrange(len(hop_guards))])
        rule_no += 1
    thresholds = (
        lambda v: v + v >= n + 1 - 2 * f,  # majority incl. Byzantine votes
        lambda v: v >= n - 2 * f,
        lambda v: v >= f + 1,
        lambda v: v + v >= n - f,
    )
    last = chain[-1]
    builder.rule(f"r{rule_no}", last, "D0",
                 guard=thresholds[rng.randrange(len(thresholds))](v0))
    rule_no += 1
    builder.rule(f"r{rule_no}", last, "D1",
                 guard=thresholds[rng.randrange(len(thresholds))](v1))
    rule_no += 1
    if rng.random() < 0.25:
        # Cross rule: decide 0 off the *other* counter — a seeded
        # disagreement hazard the engines must judge identically.
        builder.rule(f"r{rule_no}", last, "D0", guard=v1 >= f + 1)
    resilience = rng.choice((2, 3))
    environment = standard_environment(
        resilience=(gt(n, resilience * f), ge(f, 0)),
        parameters="n f",
        num_processes=n - f,
        num_coins=0,
    )
    return SystemModel(
        name=f"fuzz{seed}",
        environment=environment,
        process=builder.build(check="canonical"),
        coin=None,
        category=None,
        description=f"differential fuzz model, seed {seed}",
    )


def small_valuation(model: SystemModel) -> dict:
    """The smallest admissible valuation with >= 2 processes, faults first."""
    fallback = None
    env = model.environment
    grid = itertools.product(range(7), repeat=len(env.parameters))
    for combo in grid:
        valuation = dict(zip(env.parameters, combo))
        if not env.admits(valuation):
            continue
        if valuation["n"] - valuation["f"] < 2:
            continue
        if valuation["f"] >= 1:
            return valuation
        if fallback is None:
            fallback = valuation
    assert fallback is not None, f"{model.name}: no admissible valuation"
    return fallback


def _queries(result: api.TaskResult, target: str):
    return {q.query: q for q in result.outcome(target).queries}


_case_cache = {}


def run_case(seed: int):
    """Both engines' results for one seed (memoised across tests)."""
    if seed not in _case_cache:
        explicit = api.verify(
            model=random_model(seed),
            valuation=small_valuation(random_model(seed)),
            targets=TARGETS, limits=LIMITS,
        )
        parameterized = api.verify(
            model=random_model(seed), engine="parameterized",
            targets=TARGETS, limits=LIMITS,
        )
        _case_cache[seed] = (explicit, parameterized)
    return _case_cache[seed]


class TestDifferentialVerdictAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_engines_agree(self, seed):
        explicit, parameterized = run_case(seed)
        assert not explicit.error and not parameterized.error
        for target in TARGETS:
            explicit_queries = _queries(explicit, target)
            for name, query in _queries(parameterized, target).items():
                if query.verdict == "holds":
                    # Parametric holds covers every valuation,
                    # including the explicitly-checked one.
                    assert explicit_queries[name].verdict == "holds", (
                        f"{target}/{name}: parameterized holds but "
                        f"explicit says {explicit_queries[name].verdict}"
                    )
                elif query.verdict == "violated":
                    # The replayed witness names a concrete valuation;
                    # the explicit checker there must reproduce it.
                    witness = query.counterexample
                    assert witness is not None and witness.valuation
                    replay = api.verify(
                        model=random_model(seed),
                        valuation=witness.valuation,
                        targets=(target,), limits=LIMITS,
                    )
                    assert _queries(replay, target)[name].verdict == \
                        "violated", (
                            f"{target}/{name}: witness at "
                            f"{witness.valuation} did not reproduce"
                        )
                else:
                    pytest.fail(
                        f"{target}/{name}: unexpected parameterized "
                        f"unknown ({query.detail}) on a tiny model"
                    )

    def test_corpus_covers_both_verdict_classes(self):
        verdicts = set()
        for seed in SEEDS:
            _explicit, parameterized = run_case(seed)
            for target in TARGETS:
                verdicts |= {
                    q.verdict for q in parameterized.outcome(target).queries
                }
        assert "holds" in verdicts and "violated" in verdicts, (
            f"degenerate fuzz corpus: only {verdicts} observed"
        )


def _stable(result: api.TaskResult) -> list:
    return [
        [
            outcome.target,
            [[q.query, q.verdict, q.states_explored, q.limit_tripped]
             for q in outcome.queries],
            dict(outcome.side_conditions),
        ]
        for outcome in result.obligations
    ]


class TestWarmStoreFuzzCase:
    """One fuzz case, cold vs warm-from-store."""

    SEED = 7  # a seed whose agreement query is genuinely violated

    @pytest.fixture(autouse=True)
    def _no_leaked_store(self):
        previous = active_graph_store()
        deactivate_graph_store()
        yield
        deactivate_graph_store(previous)
        clear_shared_caches()

    @pytest.fixture
    def backend_spec(self, tmp_path):
        return str(tmp_path / "graphs")

    def test_cold_vs_warm_reports_identical(self, backend_spec):
        model_factory = lambda: random_model(self.SEED)  # noqa: E731
        valuation = small_valuation(model_factory())
        kwargs = dict(valuation=valuation, targets=TARGETS, limits=LIMITS)

        clear_shared_caches()
        cold = api.verify(model=model_factory(), **kwargs)

        clear_shared_caches()
        previous = activate_graph_store(backend_spec)
        try:
            api.verify(model=model_factory(), **kwargs)
            from repro.counter.system import flush_shared_graphs

            flush_shared_graphs()
            store = active_graph_store()
            assert store.saves >= 1, "fuzz graph was never persisted"
            clear_shared_caches()
            hits_before = store.load_hits
            warm = api.verify(model=model_factory(), **kwargs)
            assert store.load_hits > hits_before, "store was never hit"
        finally:
            deactivate_graph_store(previous)

        assert _stable(warm) == _stable(cold)


# ----------------------------------------------------------------------
# Random CoinSpec draws: lottery-reweighting differentials
# ----------------------------------------------------------------------

from fractions import Fraction  # noqa: E402

from repro.core.coinspec import (  # noqa: E402
    BiasedCoin,
    DeltaFailingCoin,
    DisagreeingCoin,
    parse_coin_spec,
)

COIN_SEEDS = tuple(range(8))

#: Protocols cheap enough to explore exhaustively under every coin
#: (the slow registry protocols are covered by the golden coin matrix).
COIN_PROTOCOLS = ("cc85a", "ks16")

COIN_TARGETS = ("agreement", "validity")
COIN_LIMITS = api.Limits(max_states=30_000)


def random_coin_spec(seed: int):
    """A seeded random non-perfect CoinSpec (shared with the batch suite).

    Probabilities are random non-dyadic fractions, so the coin
    automaton's branch lotteries exercise genuinely non-uniform exact
    arithmetic — not just the 1/2s the perfect coin compiles to.
    """
    rng = random.Random(0xC0A1 + seed)
    numerator = rng.randint(1, 11)
    denominator = rng.randint(numerator + 1, 13)
    p = Fraction(numerator, denominator)
    kind = rng.choice((BiasedCoin, DeltaFailingCoin, DisagreeingCoin))
    return kind(p)


class TestCoinDifferential:
    """Support-level oracles over the coin axis.

    The explicit checker's verdicts and state counts depend only on the
    *support* of the coin lottery, never on its probabilities: every
    branch with positive probability is explored, and none carries a
    weight into the reach fixpoint.  That gives two exact differential
    relations checked here cold (no cross-run caches):

    * any biased coin ≡ the perfect coin (same two-branch support);
    * any two failing coins ≡ each other (same three-branch support) —
      and likewise for disagreeing coins.
    """

    def _stable_run(self, protocol, coin):
        clear_shared_caches()
        result = api.verify(protocol, coin=coin, targets=COIN_TARGETS,
                            limits=COIN_LIMITS)
        assert not result.error
        return _stable(result)

    @pytest.mark.parametrize("protocol", COIN_PROTOCOLS)
    @pytest.mark.parametrize("seed", COIN_SEEDS)
    def test_bias_never_changes_explicit_observations(self, protocol, seed):
        rng = random.Random(0xB1A5 + seed)
        p1 = Fraction(rng.randint(1, 11), 13)
        assert self._stable_run(protocol, BiasedCoin(p1)) == \
            self._stable_run(protocol, None)

    @pytest.mark.parametrize("protocol", COIN_PROTOCOLS)
    @pytest.mark.parametrize("kind", (DeltaFailingCoin, DisagreeingCoin))
    def test_extra_outcome_probability_is_support_invisible(
        self, protocol, kind
    ):
        assert self._stable_run(protocol, kind(Fraction(1, 8))) == \
            self._stable_run(protocol, kind(Fraction(5, 7)))

    @pytest.mark.parametrize("seed", COIN_SEEDS)
    def test_random_specs_run_end_to_end(self, seed):
        spec = random_coin_spec(seed)
        round_tripped = parse_coin_spec(spec.spec_str())
        assert round_tripped == spec
        result = api.verify("cc85a", coin=round_tripped,
                            targets=COIN_TARGETS, limits=COIN_LIMITS)
        assert not result.error
        for target in COIN_TARGETS:
            for query in result.outcome(target).queries:
                assert query.verdict in ("holds", "violated")
