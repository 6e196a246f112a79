"""Cached configuration labels agree with evaluating the query events.

The explicit checker labels each configuration once per proposition in
its program's proposition table and folds ``labels & query_bits`` into
the search mask.  The oracle here is the per-query evaluation the
engine used before: ``_mask(config, compiled_events, 0)`` over the
query's own events, with query bit ``i`` remapped to the program bit of
event ``i``.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.explicit import ExplicitChecker, _labels, _mask
from repro.counter.program import ProtocolProgram
from repro.counter.system import CounterSystem, clear_shared_caches
from repro.protocols import cc85
from repro.protocols.registry import by_name
from repro.spec.obligations import obligations_for
from repro.spec.propositions import none_at, some_at

TARGETS = ("agreement", "validity", "termination")
#: (protocol, targets): termination runs on the verification model,
#: which for mmr14 is the refined model.
BUNDLES = {
    "cc85b": TARGETS,
    "mmr14": ("agreement", "validity"),
    "mmr14-refined": ("termination",),
}


@pytest.fixture(autouse=True)
def _cold():
    clear_shared_caches()
    yield
    clear_shared_caches()


def _bundle_checker(bundle: str, target: str) -> ExplicitChecker:
    entry = by_name(bundle.split("-")[0])
    model = entry.verification_model() if target == "termination" else entry.model()
    return ExplicitChecker(model, entry.small_valuation, max_states=150_000)


def _queries(checker: ExplicitChecker, target: str):
    obligations = obligations_for(checker.model, target)
    return obligations.reach_queries + obligations.game_queries


def _run_recording(checker: ExplicitChecker, query):
    """Check ``query``; return its outcome and the distinct configs it
    reached (initial configs and the successors of every popped one)."""
    system = checker.system
    reached = {id(c): c for c in system.initial_configs(query.init_filter)}
    groups = system.successor_groups

    def recording(config):
        result = groups(config)
        for group in result:
            for _action, succ in group:
                reached[id(succ)] = succ
        return result

    system.successor_groups = recording
    try:
        outcome = checker.check(query)
    finally:
        del system.successor_groups
    return outcome, list(reached.values())


def _oracle(system, query):
    """``_mask`` over the query's own events, remapped to program bits."""
    program = system.program
    events = tuple(p.compile(system) for p in query.events)
    bits = [program.prop_mask((prop,)) for prop in query.events]

    def oracle_bits(config) -> int:
        local = _mask(config, events, 0)
        remapped = 0
        for index, bit in enumerate(bits):
            if local >> index & 1:
                remapped |= bit
        return remapped

    return oracle_bits


def _assert_cached_labels(system, query, configs) -> int:
    """Every config carrying this program's labels for the query's bits
    agrees with the oracle; returns how many were checked."""
    program = system.program
    bits = program.prop_mask(query.events)
    oracle_bits = _oracle(system, query)
    checked = 0
    for config in configs:
        seen = config.label_events
        if seen is None or program.prop_events[: len(seen)] != seen:
            continue
        if bits >> len(seen):
            continue  # labelled before the query's props were registered
        assert config.labels & bits == oracle_bits(config), (query.name, config)
        checked += 1
    return checked


@pytest.mark.parametrize(
    "bundle,target",
    [(bundle, target) for bundle, targets in BUNDLES.items() for target in targets],
)
def test_cached_labels_match_the_per_query_oracle(bundle, target):
    checker = _bundle_checker(bundle, target)
    runs = []
    for query in _queries(checker, target):
        outcome, reached = _run_recording(checker, query)
        runs.append((query, outcome, reached))
        checked = _assert_cached_labels(checker.system, query, reached)
        if outcome.verdict == "holds":
            # A complete search labels everything it reached.
            assert checked == len(reached)
        else:
            assert checked
    # Later queries grew the table; earlier queries' bits still hold.
    for query, _outcome, reached in runs:
        _assert_cached_labels(checker.system, query, reached)


def test_labels_survive_the_table_growing_between_queries():
    checker = _bundle_checker("cc85b", "agreement")
    first, second = _queries(checker, "agreement")
    program = checker.system.program
    _outcome, reached_first = _run_recording(checker, first)
    table_first = program.prop_events
    # A proposition no query uses, registered between the two queries.
    extra = some_at(checker.system.locations[0].name, bound=2)
    assert program.prop_mask((extra,)) >> len(table_first) == 1
    _outcome, reached_second = _run_recording(checker, second)
    assert len(program.prop_events) > len(table_first)
    assert _assert_cached_labels(checker.system, first, reached_first)
    assert _assert_cached_labels(checker.system, second, reached_second)
    relabelled = [c for c in reached_first if c.label_events is program.prop_events]
    for config in relabelled:
        assert bool(config.labels & program.prop_mask((extra,))) == extra.holds(
            checker.system, config
        )


def test_config_interned_by_two_programs_is_relabelled():
    valuation = by_name("cc85b").small_valuation
    checker_a = ExplicitChecker(cc85.model_b(), valuation)
    checker_b = ExplicitChecker(cc85.model_b(), valuation)
    model = checker_a.model
    first = ProtocolProgram(model)
    second = ProtocolProgram(model)
    checker_a.system = CounterSystem(model, valuation, program=first)
    # One intern table: both systems hand out the same Config objects.
    checker_b.system = CounterSystem(
        model, valuation, program=second, intern_table=first.intern_table
    )
    system_a, system_b = checker_a.system, checker_b.system
    query = _queries(checker_a, "agreement")[0]
    # Shift the second program's bits so stale bits would be wrong.
    second.prop_mask((none_at(*query.events[0].locations),))
    outcome_a, reached_a = _run_recording(checker_a, query)
    outcome_b, reached_b = _run_recording(checker_b, query)
    assert (outcome_a.verdict, outcome_a.states_explored) == (
        outcome_b.verdict, outcome_b.states_explored
    )
    assert {id(c) for c in reached_a} & {id(c) for c in reached_b}
    for config in reached_b:
        assert config.label_events is second.prop_events
    assert _assert_cached_labels(system_b, query, reached_b) == len(reached_b)
    # Back on the first program: relabelled again, never trusted.
    config = reached_a[-1]
    assert _labels(first, config) & first.prop_mask(query.events) == (
        _oracle(system_a, query)(config)
    )
    assert config.label_events is first.prop_events


_HYP_VALUATION = by_name("cc85b").small_valuation
_HYP_MODEL = ExplicitChecker(cc85.model_b(), _HYP_VALUATION).model
_HYP_PROPS = tuple(
    dict.fromkeys(
        prop
        for target in TARGETS
        for query in (
            obligations_for(_HYP_MODEL, target).reach_queries
            + obligations_for(_HYP_MODEL, target).game_queries
        )
        for prop in query.events
    )
)


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=10**6),
    walk=st.lists(st.integers(min_value=0, max_value=10**6), max_size=40),
    order=st.permutations(range(len(_HYP_PROPS))),
    split=st.integers(min_value=0, max_value=len(_HYP_PROPS)),
)
def test_random_reachable_configs_label_like_the_props(start, walk, order, split):
    program = ProtocolProgram(_HYP_MODEL)
    system = CounterSystem(_HYP_MODEL, _HYP_VALUATION, program=program)
    initial = list(system.initial_configs())
    config = initial[start % len(initial)]
    for pick in walk:
        successors = [s for g in system.successor_groups(config) for _a, s in g]
        if not successors:
            break
        config = successors[pick % len(successors)]
    props = [_HYP_PROPS[i] for i in order]
    # Label under part of the table, grow it, label again.
    program.prop_mask(props[:split])
    _labels(program, config)
    program.prop_mask(props[split:])
    labels = _labels(program, config)
    for prop in props:
        assert bool(labels & program.prop_mask((prop,))) == prop.holds(
            system, config
        )


def test_a_labelled_config_pickles_without_its_labels():
    checker = _bundle_checker("cc85b", "agreement")
    program = checker.system.program
    query = _queries(checker, "agreement")[0]
    program.prop_mask(query.events)
    config = next(checker.system.initial_configs())
    _labels(program, config)
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and hash(copy) == hash(config)
    assert (copy.rounds, copy.label_events, copy.labels) == (config.rounds, None, 0)
