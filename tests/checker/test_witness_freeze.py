"""Byte freeze of three counterexamples, one per witness-producing path.

The golden verdict files pin verdicts and state counts only; this
module pins the witnesses themselves — valuation, initial placement,
schedule (coin branches included), description and rendering — so a
change to how results are represented cannot silently change what a
user reads or what the result cache stores.

* an explicit reach witness through ``repro.api`` with a coin-branch
  action (``rb@TS``), compared as its ``to_dict()`` JSON bytes with
  every wall-clock field removed;
* a parameterized reach witness (its own valuation, replayed);
* an explicit game witness (one play of the adversary's strategy).
"""

import json

from repro import api
from repro.checker.explicit import ExplicitChecker
from repro.checker.parameterized import ParameterizedChecker
from repro.protocols import naive_voting
from repro.spec.properties import PropertyLibrary
from tests.checker.test_game_semantics import VAL, tiny_model


def _without_times(data):
    if isinstance(data, dict):
        return {k: _without_times(v) for k, v in data.items()
                if k != "time_seconds"}
    if isinstance(data, list):
        return [_without_times(v) for v in data]
    return data


CC85A_DISAGREEING_AGREEMENT = (
    '{"target": "agreement", "queries": ['
    '{"query": "inv1[0]", "verdict": "violated", "states_explored": 846, '
    '"nschemas": 0, "limit_tripped": "", "detail": "", "counterexample": {'
    '"valuation": {"n": 4, "t": 1, "f": 1}, '
    '"initial_placement": {"J0": 2, "J1": 1, "J2": 1}, '
    '"schedule": [["r1", 0, null], ["r1", 0, null], ["r2", 0, null], '
    '["r3", 0, null], ["r3", 0, null], ["r4", 0, null], ["r5", 0, null], '
    '["r5", 0, null], ["r14", 0, null], ["ra", 0, null], ["rb", 0, "TS"], '
    '["rg", 0, null], ["r15__d", 0, null], ["r20__d", 0, null]], '
    '"description": "violates inv1[0]: A F (EX{D0}) \\u2192 '
    'G (\\u00acEX{E1, D1})"}}, '
    '{"query": "inv1[1]", "verdict": "violated", "states_explored": 754, '
    '"nschemas": 0, "limit_tripped": "", "detail": "", "counterexample": {'
    '"valuation": {"n": 4, "t": 1, "f": 1}, '
    '"initial_placement": {"J0": 1, "J1": 2, "J2": 1}, '
    '"schedule": [["r1", 0, null], ["r2", 0, null], ["r2", 0, null], '
    '["r3", 0, null], ["r4", 0, null], ["r4", 0, null], ["r6", 0, null], '
    '["r11", 0, null], ["r14", 0, null], ["ra", 0, null], ["rb", 0, "TS"], '
    '["rg", 0, null], ["r17__d", 0, null], ["r19__d", 0, null]], '
    '"description": "violates inv1[1]: A F (EX{D1}) \\u2192 '
    'G (\\u00acEX{E0, D0})"}}], '
    '"side_conditions": {"non_blocking": true, "fair_termination": true}, '
    '"skipped_side_conditions": {}}'
)


def test_explicit_reach_witness_bytes():
    result = api.verify("cc85a", target="agreement", coin="disagreeing:1/8")
    outcome = result.outcome("agreement")
    assert json.dumps(_without_times(outcome.to_dict())) == (
        CC85A_DISAGREEING_AGREEMENT
    )
    assert str(outcome.counterexample) == (
        "parameters {'n': 4, 't': 1, 'f': 1}; start [J0=2, J1=1, J2=1]; "
        "schedule: (r1, 0) (r1, 0) (r2, 0) (r3, 0) (r3, 0) (r4, 0) "
        "(r5, 0) (r5, 0) (r14, 0) (ra, 0) (rb@TS, 0) (rg, 0) "
        "(r15__d, 0) (r20__d, 0)"
    )


def test_parameterized_reach_witness():
    model = naive_voting.model()
    result = ParameterizedChecker(model).check_reach(
        PropertyLibrary(model).inv1(0)
    )
    ce = result.counterexample
    assert ce.valuation == {"n": 3, "f": 1}
    assert ce.initial_placement == {"I0": 1, "I1": 1}
    assert ce.description == (
        "violates inv1[0]: A F (EX{D0}) → G (¬EX{D1}) "
        "(parameterized witness, replayed)"
    )
    assert [(a.rule, a.round, a.branch) for a in ce.schedule] == [
        ("r1", 0, None), ("r2", 0, None), ("r3", 0, None), ("r4", 0, None),
    ]
    assert str(ce) == (
        "parameters {'n': 3, 'f': 1}; start [I0=1, I1=1]; "
        "schedule: (r1, 0) (r2, 0) (r3, 0) (r4, 0)"
    )


def test_explicit_game_witness():
    model = tiny_model(escape_rule=True)
    result = ExplicitChecker(model, VAL).check_game(
        PropertyLibrary(model).c2prime(0)
    )
    assert str(result.counterexample) == (
        "parameters {'n': 4, 't': 1, 'f': 1}; start [J0=3, J2=1]; "
        "schedule: (r1, 0) (r1, 0) (r1, 0) (r3, 0) (r3, 0) (r3, 0) (r9, 0)"
    )
