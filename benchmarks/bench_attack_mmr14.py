"""The §II adaptive-adversary attack, two ways.

1. **Model checking**: the parameterized schema checker finds the CB2
   binding violation of MMR14 and emits a parameterized, replayed
   counterexample — the paper's Table II "CE" row (ByMC needed ~10 s;
   our pure-Python pipeline is slower but finds the same violation).
   The explicit checker reproduces it exhaustively at n=4, t=f=1.
2. **Execution**: the attack scheduler starves real MMR14 processes
   forever, while Miller18/ABY22 decide under the identical adversary.
"""

import pytest

from repro.checker.explicit import ExplicitChecker
from repro.checker.parameterized import ParameterizedChecker
from repro.checker.result import HOLDS, VIOLATED
from repro.protocols import miller18, mmr14
from repro.sim import (
    ABY22Process,
    AdaptiveCoinAttack,
    EquivocatingByzantine,
    Miller18Process,
    MMR14Process,
    Simulation,
    run,
)
from repro.spec.properties import PropertyLibrary

VAL = {"n": 4, "t": 1, "f": 1}


def test_cb2_explicit_counterexample(benchmark, run_once):
    model = mmr14.refined_model()

    def check():
        checker = ExplicitChecker(model, VAL)
        return checker.check_reach(PropertyLibrary(model).cb(2))

    result = run_once(benchmark, check)
    assert result.verdict == VIOLATED
    assert result.counterexample is not None


def test_cb2_parameterized_counterexample(benchmark, run_once):
    model = mmr14.refined_model()

    def check():
        checker = ParameterizedChecker(model)
        return checker.check_reach(PropertyLibrary(model).cb(2))

    result = run_once(benchmark, check)
    assert result.verdict == VIOLATED
    benchmark.extra_info["ce_parameters"] = result.counterexample.valuation
    benchmark.extra_info["nschemas"] = result.nschemas


def test_cb2_holds_for_miller18_explicit(benchmark, run_once):
    model = miller18.refined_model()

    def check():
        checker = ExplicitChecker(model, VAL, max_states=900_000)
        return checker.check_reach(PropertyLibrary(model).cb(2))

    result = run_once(benchmark, check)
    assert result.verdict == HOLDS


def _starve(cls, expect_decision):
    sim = Simulation(cls, n=4, t=1, inputs=[0, 0, 1], coin_seed=7)
    byzantine = EquivocatingByzantine(list(sim.byzantine))
    result = run(sim, AdaptiveCoinAttack(byzantine), max_steps=15_000)
    decided = any(v is not None for v in result.decided.values())
    assert decided == expect_decision
    return result


def test_attack_starves_mmr14(benchmark, run_once):
    result = run_once(benchmark, _starve, MMR14Process, False)
    benchmark.extra_info["rounds_survived"] = result.rounds_reached
    assert result.rounds_reached > 50


@pytest.mark.parametrize(
    "cls", [Miller18Process, ABY22Process], ids=lambda c: c.__name__
)
def test_attack_fails_on_fixed_protocols(benchmark, run_once, cls):
    result = run_once(benchmark, _starve, cls, True)
    assert result.agreement and result.validity
