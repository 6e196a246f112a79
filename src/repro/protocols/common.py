"""Shared modelling templates for the benchmark protocols.

The eight protocols of §VI fall into three structural families:

* **Category (A)** — no decide action (Rabin83): vote, then either
  adopt a majority value or take the common coin.
* **Category (B)** — decide actions guarded by the coin (CC85(a)/(b),
  FMR05, KS16): vote (possibly in several stages), then a *strong*
  quorum allows deciding when the coin agrees, a correct-majority
  quorum adopts without deciding, and genuinely mixed views adopt the
  coin.
* **Category (C)** — BV-broadcast/crusader-agreement protocols (MMR14,
  Miller18, ABY22), modelled in their own modules.

**The coin trigger.**  Category A/B termination proofs assume the
round-``r`` coin is unpredictable until every correct process has fixed
its round-``r`` update branch; we model this by guarding the coin toss
with a shared counter ``w`` that every process bumps when it commits
its branch (``w >= n - f``).  Category C protocols are exactly the ones
engineered to need *no* such assumption (binding instead), so their
coin automata are untriggered — which is where the MMR14 adaptive
attack lives.  See DESIGN.md §5.

The family template is parameterized by three guard builders so each
protocol keeps its own thresholds and resilience condition:

* ``strong(v)``  — a view deciding ``v`` exists;
* ``adopt(v)``   — a majority-``v``-but-undecidable view exists
  (requires genuine mixedness so uniform rounds stay uniform);
* ``mixed``      — a no-majority view exists.

The quorum-intersection facts the paper's obligations rest on
(``strong(v)`` excludes every ``1-v`` branch, ``adopt(0)`` excludes
``adopt(1)``, uniform starts block everything but ``strong``) then hold
parametrically and are discharged by the checkers.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.builder import AutomatonBuilder
from repro.core.coin import standard_coin_automaton
from repro.core.coinspec import CoinLike, resolve_coin_spec
from repro.core.environment import Environment
from repro.core.expression import params
from repro.core.guards import Guard, Var
from repro.core.system import SystemModel

COIN_VARS = ("cc0", "cc1")

#: Shared trigger counter: processes that committed their round branch.
TRIGGER_VAR = "w"


def triggered_coin(shared_vars: Sequence[str], prefix: str,
                   coin: CoinLike = None):
    """The standard coin automaton gated on all-correct-committed."""
    n, f = params("n f")
    return standard_coin_automaton(
        shared_vars,
        COIN_VARS,
        prefix=prefix,
        trigger_guard=(Var(TRIGGER_VAR) >= n - f,),
        spec=resolve_coin_spec(coin),
    )


def one_stage_voting_automaton(
    name: str,
    strong: Optional[Callable[[int], Sequence[Guard]]],
    adopt: Optional[Callable[[int], Sequence[Guard]]],
    mixed: Sequence[Guard],
) -> "AutomatonBuilder":
    """The category A/B skeleton over vote counters ``v0``/``v1``.

    Locations: borders ``J0/J1``, initials ``I0/I1``, voted ``S0/S1``,
    decide-ready ``M0/M1`` (only when ``strong`` is given), coin-waiting
    ``MC``, finals ``E0/E1`` (+ ``D0/D1`` with ``strong``).

    Returns the builder so callers can extend it before ``build()``.
    """
    b = AutomatonBuilder(name)
    shared = ["v0", "v1", TRIGGER_VAR]
    b.shared(*shared)
    b.coins(*COIN_VARS)
    b.border("J0", value=0)
    b.border("J1", value=1)
    b.initial("I0", value=0)
    b.initial("I1", value=1)
    b.location("S0", value=0)
    b.location("S1", value=1)
    if strong is not None:
        b.location("M0", value=0)
        b.location("M1", value=1)
    b.location("MC")
    b.final("E0", value=0)
    b.final("E1", value=1)
    if strong is not None:
        b.final("D0", value=0, decision=True)
        b.final("D1", value=1, decision=True)

    cc0, cc1 = Var(COIN_VARS[0]), Var(COIN_VARS[1])
    bump = {TRIGGER_VAR: 1}

    b.border_entry("J0", "I0", name="r1")
    b.border_entry("J1", "I1", name="r2")
    b.rule("r3", "I0", "S0", update={"v0": 1})
    b.rule("r4", "I1", "S1", update={"v1": 1})
    counter = 5
    for source in ("S0", "S1"):
        if strong is not None:
            for v in (0, 1):
                b.rule(f"r{counter}", source, f"M{v}", guard=strong(v), update=bump)
                counter += 1
        if adopt is not None:
            for v in (0, 1):
                b.rule(f"r{counter}", source, f"E{v}", guard=adopt(v), update=bump)
                counter += 1
        b.rule(f"r{counter}", source, "MC", guard=mixed, update=bump)
        counter += 1
    if strong is not None:
        b.rule(f"r{counter}", "M0", "D0", guard=cc0 > 0)
        b.rule(f"r{counter + 1}", "M0", "E0", guard=cc1 > 0)
        b.rule(f"r{counter + 2}", "M1", "D1", guard=cc1 > 0)
        b.rule(f"r{counter + 3}", "M1", "E1", guard=cc0 > 0)
        counter += 4
    b.rule(f"r{counter}", "MC", "E0", guard=cc0 > 0)
    b.rule(f"r{counter + 1}", "MC", "E1", guard=cc1 > 0)
    b.round_switch("E0", "J0", name="rs1")
    b.round_switch("E1", "J1", name="rs2")
    if strong is not None:
        b.round_switch("D0", "J0", name="rs3")
        b.round_switch("D1", "J1", name="rs4")
    return b


def voting_model(
    name: str,
    environment: Environment,
    category: str,
    strong: Optional[Callable[[int], Sequence[Guard]]],
    adopt: Optional[Callable[[int], Sequence[Guard]]],
    mixed: Sequence[Guard],
    description: str,
    coin: CoinLike = None,
) -> SystemModel:
    """Assemble a one-stage voting protocol with a triggered coin.

    ``coin`` picks the :class:`~repro.core.coinspec.CoinSpec` the coin
    automaton implements (None = the default perfect coin, under which
    the model is bit-identical to the pre-CoinSpec one).
    """
    spec = resolve_coin_spec(coin)
    builder = one_stage_voting_automaton(name, strong, adopt, mixed)
    automaton = spec.adapt_process(builder.build(check="multi_round"))
    return SystemModel(
        name=name,
        environment=environment,
        process=automaton,
        coin=triggered_coin(automaton.shared_vars, prefix=name, coin=spec),
        category=category,
        description=description,
    )
