"""ABY22 — Abraham, Ben-David & Yandamuri (PODC 2022): asynchronous
binary agreement via **binding crusader agreement** (BCA), ``n > 3t``.

The protocol that *introduced* the binding condition the DSN paper
checks.  Binding is achieved inside the BCA: a process reports ``{v}``
only while the opposite value has not yet entered ``bin_values``
(guards with a ``<`` conjunct).  Because shared counters only grow,
``{0}``-reports and ``{1}``-reports are *temporally exclusive* — once
``b1`` reaches the bin threshold no further ``{0}``-report can ever be
sent, which is precisely what makes CB0–CB4 provable where MMR14 fails.

Structure (category C, untriggered coin):

* BV-broadcast of the estimate with relays (``b0``/``b1``), as MMR14;
* crusader reports ``c0``/``c1``/``cb`` guarded by
  ``bin_v ∧ ¬bin_{1-v}`` (values) or ``bin_0 ∧ bin_1`` (both);
* BCA output: ``M_v`` on an ``n - 2t`` majority of ``v``-reports,
  ``W -> Mbot`` when a majority-free view exists;
* the ABA wrapper: decide on a matching coin, adopt otherwise.

:func:`variant` produces the Table IV automata: same ``|L|``/``|R|``,
decreasing milestone counts obtained by merging threshold expressions
(the paper's ABY22-1 … ABY22-4).
"""

from __future__ import annotations

from repro.core.builder import AutomatonBuilder
from repro.core.coin import standard_coin_automaton
from repro.core.coinspec import CoinLike, resolve_coin_spec
from repro.core.environment import ge, gt, standard_environment
from repro.core.expression import params
from repro.core.system import SystemModel
from repro.core.transforms import refine_bca
from repro.errors import ModelError

NAME = "aby22"

SHARED_VARS = ("b0", "b1", "c0", "c1", "cb")
COIN_VARS = ("cc0", "cc1")


def environment():
    """``n > 3t ∧ t >= f >= 0 ∧ t >= 1`` — ABY22's optimal resilience."""
    n, t, f = params("n t f")
    return standard_environment(
        resilience=(gt(n, 3 * t), ge(t, f), ge(f, 0), ge(t, 1)),
        parameters="n t f",
        num_processes=n - f,
    )


def automaton(merge_level: int = 0):
    """The ABY22 process automaton.

    ``merge_level`` in ``0..4`` merges guard atoms to shed milestones
    one at a time without changing the location/rule counts — the
    Table IV variants ABY22-``k``.
    """
    if merge_level not in range(5):
        raise ModelError(f"merge level must be 0..4, got {merge_level}")
    n, t, f = params("n t f")
    suffix = "" if merge_level == 0 else f"-{merge_level}"
    b = AutomatonBuilder(f"{NAME}{suffix}")
    b.shared(*SHARED_VARS)
    b.coins(*COIN_VARS)

    b.border("J0", value=0)
    b.border("J1", value=1)
    b.initial("I0", value=0)
    b.initial("I1", value=1)
    b.location("S0", value=0)
    b.location("S1", value=1)
    b.location("S2")
    b.location("R0", value=0)   # reported {0}
    b.location("R1", value=1)   # reported {1}
    b.location("RB")            # reported {0, 1}
    b.location("W")             # n-t reports collected, output ⊥ pending
    b.location("M0", value=0)
    b.location("M1", value=1)
    b.location("Mbot")
    b.final("E0", value=0)
    b.final("E1", value=1)
    b.final("D0", value=0, decision=True)
    b.final("D1", value=1, decision=True)

    b0v, b1v = b.var("b0"), b.var("b1")
    c0, c1, cb = b.var("c0"), b.var("c1"), b.var("cb")
    cc0, cc1 = b.var("cc0"), b.var("cc1")

    bin0 = b0v >= 2 * t + 1 - f
    bin1 = b1v >= 2 * t + 1 - f
    not_bin0 = b0v < 2 * t + 1 - f
    not_bin1 = b1v < 2 * t + 1 - f
    # Each merge level drops one distinct threshold expression.
    relay0 = b0v >= (t + 1 - f if merge_level < 4 else 2 * t + 1 - f)
    relay1 = b1v >= (t + 1 - f if merge_level < 3 else 2 * t + 1 - f)
    report_total = c0 + c1 + cb >= n - t - f
    bot_needs_1 = (
        c1 + cb >= t + 1 - f if merge_level < 1 else c0 + c1 + cb >= n - t - f
    )
    bot_needs_0 = (
        c0 + cb >= t + 1 - f if merge_level < 2 else c0 + c1 + cb >= n - t - f
    )
    major0 = c0 >= n - 2 * t - f
    major1 = c1 >= n - 2 * t - f

    b.border_entry("J0", "I0", name="r1")
    b.border_entry("J1", "I1", name="r2")
    # BV-broadcast with relays.
    b.rule("r3", "I0", "S0", update={"b0": 1})
    b.rule("r4", "I1", "S1", update={"b1": 1})
    b.rule("r5", "S0", "S2", guard=relay1, update={"b1": 1})
    b.rule("r6", "S1", "S2", guard=relay0, update={"b0": 1})
    # Crusader reports: a {v} report is only possible while the other
    # value is outside bin_values — the binding mechanism.
    counter = 7
    for source in ("S0", "S1", "S2"):
        b.rule(f"r{counter}", source, "R0", guard=(bin0, not_bin1), update={"c0": 1})
        b.rule(f"r{counter+1}", source, "R1", guard=(bin1, not_bin0), update={"c1": 1})
        b.rule(f"r{counter+2}", source, "RB", guard=(bin0, bin1), update={"cb": 1})
        counter += 3
    # BCA output.
    for source in ("R0", "R1", "RB"):
        b.rule(f"r{counter}", source, "M0", guard=major0)
        b.rule(f"r{counter+1}", source, "M1", guard=major1)
        b.rule(
            f"r{counter+2}",
            source,
            "W",
            guard=(report_total, bot_needs_1, bot_needs_0),
        )
        counter += 3
    b.rule(f"r{counter}", "W", "Mbot")  # refined over c0/c1
    counter += 1
    # ABA wrapper: decide with a matching coin.
    b.rule(f"r{counter}", "M0", "D0", guard=cc0 > 0)
    b.rule(f"r{counter+1}", "M0", "E0", guard=cc1 > 0)
    b.rule(f"r{counter+2}", "M1", "D1", guard=cc1 > 0)
    b.rule(f"r{counter+3}", "M1", "E1", guard=cc0 > 0)
    b.rule(f"r{counter+4}", "Mbot", "E0", guard=cc0 > 0)
    b.rule(f"r{counter+5}", "Mbot", "E1", guard=cc1 > 0)
    b.round_switch("E0", "J0", name="rs1")
    b.round_switch("E1", "J1", name="rs2")
    b.round_switch("D0", "J0", name="rs3")
    b.round_switch("D1", "J1", name="rs4")
    return b.build(check="multi_round")


def _bot_rule_name() -> str:
    # The W -> Mbot rule is the 16th numbered rule after the reports.
    return "r25"


def model(coin: CoinLike = None) -> SystemModel:
    """The unrefined ABY22 system model (untriggered coin)."""
    spec = resolve_coin_spec(coin)
    return SystemModel(
        name=NAME,
        environment=environment(),
        process=spec.adapt_process(automaton()),
        coin=standard_coin_automaton(SHARED_VARS, COIN_VARS, prefix=NAME,
                                     spec=spec),
        category="C",
        crusader_locations={"M0": "M0", "M1": "M1", "Mbot": "Mbot"},
        description="Abraham-Ben-David-Yandamuri 2022, binding crusader agreement",
    )


def refined_model(merge_level: int = 0, coin: CoinLike = None) -> SystemModel:
    """ABY22 (or a Table IV variant) with the Fig. 6 refinement."""
    base = automaton(merge_level)
    refined = refine_bca(
        base, _bot_rule_name(), m0_var="c0", m1_var="c1",
        n0="N0", n1="N1", nbot="Nbot", name=f"{base.name}-refined",
    )
    refined.check_multi_round_form()
    spec = resolve_coin_spec(coin)
    suffix = "" if merge_level == 0 else f"-{merge_level}"
    return SystemModel(
        name=f"{NAME}{suffix}-refined",
        environment=environment(),
        process=spec.adapt_process(refined),
        coin=standard_coin_automaton(SHARED_VARS, COIN_VARS, prefix=NAME,
                                     spec=spec),
        category="C",
        crusader_locations={
            "M0": "M0", "M1": "M1", "Mbot": "Mbot",
            "N0": "N0", "N1": "N1", "Nbot": "Nbot",
        },
        description=f"ABY22 Table IV variant (merge level {merge_level})",
    )


def variant(merge_level: int) -> SystemModel:
    """The Table IV automata ABY22-1 … ABY22-4 (refined form)."""
    return refined_model(merge_level)
