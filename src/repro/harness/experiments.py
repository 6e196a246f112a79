"""Experiment registry: every table and figure, one callable each.

``python -m repro.harness <experiment>`` regenerates a single artifact;
``python -m repro.harness all`` runs everything (the quick ones).  The
index mirrors DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.analysis.render import ascii_summary, to_dot
from repro.errors import CheckError


@dataclass(frozen=True)
class Experiment:
    """One regenerable artifact of the paper."""

    ident: str
    description: str
    runner: Callable[[], str]
    #: slow experiments are excluded from `all`
    slow: bool = False


def _table1() -> str:
    from repro.harness.tables import table1

    return table1()


def _table2() -> str:
    from repro.harness.tables import table2, table2_comparison

    rows, formatted = table2()
    return formatted + "\n\npaper comparison:\n" + table2_comparison(rows)


def _table2_quick() -> str:
    from repro.harness.tables import table2

    _rows, formatted = table2(protocols=("cc85a", "fmr05", "mmr14"))
    return formatted


def _table3() -> str:
    from repro.harness.tables import table3

    return table3()


def _table4() -> str:
    from repro.harness.tables import table4

    _rows, formatted = table4()
    return formatted


def _fig3() -> str:
    from repro.protocols import naive_voting

    return ascii_summary(naive_voting.automaton())


def _fig4() -> str:
    from repro.protocols import mmr14

    model = mmr14.model()
    return (
        ascii_summary(model.process)
        + "\n\n"
        + ascii_summary(model.coin)
        + "\n\nDOT (process):\n"
        + to_dot(model.process, "Fig4a-MMR14")
    )


def _fig6() -> str:
    from repro.protocols import mmr14

    return ascii_summary(mmr14.refined_model().process)


def _attack() -> str:
    from repro.sim import (
        AdaptiveCoinAttack,
        EquivocatingByzantine,
        MMR14Process,
        Miller18Process,
        Simulation,
        run,
    )

    lines = []
    sim = Simulation(MMR14Process, n=4, t=1, inputs=[0, 0, 1], coin_seed=7)
    byz = EquivocatingByzantine(list(sim.byzantine))
    result = run(sim, AdaptiveCoinAttack(byz), max_steps=20_000)
    lines.append(
        f"MMR14 under the adaptive attack: decided={result.decided} "
        f"(rounds reached {result.rounds_reached}, {result.steps} deliveries)"
    )
    sim = Simulation(Miller18Process, n=4, t=1, inputs=[0, 0, 1], coin_seed=7)
    byz = EquivocatingByzantine(list(sim.byzantine))
    result = run(sim, AdaptiveCoinAttack(byz), max_steps=20_000)
    lines.append(
        f"Miller18 under the same adversary: decided={result.decided} "
        f"in rounds {result.decision_rounds}"
    )
    return "\n".join(lines)


def _expected_rounds() -> str:
    from repro.sim import ABY22Process, Miller18Process, MMR14Process, expected_rounds

    lines = ["expected decision round (random fair scheduler, mixed inputs):"]
    for cls in (MMR14Process, Miller18Process, ABY22Process):
        mean = expected_rounds(cls, 4, 1, [0, 0, 1], runs=30)
        lines.append(f"  {cls.__name__:18s} {mean:.2f}")
    return "\n".join(lines)


REGISTRY: Dict[str, Experiment] = {
    exp.ident: exp
    for exp in (
        Experiment("table1", "MMR14 rule table (Table I)", _table1),
        Experiment("table2", "full verification benchmark (Table II)", _table2,
                   slow=True),
        Experiment("table2-quick", "Table II on three protocols", _table2_quick),
        Experiment("table3", "checked property formulas (Table III)", _table3),
        Experiment("table4", "milestones vs schema counts (Table IV)", _table4),
        Experiment("fig3", "naive voting automaton (Fig. 3)", _fig3),
        Experiment("fig4", "MMR14 automata (Fig. 4)", _fig4),
        Experiment("fig6", "refined binding model (Fig. 6)", _fig6),
        Experiment("attack", "the §II adaptive attack, simulated", _attack),
        Experiment("expected-rounds", "§II expected-round folklore", _expected_rounds),
    )
}


def run_experiment(ident: str) -> str:
    try:
        experiment = REGISTRY[ident]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise CheckError(f"unknown experiment {ident!r}; known: {known}") from None
    return experiment.runner()


def run_all(include_slow: bool = False) -> str:
    chunks = []
    for ident in sorted(REGISTRY):
        experiment = REGISTRY[ident]
        if experiment.slow and not include_slow:
            continue
        chunks.append(f"=== {ident}: {experiment.description} ===")
        chunks.append(experiment.runner())
        chunks.append("")
    return "\n".join(chunks)
