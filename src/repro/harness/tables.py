"""Regeneration of the paper's tables (I–IV).

Each ``table*`` function returns structured rows plus a formatted
string; the benchmark suite times them and EXPERIMENTS.md records the
paper-vs-measured comparison.  ``table2`` runs the actual verification
pipeline:

* **Agreement / Validity** — Inv1/Inv2 A-queries: the parameterized
  schema checker for the small (category A/B) automata, the exhaustive
  explicit checker (with analytic nschemas) for category C, exactly as
  scoped in DESIGN.md §2.
* **A.S. Termination** — the per-category bundle of §V-B: C2/CB*
  A-queries plus the Lemma-2 games (checked on the explicit state
  space); MMR14 reproduces the binding counterexample.

A parameterized cell that comes back ``unknown`` (schema budget) is
re-run on the explicit engine, which logs ``tables.explicit_fallback``.
``Table2Cell.engine`` records which engine decided each cell, and the
formatted table marks every verdict decided at one valuation.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.api import Limits, verify
from repro.checker.milestones import CombinedModel, extract_milestones, precedence_order
from repro.checker.result import VIOLATED
from repro.analysis.milestone_table import MilestoneRow, table_iv_rows
from repro.harness.paper_data import TABLE_IV, paper_row
from repro.protocols import benchmark, mmr14
from repro.protocols.registry import ProtocolEntry
from repro.spec.obligations import obligations_for
from repro.spec.properties import PropertyLibrary

logger = logging.getLogger(__name__)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text column alignment."""
    table = [list(map(str, headers))] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table I — the MMR14 rule table
# ----------------------------------------------------------------------
def table1() -> str:
    """The rules of the multi-round MMR14 automaton (guards + updates)."""
    automaton = mmr14.automaton()
    rows = []
    for rule in automaton.rules:
        guard = " & ".join(str(g) for g in rule.guard) or "true"
        update = ", ".join(f"{v}++" * i for v, i in rule.update) or "-"
        rows.append((rule.name, f"{rule.source} -> {rule.target}", guard, update))
    return format_table(("rule", "edge", "guard", "update"), rows)


# ----------------------------------------------------------------------
# Table II — the verification benchmark
# ----------------------------------------------------------------------
@dataclass
class Table2Cell:
    verdict: str
    nschemas: int
    time_seconds: float
    states: int = 0
    #: the engine that decided the verdict: ``"parameterized"`` (all
    #: parameters) or ``"explicit"`` (the registry's small valuation)
    engine: str = "explicit"


@dataclass
class Table2Row:
    name: str
    category: str
    locations: int
    rules: int
    agreement: Table2Cell
    validity: Table2Cell
    termination: Table2Cell
    counterexample: Optional[str] = None


def _analytic_nschemas(model, queries) -> int:
    rd = model.single_round()
    combined = CombinedModel(rd)
    milestones = extract_milestones(combined)
    predecessors = precedence_order(milestones, rd)
    from repro.checker.schemas import count_schemas

    return sum(
        count_schemas(milestones, predecessors, len(q.events)) for q in queries
    )


def _check_target(entry: ProtocolEntry, target: str,
                  parameterized: bool,
                  node_budget: int = 4_000) -> Tuple[Table2Cell, Optional[str]]:
    started = time.perf_counter()
    ce_text: Optional[str] = None

    # Built lazily: only the parameterized gate and the analytic
    # nschemas fallback need the model outside the engine.
    model = None
    obligations = None

    def _spec():
        nonlocal model, obligations
        if obligations is None:
            model = (
                entry.verification_model()
                if target == "termination"
                else entry.model()
            )
            obligations = obligations_for(model, target)
        return obligations

    outcome = None
    engine = "explicit"
    if parameterized and not _spec().game_queries:
        outcome = verify(
            entry.name,
            target=target,
            engine="parameterized",
            limits=Limits(max_nodes=node_budget),
        ).outcome(target)
        if outcome.verdict == "unknown":
            # Schema budget hit: defer to the explicit engine, which
            # decides the cell at one valuation only.
            logger.info(
                "%s %s: parameterized unknown, decided on the explicit engine",
                entry.name, target,
                extra={
                    "event": "tables.explicit_fallback",
                    "protocol": entry.name,
                    "target": target,
                    "valuation": dict(entry.small_valuation),
                },
            )
            outcome = None
        else:
            engine = "parameterized"
    if outcome is None:
        outcome = verify(
            entry.name,
            target=target,
            valuation=entry.small_valuation,
            limits=Limits(max_states=900_000),
        ).outcome(target)
    elapsed = time.perf_counter() - started
    nschemas = outcome.nschemas
    if not nschemas:
        spec = _spec()
        nschemas = _analytic_nschemas(
            model, spec.reach_queries + spec.game_queries
        )
    if outcome.verdict == VIOLATED and outcome.counterexample is not None:
        ce_text = str(outcome.counterexample)
    return (
        Table2Cell(
            verdict=outcome.verdict,
            nschemas=nschemas,
            time_seconds=elapsed,
            states=outcome.states_explored,
            engine=engine,
        ),
        ce_text,
    )


def table2(parameterized_small: bool = True,
           protocols: Optional[Sequence[str]] = None) -> Tuple[List[Table2Row], str]:
    """Run the full benchmark; returns rows and the formatted table.

    Args:
        parameterized_small: use the schema checker for the safety
            queries of category A/B protocols (as the paper does); the
            category C protocols and all Lemma-2 games use the
            exhaustive explicit checker at the registry's small
            valuation.
        protocols: optional subset of protocol names.
    """
    rows: List[Table2Row] = []
    for entry in benchmark():
        if protocols is not None and entry.name not in protocols:
            continue
        use_param = parameterized_small and entry.category in ("A", "B")
        locations, rules = entry.model().paper_size()
        agreement, _ = _check_target(entry, "agreement", use_param)
        validity, _ = _check_target(entry, "validity", use_param)
        termination, ce_text = _check_target(entry, "termination", False)
        rows.append(
            Table2Row(
                name=entry.name,
                category=entry.category,
                locations=locations,
                rules=rules,
                agreement=agreement,
                validity=validity,
                termination=termination,
                counterexample=ce_text,
            )
        )
    formatted = _format_table2(rows)
    return rows, formatted


def _scoped(cell: Table2Cell) -> str:
    """The verdict, starred when it holds at one valuation only."""
    return cell.verdict + ("*" if cell.engine == "explicit" else "")


def _format_table2(rows: List[Table2Row]) -> str:
    body = []
    for row in rows:
        term = (
            "CE"
            if row.termination.verdict == VIOLATED
            else f"{row.termination.time_seconds:.2f}s"
        )
        body.append(
            (
                row.name,
                row.category,
                row.locations,
                row.rules,
                _scoped(row.agreement),
                row.agreement.nschemas,
                f"{row.agreement.time_seconds:.2f}s",
                _scoped(row.validity),
                f"{row.validity.time_seconds:.2f}s",
                _scoped(row.termination),
                term,
            )
        )
    table = format_table(
        (
            "name", "cat", "|L|", "|R|",
            "agreement", "nschemas", "time",
            "validity", "time",
            "termination", "time/CE",
        ),
        body,
    )
    return (
        f"{table}\n* decided at n,t,f on the explicit engine (the "
        "registry's small valuation), not for all parameters\n"
        "nschemas: the unreduced analytic schema count, not the paper's"
    )


def table2_comparison(rows: List[Table2Row]) -> str:
    """Paper-vs-measured summary for EXPERIMENTS.md."""
    body = []
    for row in rows:
        reference = paper_row(row.name)
        paper_term = "CE" if reference.termination_time is None else "verified"
        ours_term = "CE" if row.termination.verdict == VIOLATED else row.termination.verdict
        body.append(
            (
                row.name,
                f"{reference.locations}/{reference.rules}",
                f"{row.locations}/{row.rules}",
                paper_term,
                ours_term,
                "match" if (paper_term == "CE") == (ours_term == "CE") else "MISMATCH",
            )
        )
    return format_table(
        ("name", "paper |L|/|R|", "ours |L|/|R|", "paper term.", "our term.", "verdict"),
        body,
    )


# ----------------------------------------------------------------------
# Table III — the property formulas
# ----------------------------------------------------------------------
def table3() -> str:
    """The checked formulas for value 0, in the paper's shorthand."""
    lib = PropertyLibrary(mmr14.refined_model())
    rows = [
        ("(Inv1)", lib.inv1(0).formula),
        ("(Inv2)", lib.inv2(0).formula),
        ("(C1)", lib.c1().formula),
        ("(C2)", lib.c2(0).formula),
        ("(C2')", lib.c2prime(0).formula),
    ]
    for index in range(5):
        rows.append((f"(CB{index})", lib.cb(index).formula))
    return format_table(("label", "formula"), rows)


# ----------------------------------------------------------------------
# Table IV — milestones vs. schema counts
# ----------------------------------------------------------------------
def table4() -> Tuple[List[MilestoneRow], str]:
    """Max schema counts for the ABY22 milestone variants."""
    rows = table_iv_rows()
    body = [
        (row.name, row.formula, row.milestones, row.max_nschemas)
        for row in rows
    ]
    formatted = format_table(
        ("name", "formula", "nmilestones", "max-nschemas"), body
    )
    reference = format_table(
        ("name", "formula", "nmilestones", "max-nschemas (paper)"),
        TABLE_IV,
    )
    return rows, formatted + "\n\npaper reference:\n" + reference
