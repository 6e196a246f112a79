"""The combined system model ``(Env, TAn, PTAc)``.

The paper pairs a non-probabilistic threshold automaton for correct
processes with a probabilistic threshold automaton for the common coin,
over one environment and one shared variable space (``Vn = Vc``); their
location and rule namespaces are disjoint.  :class:`SystemModel` bundles
the three, enforces those well-formedness constraints, and carries the
protocol metadata (category A/B/C, the distinguished crusader-agreement
locations, ...) that the verification obligations in §V consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.automaton import ThresholdAutomaton
from repro.core.coin import CoinAutomaton
from repro.core.environment import Environment
from repro.core.transforms import derandomize, single_round, single_round_coin
from repro.errors import ValidationError

#: Valid protocol categories from §V-B of the paper.
CATEGORIES = ("A", "B", "C")


@dataclass
class SystemModel:
    """A protocol model: environment + process automaton + coin automaton.

    Attributes:
        name: protocol identifier (e.g. ``"mmr14"``).
        environment: the environment ``(Pi, RC, N)``.
        process: the threshold automaton for correct processes.
        coin: the probabilistic automaton for the common coin, or ``None``
            for protocols without one (e.g. the naive-voting example).
        category: the termination category ``"A"``, ``"B"`` or ``"C"``
            (§V-B), or ``None`` when termination is not analysed.
        crusader_locations: for category (C), maps the roles
            ``"M0" | "M1" | "Mbot" | "N0" | "N1" | "Nbot"`` to location
            names of the (refined) process automaton.
        description: one-line human description.
    """

    name: str
    environment: Environment
    process: ThresholdAutomaton
    coin: Optional[CoinAutomaton] = None
    category: Optional[str] = None
    crusader_locations: Dict[str, str] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if self.category is not None and self.category not in CATEGORIES:
            raise ValidationError(
                f"{self.name}: unknown category {self.category!r}; "
                f"expected one of {CATEGORIES}"
            )
        if self.coin is not None:
            if tuple(self.coin.shared_vars) != tuple(self.process.shared_vars):
                raise ValidationError(
                    f"{self.name}: process and coin automata disagree on "
                    f"shared variables"
                )
            if tuple(self.coin.coin_vars) != tuple(self.process.coin_vars):
                raise ValidationError(
                    f"{self.name}: process and coin automata disagree on "
                    f"coin variables"
                )
            process_locs = {loc.name for loc in self.process.locations}
            coin_locs = {loc.name for loc in self.coin.locations}
            overlap = process_locs & coin_locs
            if overlap:
                raise ValidationError(
                    f"{self.name}: location namespaces overlap: {sorted(overlap)}"
                )
            process_rules = {rule.name for rule in self.process.rules}
            coin_rules = {rule.name for rule in self.coin.rules}
            overlap = process_rules & coin_rules
            if overlap:
                raise ValidationError(
                    f"{self.name}: rule namespaces overlap: {sorted(overlap)}"
                )
        for role, loc_name in self.crusader_locations.items():
            if not self.process.has_location(loc_name):
                raise ValidationError(
                    f"{self.name}: crusader location {role}={loc_name!r} does "
                    f"not exist in the process automaton"
                )

    # ------------------------------------------------------------------
    @property
    def shared_vars(self) -> Tuple[str, ...]:
        return self.process.shared_vars

    @property
    def coin_vars(self) -> Tuple[str, ...]:
        return self.process.coin_vars

    @property
    def has_coin(self) -> bool:
        return self.coin is not None

    def size(self) -> Tuple[int, int]:
        """Combined ``(|L|, |R|)`` over the process and coin automata."""
        locs, rules = self.process.size()
        if self.coin is not None:
            coin_locs, coin_rules = self.coin.size()
            locs += coin_locs
            rules += coin_rules
        return locs, rules

    def paper_size(self) -> Tuple[int, int]:
        """``(|L|, |R|)`` counted the way the paper's Table II does.

        The paper reports the process automaton without its border
        locations and border-entry rules (e.g. MMR14: 17 locations and
        29 rules, matching Fig. 4(a) minus ``J0``/``J1`` and
        ``r1``/``r2``).  Border copies and their self-loops are likewise
        bookkeeping and excluded.
        """
        from repro.core.locations import LocKind

        skip_kinds = (LocKind.BORDER, LocKind.BORDER_COPY)
        locs = sum(
            1 for loc in self.process.locations if loc.kind not in skip_kinds
        )
        entry = set(self.process.border_entry_rules)
        rules = 0
        for rule in self.process.rules:
            if rule in entry:
                continue
            if rule.is_self_loop and not rule.guard and not rule.update:
                continue
            rules += 1
        return locs, rules

    # ------------------------------------------------------------------
    def derandomized(self) -> "SystemModel":
        """The non-probabilistic system (coin branches non-deterministic).

        The coin automaton is replaced by its Definition-1 derandomized
        threshold automaton, folded into a second process-like automaton.
        Returned as a new :class:`SystemModel` whose :attr:`coin` is
        ``None`` and whose derandomized coin is stored in
        :attr:`coin_np`.
        """
        model = SystemModel(
            name=f"{self.name}-np",
            environment=self.environment,
            process=self.process,
            coin=None,
            category=self.category,
            crusader_locations=dict(self.crusader_locations),
            description=self.description,
        )
        model.coin_np = derandomize(self.coin) if self.coin is not None else None
        return model

    def single_round(self) -> "SystemModel":
        """The single-round system of Definition 3 (still probabilistic)."""
        return SystemModel(
            name=f"{self.name}-rd",
            environment=self.environment,
            process=single_round(self.process),
            coin=single_round_coin(self.coin) if self.coin is not None else None,
            category=self.category,
            crusader_locations=dict(self.crusader_locations),
            description=self.description,
        )

    def as_single_round(self) -> "SystemModel":
        """The model both checkers explore.

        A multi-round model (border locations, no border copies yet) is
        cut to :meth:`single_round`; any other model is itself.
        """
        process = self.process
        if process.border_locations and not process.border_copy_locations:
            return self.single_round()
        return self

    def __repr__(self) -> str:
        locs, rules = self.size()
        return f"SystemModel({self.name!r}, |L|={locs}, |R|={rules}, category={self.category!r})"
