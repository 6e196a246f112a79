"""Valuation-independent compiled protocol programs.

The paper's headline workload is *cross-validation*: one protocol model
checked under many parameter valuations (n, t, f) and fault scenarios.
Compilation — flattening every rule's guards and updates to offsets
into the flat :class:`~repro.counter.config.Config` layout, building
the location/variable index maps, classifying round switches and
stutters — depends only on the *structure* of the
:class:`~repro.core.system.SystemModel`, never on the valuation; only
the guard right-hand sides (affine :class:`~repro.core.expression.
ParamExpr` over the parameters) and the automaton counts need concrete
parameters.

This module splits that work out of :class:`~repro.counter.system.
CounterSystem`:

* :class:`ProtocolProgram` — the *shared* compiled form of one model:
  index maps, flat-layout geometry, the rule list with symbolic guard
  right-hand sides, start locations, branch lotteries.  Compiled once
  per model structure.
* :meth:`ProtocolProgram.bind_rules` — evaluates the guard right-hand
  sides under one valuation and returns the concrete
  :class:`CompiledRule` tuple (memoised per valuation, so every
  ``CounterSystem`` at the same valuation shares one rule tuple).
* :class:`ProgramCache` / :func:`shared_program` — a process-wide cache
  keyed by *structural* model identity, so the checkers, the MDP
  sampler, the benchmarks and every valuation of a sweep share one
  compiled program even though protocol factories return a fresh
  ``SystemModel`` instance per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.expression import ParamExpr
from repro.core.guards import Cmp
from repro.core.locations import LocKind, Location, start_locations
from repro.core.system import SystemModel
from repro.counter.actions import Action
from repro.counter.store import InternTable

__all__ = [
    "CompiledGuard",
    "CompiledRule",
    "ProgramCache",
    "ProgramRule",
    "ProtocolProgram",
    "bounded_insert",
    "clear_program_cache",
    "program_key",
    "shared_program",
]


def bounded_insert(cache: Dict, key, value, cap: int) -> None:
    """Insert with FIFO eviction of the oldest quarter at ``cap``.

    The one eviction policy shared by every bounded cache in the engine
    (successor groups, rule options, bound rules, programs, systems):
    when the cache reaches ``cap``, the oldest quarter *by insertion
    order* is dropped.  Hits do **not** refresh a key's position — this
    is plain FIFO, not LRU — which keeps the hit path a single dict
    lookup.  At least one entry is always evicted at the cap, so the
    bound holds for any ``cap >= 1``.
    """
    if len(cache) >= cap:
        evict = max(1, len(cache) // 4)
        for stale in list(itertools.islice(iter(cache), evict)):
            del cache[stale]
    cache[key] = value

#: A bound guard atom: (lhs as (index, coeff) pairs, cmp, rhs int).
CompiledGuard = Tuple[Tuple[Tuple[int, int], ...], Cmp, int]

#: A symbolic guard atom: rhs still an affine parameter expression.
SymbolicGuard = Tuple[Tuple[Tuple[int, int], ...], Cmp, ParamExpr]

#: Branch lottery of a non-Dirac rule: (ticket-space size, cumulative
#: ticket thresholds per branch) — precomputed so the MDP sampler draws
#: a branch without recomputing LCMs per step.
Lottery = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class CompiledRule:
    """A rule bound to a fixed valuation (concrete guard thresholds)."""

    name: str
    owner: str  # "process" or "coin"
    source: int
    #: (target_index, probability) — a single pair for Dirac/process rules.
    branches: Tuple[Tuple[int, Fraction], ...]
    guard: Tuple[CompiledGuard, ...]
    update: Tuple[Tuple[int, int], ...]
    is_round_switch: bool
    source_name: str
    branch_names: Tuple[str, ...]
    #: Guard atoms with lhs as (round-block offset, coeff) pairs.
    guard_flat: Tuple[CompiledGuard, ...] = ()
    #: Updates as (round-block offset, increment) pairs.
    update_offsets: Tuple[Tuple[int, int], ...] = ()
    #: Provably a no-op self-loop (skipped when stutters are excluded).
    stutter: bool = False
    #: Precomputed branch lottery for non-Dirac rules (None for Dirac).
    lottery: Optional[Lottery] = None

    @property
    def is_dirac(self) -> bool:
        return len(self.branches) == 1


@dataclass(frozen=True)
class ProgramRule:
    """The valuation-independent compiled form of one rule.

    Everything except the guard right-hand sides is final: branch
    targets/probabilities, flat offsets, round-switch and stutter
    classification.  :meth:`bind` evaluates the symbolic right-hand
    sides under a concrete valuation and yields a :class:`CompiledRule`.
    """

    name: str
    owner: str
    source: int
    branches: Tuple[Tuple[int, Fraction], ...]
    guard: Tuple[SymbolicGuard, ...]
    guard_flat: Tuple[SymbolicGuard, ...]
    update: Tuple[Tuple[int, int], ...]
    update_offsets: Tuple[Tuple[int, int], ...]
    is_round_switch: bool
    source_name: str
    branch_names: Tuple[str, ...]
    stutter: bool
    lottery: Optional[Lottery]

    def bind(self, valuation: Mapping[str, int]) -> CompiledRule:
        """Evaluate the guard thresholds under ``valuation``."""
        thresholds = [rhs.evaluate(valuation) for _lhs, _cmp, rhs in self.guard]
        return CompiledRule(
            name=self.name,
            owner=self.owner,
            source=self.source,
            branches=self.branches,
            guard=tuple(
                (lhs, cmp, value)
                for (lhs, cmp, _rhs), value in zip(self.guard, thresholds)
            ),
            update=self.update,
            is_round_switch=self.is_round_switch,
            source_name=self.source_name,
            branch_names=self.branch_names,
            guard_flat=tuple(
                (lhs, cmp, value)
                for (lhs, cmp, _rhs), value in zip(self.guard_flat, thresholds)
            ),
            update_offsets=self.update_offsets,
            stutter=self.stutter,
            lottery=self.lottery,
        )


def program_key(model: SystemModel) -> tuple:
    """Structural identity of a model, for program-cache keying.

    Protocol factories return a fresh :class:`SystemModel` per call, so
    object identity cannot share compiled programs across valuations.
    All compilation inputs are hashable value types (frozen dataclasses
    and tuples), so the key is simply the tuple of them: two factory
    calls of the same protocol produce equal keys, while any structural
    edit (a rule, a guard, a location kind) produces a different one.
    """
    process = model.process
    coin = model.coin
    return (
        model.name,
        model.environment,
        process.locations,
        process.shared_vars,
        process.coin_vars,
        process.rules,
        None
        if coin is None
        else (coin.locations, coin.shared_vars, coin.coin_vars, coin.rules),
    )


class ProtocolProgram:
    """A model compiled once, shareable by every valuation.

    Owns the valuation-independent artefacts: location/variable index
    maps, the flat-layout geometry (``n_locs``/``n_vars``/``block``),
    the ordered rule list with symbolic guard thresholds, the start
    locations and the resting-location set the fairness side conditions
    consume.  Per-valuation state (intern table, successor caches,
    automaton counts) lives in :class:`~repro.counter.system.
    CounterSystem`, which *binds* this program to concrete parameters.
    """

    #: Bound per-valuation rule tuples kept alive (entries, FIFO evicted).
    BOUND_CACHE_CAP = 128

    def __init__(self, model: SystemModel, key: Optional[tuple] = None):
        self.key = key if key is not None else program_key(model)
        self.model_name = model.name
        self.environment = model.environment
        self.has_coin = model.coin is not None

        # ---- index maps ------------------------------------------------
        locations: List[Location] = list(model.process.locations)
        location_owner: List[str] = ["process"] * len(locations)
        if model.coin is not None:
            locations.extend(model.coin.locations)
            location_owner.extend(["coin"] * len(model.coin.locations))
        self.locations: Tuple[Location, ...] = tuple(locations)
        self.location_owner: Tuple[str, ...] = tuple(location_owner)
        self.loc_index: Dict[str, int] = {
            loc.name: i for i, loc in enumerate(self.locations)
        }
        self.variables: Tuple[str, ...] = tuple(model.shared_vars) + tuple(
            model.coin_vars
        )
        self.var_index: Dict[str, int] = {v: i for i, v in enumerate(self.variables)}

        # ---- flat layout -----------------------------------------------
        self.n_locs = len(self.locations)
        self.n_vars = len(self.variables)
        #: Cells per round in the flat layout: ``kappa row | g row``.
        self.block = self.n_locs + self.n_vars

        # ---- compiled rules (model order: process first, then coin) ----
        rules: List[ProgramRule] = []
        for rule in model.process.rules:
            rules.append(self._compile_dirac(rule, "process", model.process))
        if model.coin is not None:
            for prob_rule in model.coin.rules:
                rules.append(self._compile_prob(prob_rule, model.coin))
        self.rules: Tuple[ProgramRule, ...] = tuple(rules)

        self.process_start = start_locations(model.process.locations)
        self.coin_start = (
            start_locations(model.coin.locations) if model.coin else ()
        )
        #: Locations where an automaton may rest forever without
        #: violating fairness (border copies and final locations) —
        #: consumed by :func:`repro.counter.fairness.is_non_blocking`.
        self.resting_locations = frozenset(
            index
            for index, loc in enumerate(self.locations)
            if loc.kind in (LocKind.BORDER_COPY, LocKind.FINAL)
        )

        #: valuation-key -> (rules dict, ordered rule tuple)
        self._bound: Dict[tuple, Tuple[Dict[str, CompiledRule], Tuple[CompiledRule, ...]]] = {}

        #: One config intern table shared by every valuation's
        #: CounterSystem: configurations are valuation-independent
        #: values over this program's flat layout, so canonicalisation
        #: happens once per structure, not once per system (see
        #: :class:`repro.counter.store.InternTable`).
        self.intern_table = InternTable()

        #: Lazily-built valuation-independent batch-expansion arrays
        #: (:class:`repro.counter.batch.BatchPlan`); ``False`` = not yet
        #: attempted, ``None`` = numpy unavailable.
        self._batch_plan: object = False

        #: The one :class:`Action` per ``(rule, round, branch)`` label,
        #: shared by every path that builds successor groups or options
        #: (see :meth:`action`).
        self._actions: Dict[Tuple[str, int, Optional[str]], Action] = {}

        #: Proposition table: ``prop_events[bit]`` is the compiled
        #: predicate of the query proposition holding that program-wide
        #: bit.  It only grows, each growth swapping in a new tuple, so
        #: a config's ``label_events`` shows which bits it has evaluated.
        self.prop_events: Tuple[Callable[[object], bool], ...] = ()
        self._prop_bits: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Compilation (valuation-independent)
    # ------------------------------------------------------------------
    def _compile_guard(self, guard) -> Tuple[SymbolicGuard, ...]:
        return tuple(
            (
                tuple((self.var_index[name], coeff) for name, coeff in atom.lhs),
                atom.cmp,
                atom.rhs,
            )
            for atom in guard
        )

    def _flatten_guard(
        self, guard: Tuple[SymbolicGuard, ...]
    ) -> Tuple[SymbolicGuard, ...]:
        n_locs = self.n_locs
        return tuple(
            (tuple((n_locs + var_idx, coeff) for var_idx, coeff in lhs), cmp, rhs)
            for lhs, cmp, rhs in guard
        )

    def _compile_update(self, update) -> Tuple[Tuple[int, int], ...]:
        return tuple((self.var_index[name], incr) for name, incr in update)

    @staticmethod
    def _is_round_switch(automaton, source: str, target: str) -> bool:
        return (
            automaton.location(source).kind is LocKind.FINAL
            and automaton.location(target).kind is LocKind.BORDER
        )

    def _compile_dirac(self, rule, owner: str, automaton) -> ProgramRule:
        guard = self._compile_guard(rule.guard)
        update = self._compile_update(rule.update)
        source = self.loc_index[rule.source]
        target = self.loc_index[rule.target]
        is_switch = self._is_round_switch(automaton, rule.source, rule.target)
        return ProgramRule(
            name=rule.name,
            owner=owner,
            source=source,
            branches=((target, Fraction(1)),),
            guard=guard,
            guard_flat=self._flatten_guard(guard),
            update=update,
            update_offsets=tuple(
                (self.n_locs + var_idx, incr) for var_idx, incr in update
            ),
            is_round_switch=is_switch,
            source_name=rule.source,
            branch_names=(rule.target,),
            stutter=(not update and target == source and not is_switch),
            lottery=None,
        )

    def _compile_prob(self, rule, automaton) -> ProgramRule:
        branches = tuple(
            (self.loc_index[target], prob) for target, prob in rule.branches
        )
        is_switch = rule.is_dirac and self._is_round_switch(
            automaton, rule.source, rule.branches[0][0]
        )
        guard = self._compile_guard(rule.guard)
        update = self._compile_update(rule.update)
        source = self.loc_index[rule.source]
        return ProgramRule(
            name=rule.name,
            owner="coin",
            source=source,
            branches=branches,
            guard=guard,
            guard_flat=self._flatten_guard(guard),
            update=update,
            update_offsets=tuple(
                (self.n_locs + var_idx, incr) for var_idx, incr in update
            ),
            is_round_switch=is_switch,
            source_name=rule.source,
            branch_names=tuple(target for target, _ in rule.branches),
            stutter=(
                len(branches) == 1
                and not update
                and branches[0][0] == source
                and not is_switch
            ),
            lottery=_lottery(branches) if len(branches) > 1 else None,
        )

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind_rules(
        self, valuation: Mapping[str, int]
    ) -> Tuple[Dict[str, CompiledRule], Tuple[CompiledRule, ...]]:
        """Concrete rules under ``valuation`` (memoised per valuation).

        Returns the ``(by-name dict, ordered tuple)`` pair every
        :class:`~repro.counter.system.CounterSystem` at this valuation
        shares.  The dict preserves model order (process rules first,
        then coin rules) — enumeration order, and therefore BFS
        exploration order downstream, is part of the engine contract.
        """
        key = tuple(sorted(valuation.items()))
        cached = self._bound.get(key)
        if cached is not None:
            return cached
        rule_list = tuple(rule.bind(valuation) for rule in self.rules)
        bound = ({rule.name: rule for rule in rule_list}, rule_list)
        bounded_insert(self._bound, key, bound, self.BOUND_CACHE_CAP)
        return bound

    def action(
        self, rule: str, round_no: int, branch: Optional[str] = None
    ) -> Action:
        """The shared :class:`Action` for one ``(rule, round, branch)``.

        Actions are valuation-independent labels, so every valuation's
        scalar and batched expansion, option lists and graph-store
        loads reuse one object per label instead of building a frozen
        dataclass per edge.
        """
        key = (rule, round_no, branch)
        action = self._actions.get(key)
        if action is None:
            action = self._actions[key] = Action(rule, round_no, branch)
        return action

    def prop_mask(self, props: Sequence) -> int:
        """The program-wide bits of ``props``, registering new ones.

        A :class:`~repro.spec.propositions.Prop` gets its bit the first
        time any query uses it; the layout is structural, so the bit
        and its compiled predicate serve every valuation.
        """
        mask = 0
        for prop in props:
            if prop not in self._prop_bits:
                # Compile first: a prop that fails to compile gets no bit.
                event = prop.compile(self)
                self._prop_bits[prop] = len(self.prop_events)
                self.prop_events += (event,)
            mask |= 1 << self._prop_bits[prop]
        return mask

    def batch_plan(self):
        """The shared :class:`~repro.counter.batch.BatchPlan` of this
        program — guard coefficient matrices, atom→rule indicators and
        source-offset vectors over the non-stutter rules, computed once
        per structure (thresholds are bound per valuation by the
        :class:`~repro.counter.batch.BatchExpander`).  ``None`` when
        numpy is unavailable; the import is lazy so the scalar engine
        never pays for it.
        """
        plan = self._batch_plan
        if plan is False:
            from repro.counter.batch import build_plan

            plan = build_plan(self)
            self._batch_plan = plan
        return plan

    def __repr__(self) -> str:
        return (
            f"ProtocolProgram({self.model_name!r}, |L|={self.n_locs}, "
            f"|R|={len(self.rules)})"
        )


def _lottery(branches: Sequence[Tuple[int, Fraction]]) -> Lottery:
    """Cumulative ticket thresholds over the LCM of the denominators.

    With branches 1/2 and 1/3 the lottery runs over 6 tickets: branch
    thresholds (3, 5) and a 1-ticket remainder that falls to the last
    branch — exactly the draw :func:`repro.counter.mdp._sample_branch`
    used to rebuild per step.
    """
    denominator = math.lcm(*(prob.denominator for _target, prob in branches))
    cumulative = 0
    thresholds = []
    for _target, prob in branches:
        cumulative += prob.numerator * (denominator // prob.denominator)
        thresholds.append(cumulative)
    return denominator, tuple(thresholds)


class ProgramCache:
    """Process-wide cache of compiled programs, keyed structurally.

    Structural keying is what makes sharing effective: registry
    factories build a fresh ``SystemModel`` per call, and the checkers
    additionally apply the single-round transform, so the same protocol
    reaches the engine as many distinct-but-equal instances.  The
    computed key is stashed on the model instance (``_program_key``,
    together with every input it was derived from) so repeated lookups
    through the same object skip the structural walk; a model whose
    ``name``/``environment``/``process``/``coin`` have been
    *reassigned* since fails the identity check and is re-keyed, so it
    cannot silently reuse the stale compiled program.  (The automata
    and environment are themselves immutable once built — tuples and
    frozen dataclasses — so reassignment is the only mutation channel.)
    """

    #: Distinct compiled programs kept alive (entries, FIFO evicted).
    CAP = 64

    def __init__(self) -> None:
        self._programs: Dict[tuple, ProtocolProgram] = {}

    def get(self, model: SystemModel) -> ProtocolProgram:
        stash = model.__dict__.get("_program_key")
        if (
            stash is not None
            and stash[1] == model.name
            and stash[2] is model.environment
            and stash[3] is model.process
            and stash[4] is model.coin
        ):
            key = stash[0]
        else:
            key = program_key(model)
            model.__dict__["_program_key"] = (
                key, model.name, model.environment, model.process, model.coin
            )
        program = self._programs.get(key)
        if program is None:
            program = ProtocolProgram(model, key=key)
            bounded_insert(self._programs, key, program, self.CAP)
        return program

    def __len__(self) -> int:
        return len(self._programs)

    def clear(self) -> None:
        self._programs.clear()


#: The process-wide program cache shared by checkers, sampler, benches.
_PROGRAM_CACHE = ProgramCache()


def shared_program(model: SystemModel) -> ProtocolProgram:
    """The process-wide compiled program for ``model`` (see module doc)."""
    return _PROGRAM_CACHE.get(model)


def clear_program_cache() -> None:
    """Drop every cached program (benchmarks' cold-start path, tests)."""
    _PROGRAM_CACHE.clear()
