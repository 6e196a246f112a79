"""Explicit counter-system semantics for a fixed parameter valuation.

Instantiating :class:`CounterSystem` with a :class:`~repro.core.system.
SystemModel` and an admissible parameter valuation yields the (finite
or lazily-unbounded) transition system of §III-C/D:

* the *non-probabilistic* view (Definition 1 applied on the fly):
  :meth:`enabled_actions` expands every branch of a non-Dirac coin rule
  into its own action, and :meth:`apply` executes one action;
* the *MDP* view: the distribution ``Delta(c, alpha)`` of a (possibly
  probabilistic) rule is its compiled ``branches`` with their
  probabilities, which :func:`~repro.counter.mdp.sample_path` draws
  from.

Both the multi-round system ``Sys^infty`` and single-round systems
``Sys_rd`` are served by the same class — a single-round model simply
never exercises round switches (Definition 3 removed them).

Fast state engine
-----------------
Configurations use the flat layout of :mod:`repro.counter.config`.  The
valuation-independent compilation — rules flattened to *flat block
offsets* (guard atoms, variable updates, source/target locations),
index maps, layout geometry — lives in a shared
:class:`~repro.counter.program.ProtocolProgram`; a ``CounterSystem`` is
the slim per-valuation *binding* of one program: it evaluates the guard
thresholds for its ``(n, t, f)`` and owns only the valuation-specific
state (automaton counts, intern table, successor/option caches).

* :meth:`intern` canonicalises configurations in a per-system table —
  equal states become pointer-equal, so explored-set lookups stop at
  the cached hash plus an identity check;
* :meth:`apply_unchecked` executes a rule without re-validating
  applicability (callers that just enumerated enabled rules already
  know it holds);
* :meth:`successor_groups` memoises the full successor structure of a
  configuration (grouped by ``(rule, round)`` move with one entry per
  coin branch) in a bounded FIFO cache shared by *all* queries run on
  the system — reach BFS, game construction and the fairness side
  conditions each hit the same cache;
* :meth:`batch_expander` serves the same cache from the other side:
  the frontier-batched vectorized expander of
  :mod:`repro.counter.batch` pre-fills ``_succ_cache`` for a whole BFS
  frontier with one numpy pass, producing bit-identical group tuples
  in the same rule-major/round order.

Heap rules: nothing in a system's graph refers back to the system (the
batch expander holds it weakly), every path that builds actions takes
them from the program's one table
(:meth:`~repro.counter.program.ProtocolProgram.action`), and
:meth:`repro.api.engines.ExplicitEngine.run` pauses the cyclic
collector for each task.  A dropped or evicted system is therefore
freed by reference counting at once, and the collector never re-walks
a growing graph.

:func:`shared_system` additionally shares whole bound systems — and
therefore their warm successor caches — across checkers in one
process, keyed by ``(program, valuation)``; this is what lets a
sweep worker reuse the explored graph across the tasks of its job (one
job holds every task of one bound system).  The intern table itself lives one level up, on the shared
:class:`~repro.counter.program.ProtocolProgram` (configurations are
valuation-independent values, so canonicalisation happens once per
*structure*), and one level further out the persistent
:class:`~repro.counter.store.GraphStore` carries explored graphs
across *processes*: when a store is active, a cold ``shared_system``
warms itself from disk and :func:`flush_shared_graphs` persists what a
task grew.  Caches never change results (memoised successors are
exactly what cold expansion would produce), so sharing — in-process or
from disk — preserves bit-identical verdicts and ``states_explored``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.guards import Cmp
from repro.core.locations import Location
from repro.core.system import SystemModel
from repro.counter.actions import Action
from repro.counter.config import Config
from repro.counter.program import (
    CompiledGuard,
    CompiledRule,
    ProtocolProgram,
    bounded_insert,
    shared_program,
)
from repro.counter.store import InternTable, active_graph_store
from repro.errors import SemanticsError

__all__ = [
    "CompiledGuard",
    "CompiledRule",
    "CounterSystem",
    "clear_shared_caches",
    "flush_shared_graphs",
    "shared_system",
]

#: One adversary move: every coin branch of one ``(rule, round)`` pair.
MoveGroup = Tuple[Tuple[Action, Config], ...]


class CounterSystem:
    """Counter-system semantics of a model under a parameter valuation."""

    #: Bound on the memoised successor cache (entries, not bytes).
    SUCCESSOR_CACHE_CAP = 1 << 20
    #: Bound on the (program-shared) intern table; far above any
    #: max_states budget a checker uses, so only open-ended workloads
    #: (sampling) recycle.
    INTERN_TABLE_CAP = InternTable.CAP

    def __init__(
        self,
        model: SystemModel,
        valuation: Mapping[str, int],
        program: Optional[ProtocolProgram] = None,
        intern_table: Optional[InternTable] = None,
    ):
        self.model = model
        self.valuation = dict(valuation)
        env = model.environment
        self.n_processes, self.n_coins = env.system_size(valuation)
        if model.coin is None:
            self.n_coins = 0

        # ---- shared compiled program ------------------------------------
        self.program = program if program is not None else shared_program(model)
        p = self.program
        self.locations: Tuple[Location, ...] = p.locations
        self.location_owner: Tuple[str, ...] = p.location_owner
        self.loc_index: Dict[str, int] = p.loc_index
        self.variables: Tuple[str, ...] = p.variables
        self.var_index: Dict[str, int] = p.var_index
        self.n_locs = p.n_locs
        self.n_vars = p.n_vars
        #: Cells per round in the flat layout: ``kappa row | g row``.
        self.block = p.block
        self.process_start = p.process_start
        self.coin_start = p.coin_start

        # ---- rules bound to this valuation ------------------------------
        self.rules, self._rule_list = p.bind_rules(valuation)

        # ---- state intern table / successor memo ------------------------
        # The intern table defaults to the *program's* (one per
        # structure, shared by every valuation — Config tuples are
        # valuation-independent); the successor/option caches are per
        # valuation because guard truth depends on the bound
        # thresholds.  The system registers as a dependent so a
        # shared-table generation reset drops its derived caches too.
        # Callers with throwaway valuations (the parameterized
        # checker's counterexample replay) pass a private
        # ``intern_table=`` so their configs never pin the
        # program-lifetime shared table.
        self._intern_table = (
            intern_table if intern_table is not None else p.intern_table
        )
        self._intern: Dict[Config, Config] = self._intern_table.table
        self._succ_cache: Dict[Config, Tuple[MoveGroup, ...]] = {}
        self._options_cache: Dict[Config, Tuple[Action, ...]] = {}
        #: Lazily-bound frontier batch expander (see :meth:`batch_expander`).
        self._batch_expander = None
        #: Theorem 2 side conditions decided on this system: name ->
        #: (verdict, smallest ``max_states`` under which the walk
        #: settles it).  Filled by the one walk of :mod:`repro.counter.
        #: fairness`, which records both conditions at once; a walk that
        #: hit its deadline records nothing.
        self.side_conditions: Dict[str, Tuple[bool, int]] = {}
        self._intern_table.register(self)

    # ------------------------------------------------------------------
    # Configurations
    # ------------------------------------------------------------------
    def intern(self, config: Config) -> Config:
        """Canonical instance of ``config`` for this system's program.

        Equal configurations intern to the same object, so explored-set
        membership tests short-circuit on identity (dict lookups stop
        at the cached hash plus an ``is`` check).  The table belongs to
        the shared :class:`~repro.counter.program.ProtocolProgram`, so
        every valuation of one protocol canonicalises into the same
        dict.  Interning is purely an optimisation — no caller may rely
        on identity for *semantics*, because the table is cleared (with
        the derived caches of every dependent system) once it reaches
        :attr:`INTERN_TABLE_CAP`, which keeps unbounded workloads like
        long MDP sampling runs from pinning every configuration they
        ever visited.

        :attr:`Config.intern_id` is a diagnostic stamp from the first
        table that interned the object; it is *not* used as a cache
        key (a config may be interned by several tables).
        """
        canonical = self._intern.get(config)
        if canonical is not None:
            return canonical
        if len(self._intern) >= self.INTERN_TABLE_CAP:
            # Generation reset: the shared table and every dependent
            # system's successor/option caches drop together so cached
            # groups never outlive their canonical configs.
            self._intern_table.reset()
        if config.intern_id < 0:
            config.intern_id = len(self._intern)
        self._intern[config] = config
        return config

    def make_config(
        self, placement: Mapping[str, int], variables: Optional[Mapping[str, int]] = None,
        rounds: int = 1,
    ) -> Config:
        """Build a configuration by location name (tests / examples).

        Unmentioned locations hold 0 automata; unmentioned variables are 0.
        """
        cells = [0] * (rounds * self.block)
        for name, count in placement.items():
            cells[self.loc_index[name]] = count
        for name, value in (variables or {}).items():
            cells[self.n_locs + self.var_index[name]] = value
        return self.intern(
            Config.from_flat(tuple(cells), self.n_locs, self.n_vars, rounds)
        )

    def initial_configs(
        self, process_filter: Optional[Mapping[str, int]] = None
    ) -> Iterator[Config]:
        """Enumerate initial configurations (§III-C).

        All processes and the coin sit in start locations of round 0 and
        every variable is 0.  ``process_filter`` optionally pins the
        number of processes in specific start locations (e.g. ``{"J1": 0}``
        to model "no process proposes 1").
        """
        names = [loc.name for loc in self.process_start]
        if not names:
            raise SemanticsError("process automaton has no start locations")
        coin_names = [loc.name for loc in self.coin_start]
        for split in _compositions(self.n_processes, len(names)):
            placement = dict(zip(names, split))
            if process_filter is not None and any(
                placement.get(k, 0) != v for k, v in process_filter.items()
            ):
                continue
            if self.n_coins:
                for coin_split in _compositions(self.n_coins, len(coin_names)):
                    full = dict(placement)
                    full.update(zip(coin_names, coin_split))
                    yield self.make_config(full)
            else:
                yield self.make_config(placement)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def guard_holds(self, config: Config, rule: CompiledRule, round_no: int) -> bool:
        """Does the rule's guard evaluate to true in ``round_no``?"""
        guard = rule.guard_flat
        if not guard:
            return True
        if round_no >= config.rounds:
            # Beyond the horizon every variable reads 0.
            for _lhs, cmp, rhs in guard:
                if cmp is Cmp.GE:
                    if 0 < rhs:
                        return False
                elif 0 >= rhs:
                    return False
            return True
        base = round_no * self.block
        data = config.data
        for lhs, cmp, rhs in guard:
            total = 0
            for offset, coeff in lhs:
                total += coeff * data[base + offset]
            if cmp is Cmp.GE:
                if total < rhs:
                    return False
            else:
                if total >= rhs:
                    return False
        return True

    def is_applicable(self, config: Config, action: Action) -> bool:
        """Unlocked guard and a non-empty source counter (§III-C)."""
        rule = self.rules.get(action.rule)
        if rule is None:
            return False
        if config.counter(action.round, rule.source) < 1:
            return False
        return self.guard_holds(config, rule, action.round)

    def enabled_actions(
        self, config: Config, include_stutters: bool = True
    ) -> List[Action]:
        """All applicable actions of the derandomized system.

        Every branch of a non-Dirac coin rule becomes its own action
        (Definition 1).  When ``include_stutters`` is False, actions that
        provably leave the configuration unchanged (trivial self-loops)
        are omitted — convenient for state-space exploration.
        """
        action = self.program.action
        actions: List[Action] = []
        for rule, round_no in self._enabled_rule_rounds(config, include_stutters):
            if rule.is_dirac:
                actions.append(action(rule.name, round_no))
            else:
                for target in rule.branch_names:
                    actions.append(action(rule.name, round_no, target))
        return actions

    def _enabled_rule_rounds(
        self, config: Config, include_stutters: bool
    ) -> Iterator[Tuple[CompiledRule, int]]:
        """Applicable ``(rule, round)`` pairs, rule-major then by round.

        The single source of truth for enumeration order:
        :meth:`enabled_actions` and :meth:`successor_groups` both
        consume it, so flattening the memoised groups reproduces the
        action order exactly (BFS exploration order — and therefore
        ``states_explored`` on early exit — depends on it).
        """
        data = config.data
        block = self.block
        rounds = config.rounds
        for rule in self._rule_list:
            if not include_stutters and rule.stutter:
                continue
            source = rule.source
            for round_no in range(rounds):
                if data[round_no * block + source] < 1:
                    continue
                if not self.guard_holds(config, rule, round_no):
                    continue
                yield rule, round_no

    def apply_unchecked(
        self, config: Config, rule: CompiledRule, round_no: int,
        dst_index: Optional[int] = None,
    ) -> Config:
        """Execute ``rule`` in ``round_no`` without re-checking guards.

        The caller guarantees applicability (e.g. the rule was just
        enumerated by :meth:`enabled_actions` or
        :meth:`successor_groups`); only the source counter is still
        asserted (cheaply) inside :meth:`Config.apply_move`.  The
        successor is interned.
        """
        if dst_index is None:
            dst_index = rule.branches[0][0]
        dst_round = round_no + 1 if rule.is_round_switch else round_no
        block = self.block
        base = round_no * block
        if rule.update_offsets:
            updates = [(base + off, incr) for off, incr in rule.update_offsets]
        else:
            updates = ()
        succ = config.apply_move(
            dst_round + 1,
            base + rule.source,
            dst_round * block + dst_index,
            updates,
        )
        return self.intern(succ)

    def apply(self, config: Config, action: Action) -> Config:
        """Execute one action of the non-probabilistic system."""
        rule = self.rules[action.rule]
        if not self.is_applicable(config, action):
            raise SemanticsError(f"action {action} is not applicable")
        if rule.is_dirac:
            dst = rule.branches[0][0]
        else:
            if action.branch is None:
                raise SemanticsError(
                    f"action {action} must pick a branch of non-Dirac rule "
                    f"{rule.name!r}"
                )
            dst = self.loc_index[action.branch]
            if dst not in [b for b, _ in rule.branches]:
                raise SemanticsError(
                    f"{action.branch!r} is not a branch of rule {rule.name!r}"
                )
        return self.apply_unchecked(config, rule, action.round, dst)

    def successor_groups(self, config: Config) -> Tuple[MoveGroup, ...]:
        """Memoised non-stutter successors, grouped by ``(rule, round)``.

        Each group is one adversary move; its entries are the coin
        branches of that move (a single entry for Dirac/process rules).
        Groups are ordered rule-major then by round — flattening them
        reproduces the order of
        ``enabled_actions(config, include_stutters=False)`` exactly,
        which keeps BFS exploration order (and therefore
        ``states_explored`` on early-exit) identical to the pre-interned
        engine.  The cache is shared by every query run on this system
        and keyed by the *interned configuration itself* (cached hash +
        identity fast path) — never by :attr:`Config.intern_id`, which
        a different system may have stamped.
        """
        config = self.intern(config)
        cached = self._succ_cache.get(config)
        if cached is not None:
            return cached
        action = self.program.action
        groups: List[MoveGroup] = []
        for rule, round_no in self._enabled_rule_rounds(config, False):
            if rule.is_dirac:
                groups.append((
                    (
                        action(rule.name, round_no),
                        self.apply_unchecked(config, rule, round_no),
                    ),
                ))
            else:
                groups.append(tuple(
                    (
                        action(rule.name, round_no, name),
                        self.apply_unchecked(config, rule, round_no, dst),
                    )
                    for name, (dst, _prob) in zip(rule.branch_names, rule.branches)
                ))
        result = tuple(groups)
        self._bounded_insert(self._succ_cache, config, result)
        return result

    @classmethod
    def _bounded_insert(cls, cache: Dict, key, value) -> None:
        """Insert with FIFO eviction of the oldest quarter at the cap.

        Delegates to :func:`repro.counter.program.bounded_insert` with
        :attr:`SUCCESSOR_CACHE_CAP` — the one eviction policy shared by
        the successor-group and rule-option caches.  Hits do **not**
        refresh a key's position — this is plain FIFO, not LRU: a
        long-lived hot entry is evicted once it ages into the oldest
        quarter, and simply re-inserted on the next miss.  That trade
        keeps the hit path a single dict lookup, which is what the hot
        loops care about.
        """
        bounded_insert(cache, key, value, cls.SUCCESSOR_CACHE_CAP)

    def batch_expander(self):
        """This system's frontier batch expander, or ``None`` sans numpy.

        Bound lazily once per system (the plan itself is shared on the
        program), so a system that never expands a frontier never
        imports numpy.  The expander fills the very same
        ``_succ_cache`` the scalar :meth:`successor_groups` reads, with
        bit-identical group tuples — see :mod:`repro.counter.batch` for
        the order-preservation contract.  The expander refers back to
        this system weakly, so caching it here closes no cycle.
        """
        expander = self._batch_expander
        if expander is None:
            from repro.counter.batch import expander_for

            expander = expander_for(self)
            self._batch_expander = expander
        return expander

    def rule_options(self, config: Config) -> Tuple[Action, ...]:
        """Memoised adversary moves: enabled non-stutter ``(rule, round)``
        pairs as branch-less actions (the coin outcome stays hidden).

        This is the adversary-facing view the MDP sampler offers on
        every step (§III-E): one action per move group of
        :meth:`successor_groups`, in the same order.  Memoising it per
        interned configuration removes the per-step dict churn the old
        sampler paid to dedup ``enabled_actions`` branches — revisited
        configurations (the common case on long sampled paths) resolve
        their option tuple with a single dict hit.  Bounded like the
        successor cache and dropped on the same generation reset.
        """
        config = self.intern(config)
        cached = self._options_cache.get(config)
        if cached is not None:
            return cached
        action = self.program.action
        options = tuple(
            action(rule.name, round_no)
            for rule, round_no in self._enabled_rule_rounds(config, False)
        )
        self._bounded_insert(self._options_cache, config, options)
        return options

    # ------------------------------------------------------------------
    # Convenience for spec evaluation
    # ------------------------------------------------------------------
    def value_of(self, config: Config, variable: str, round_no: int = 0) -> int:
        return config.variable(round_no, self.var_index[variable])


# ----------------------------------------------------------------------
# Process-wide bound-system sharing
# ----------------------------------------------------------------------
class _SystemCache:
    """Bound systems kept warm across checkers, keyed by (program, valuation).

    The cap bounds *entries*, not bytes, and a cached system can own a
    large explored graph (intern table + successor cache), so it is
    deliberately small: the reuse it targets is short-range — the
    obligation targets of one task and the tasks of one sweep job, all
    on one bound system — and FIFO eviction retires systems shortly
    after a worker moves on to its next job.  Workloads that need
    private lifetimes construct :class:`CounterSystem` directly (the
    parameterized checker's replay path does exactly that).
    """

    #: Distinct (program, valuation) systems kept alive (FIFO evicted).
    CAP = 8

    def __init__(self) -> None:
        self._systems: Dict[tuple, CounterSystem] = {}

    def get(self, model: SystemModel, valuation: Mapping[str, int]) -> CounterSystem:
        program = shared_program(model)
        key = (program.key, tuple(sorted(valuation.items())))
        system = self._systems.get(key)
        store = active_graph_store()
        if system is None:
            system = CounterSystem(model, valuation, program=program)
            if store is not None:
                # Warm the fresh system from the persistent graph store
                # (results-neutral: stored graphs are exactly what cold
                # expansion produces; a bad entry is just a cold miss).
                store.load_into(system)
            bounded_insert(self._systems, key, system, self.CAP)
        if store is not None:
            # Adoption scopes flushing: only systems actually served
            # while this store was active are persisted by it — warm
            # leftovers of earlier unrelated runs never leak in.
            store.adopt(system)
        return system

    def clear(self) -> None:
        self._systems.clear()


_SYSTEM_CACHE = _SystemCache()


def shared_system(
    model: SystemModel, valuation: Mapping[str, int]
) -> CounterSystem:
    """A process-wide shared :class:`CounterSystem` for (model, valuation).

    Keyed by *structural* model identity (via
    :func:`~repro.counter.program.shared_program`) plus the valuation,
    so repeated checker constructions — the obligation targets of one
    task, or every task of one sweep job running in one worker —
    reuse both the compiled program *and* the warm
    intern/successor caches.  Sharing is results-neutral: memoised
    successors are exactly what cold expansion would produce, so
    verdicts and ``states_explored`` stay bit-identical.  Callers that
    need private caches (e.g. tests poking cache internals) construct
    :class:`CounterSystem` directly.
    """
    return _SYSTEM_CACHE.get(model, valuation)


def flush_shared_graphs() -> int:
    """Flush the active store's *adopted* systems' graphs to disk.

    The persistence hook of a sweep worker: :func:`~repro.api.sweep.
    run_task` calls it after each task, before the result is sent, so
    the graphs grown by this process survive it.  Only systems served through :func:`shared_system` while the
    store was active are flushed — never whatever unrelated warm
    systems happen to sit in the process-wide cache.  A no-op without
    an active :func:`~repro.counter.store.activate_graph_store`;
    unchanged graphs are skipped inside :meth:`~repro.counter.store.
    GraphStore.flush`.  Returns the number of entries written.
    Best-effort by construction — flush failures are recorded on the
    store, never raised.
    """
    store = active_graph_store()
    if store is None:
        return 0
    return store.flush_adopted()


def clear_shared_caches() -> None:
    """Drop shared systems *and* compiled programs (cold-start path).

    Dropping the programs also drops their shared intern tables, so
    this really is the cold-start state a fresh process sees (minus an
    active graph store, which deliberately survives — it is the
    cross-process layer).
    """
    from repro.counter.program import clear_program_cache

    _SYSTEM_CACHE.clear()
    clear_program_cache()


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` >= 0.

    Iterative odometer in lexicographic order (matching the recursive
    head-first enumeration it replaced, without the per-step tuple
    concatenation).
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    comp = [0] * parts
    comp[-1] = total
    while True:
        yield tuple(comp)
        # Lex successor: take 1 from the suffix sum right of position i,
        # bump comp[i], and park the remainder in the last slot.
        suffix = comp[-1]
        i = parts - 2
        while i >= 0:
            if suffix > 0:
                comp[i] += 1
                for j in range(i + 1, parts - 1):
                    comp[j] = 0
                comp[-1] = suffix - 1
                break
            suffix += comp[i]
            i -= 1
        else:
            return
