"""Frontier-batched vectorized successor expansion.

The scalar engine (:meth:`repro.counter.system.CounterSystem.
successor_groups`) expands one configuration at a time: per enabled
``(rule, round)`` pair it walks the guard atoms in a Python loop,
copies the flat cell tuple into a list, applies the move and interns
the result.  On a BFS frontier of thousands of configurations that is
thousands of interpreter round-trips doing the *same* linear algebra.

This module batches the whole frontier instead:

* :class:`BatchPlan` — the valuation-independent matrix form of a
  compiled :class:`~repro.counter.program.ProtocolProgram`: one dense
  guard-coefficient matrix over the round block (one row per guard
  atom of every non-stutter rule, in rule order), an atom→rule
  indicator used to AND a rule's atoms with one matmul, and the
  per-rule source-offset vector.  Built lazily once per program via
  :meth:`~repro.counter.program.ProtocolProgram.batch_plan`.
* :class:`BatchExpander` — binds a plan to one
  :class:`~repro.counter.system.CounterSystem` (the guard thresholds
  are the only valuation-dependent piece) and exposes
  :meth:`BatchExpander.ensure`: pack every not-yet-cached frontier
  configuration into one contiguous ``int64`` array (grouped by
  ``rounds`` horizon so rows are uniform), evaluate *all* guard linear
  forms over the *entire* frontier with matrix ops, mask disabled
  ``(rule, round)`` pairs and empty source counters in bulk,
  materialize successor rows with vectorized row adds, and only then
  intern the resulting tuples and fill the system's ``_succ_cache``
  with exactly the :data:`~repro.counter.system.MoveGroup` tuples the
  scalar path produces.

Order-preservation contract
---------------------------
The cached groups are assembled rule-major then by round — the same
order :meth:`~repro.counter.system.CounterSystem._enabled_rule_rounds`
yields — and each group's entries follow the rule's branch order, so a
consumer flattening the memoised groups observes exactly the scalar
action order.  BFS exploration order, verdicts and ``states_explored``
(including ``max_states`` early exits) are therefore bit-identical to
the scalar engine; the differential suite
(``tests/checker/test_batch_expansion.py``) pins this on every registry
protocol and the fuzz corpus.

Heap rules
----------
The system caches its expander, so the expander holds the system only
through a weak reference: no cycle runs through a bound system, and a
dropped system is freed by reference counting without waiting for the
cyclic collector.  Successor entries take their :class:`~repro.counter.
actions.Action` labels from the program's one table
(:meth:`~repro.counter.program.ProtocolProgram.action`), the same
objects the scalar path and graph-store loads use.

Selection
---------
There is no knob: the batch path runs wherever numpy imports, and the
scalar path runs where it does not (:func:`build_plan` answers ``None``
and no expander is bound).  The import is gated, never required.  Tests
reach the scalar path by hiding numpy: ``_np = None`` here, or
``sys.modules["numpy"] = None`` in a fresh interpreter.
"""

from __future__ import annotations

import weakref
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Tuple

try:  # gated: the engine must keep working on numpy-less interpreters
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by hiding numpy
    _np = None

from repro.core.guards import Cmp
from repro.counter.config import Config
from repro.errors import SemanticsError

__all__ = [
    "BatchExpander",
    "BatchPlan",
    "CHUNK_ROWS",
    "batch_available",
    "build_plan",
    "expander_for",
]

#: Frontier rows packed per numpy block — bounds peak array memory
#: (``CHUNK_ROWS * rounds * block * 8`` bytes per chunk, a few tens of
#: MB at protocol-sized blocks) without changing results (chunks of one
#: frontier are independent).  Large chunks amortize the per-chunk
#: matmul / scatter call overhead over more rows.
CHUNK_ROWS = 16384


def batch_available() -> bool:
    """Is the vectorized path importable in this interpreter?"""
    return _np is not None


class BatchPlan:
    """Valuation-independent matrix form of one compiled program.

    All arrays range over the *non-stutter* rules in program order (the
    rules :meth:`~repro.counter.system.CounterSystem.successor_groups`
    enumerates) and over their guard atoms flattened in that same
    order:

    * ``coeffs`` — ``(n_atoms, block)`` dense guard left-hand sides as
      within-round-block coefficient rows;
    * ``lt_mask`` — ``(n_atoms,)`` True where the atom compares with
      ``<`` (so ``satisfied = (lhs >= rhs) XOR lt_mask``);
    * ``atom_indicator`` / ``atom_counts`` — ``(n_atoms, n_rules)`` /
      ``(n_rules,)``: a rule is guard-enabled when its satisfied-atom
      count (one matmul) equals its atom count;
    * ``src_offsets`` — ``(n_rules,)`` within-block source-location
      offsets for the non-empty-source mask.

    Guard *thresholds* are the only valuation-dependent piece and live
    on the :class:`BatchExpander` binding this plan to a system.
    """

    __slots__ = (
        "rule_names",
        "n_rules",
        "n_atoms",
        "coeffs",
        "lt_mask",
        "atom_indicator",
        "atom_counts",
        "src_offsets",
    )

    def __init__(self, program) -> None:
        rules = [rule for rule in program.rules if not rule.stutter]
        block = program.block
        self.rule_names: Tuple[str, ...] = tuple(rule.name for rule in rules)
        self.n_rules = len(rules)
        coeff_rows: List[List[int]] = []
        lt_flags: List[bool] = []
        atom_rule: List[int] = []
        for index, rule in enumerate(rules):
            for lhs, cmp, _rhs in rule.guard_flat:
                row = [0] * block
                for offset, coeff in lhs:
                    row[offset] += coeff
                coeff_rows.append(row)
                lt_flags.append(cmp is Cmp.LT)
                atom_rule.append(index)
        self.n_atoms = len(coeff_rows)
        self.coeffs = _np.array(coeff_rows, dtype=_np.int64).reshape(
            self.n_atoms, block
        )
        self.lt_mask = _np.array(lt_flags, dtype=bool)
        indicator = _np.zeros((self.n_atoms, self.n_rules), dtype=_np.int64)
        for atom, rule_index in enumerate(atom_rule):
            indicator[atom, rule_index] = 1
        self.atom_indicator = indicator
        self.atom_counts = indicator.sum(axis=0)
        self.src_offsets = _np.array(
            [rule.source for rule in rules], dtype=_np.intp
        )


def build_plan(program) -> Optional[BatchPlan]:
    """A :class:`BatchPlan` for ``program``, or ``None`` without numpy."""
    if _np is None:
        return None
    return BatchPlan(program)


class BatchExpander:
    """One system's frontier-batched successor expander.

    Owns the per-valuation guard threshold vector (bound once from the
    system's :class:`~repro.counter.program.CompiledRule` tuple).  It
    holds the system weakly and takes actions from the program's one
    table; see the module's *Heap rules*.
    """

    def __init__(self, system, plan: BatchPlan) -> None:
        self._system = weakref.ref(system)
        self.program = system.program
        self.plan = plan
        self.block = system.block
        self.rules = tuple(r for r in system._rule_list if not r.stutter)
        if tuple(r.name for r in self.rules) != plan.rule_names:
            raise SemanticsError(
                "batch plan is misaligned with the system's bound rules"
            )
        thresholds = [
            rhs for rule in self.rules for _lhs, _cmp, rhs in rule.guard_flat
        ]
        self.thresholds = _np.array(thresholds, dtype=_np.int64)

    # ------------------------------------------------------------------
    def ensure(self, config: Config, frontier: Iterable[Config]) -> None:
        """Make ``config``'s successor groups cached, batching the frontier.

        A no-op (one dict lookup) when ``config`` is already cached;
        otherwise the whole current frontier's uncached configurations
        are packed and expanded together — the BFS/game loops call this
        once per pop, so a cache miss amortises the vectorized pass
        over everything currently queued.
        """
        if config in self._system()._succ_cache:
            return
        self.expand_frontier(chain((config,), frontier))

    def expand_frontier(self, configs: Iterable[Config]) -> int:
        """Batch-expand every uncached configuration; returns how many.

        Frontier rows are grouped by ``rounds`` horizon (rows of one
        packed array must be uniform) and chunked at
        :data:`CHUNK_ROWS`; each uncached configuration ends up with
        its full successor-group tuple in the system's ``_succ_cache``,
        bit-identical to what the scalar path would memoise.
        """
        system = self._system()
        cache = system._succ_cache
        by_rounds: Dict[int, List[Config]] = {}
        seen = set()
        for config in configs:
            # Frontier configs come from the BFS worklists already
            # interned; value-keyed dedup is all that is needed here.
            if config in seen or config in cache:
                continue
            seen.add(config)
            by_rounds.setdefault(config.rounds, []).append(config)
        expanded = 0
        row_intern: Dict[bytes, Config] = {}
        for rounds in sorted(by_rounds):
            group = by_rounds[rounds]
            for start in range(0, len(group), CHUNK_ROWS):
                chunk = group[start : start + CHUNK_ROWS]
                self._expand_chunk(system, rounds, chunk, row_intern)
                expanded += len(chunk)
        return expanded

    # ------------------------------------------------------------------
    def _expand_chunk(
        self,
        system,
        rounds: int,
        configs: List[Config],
        row_intern: Dict[bytes, Config],
    ) -> None:
        np = _np
        action_of = self.program.action
        plan = self.plan
        block = self.block
        size = len(configs)
        width = rounds * block
        packed = np.fromiter(
            chain.from_iterable(config.data for config in configs),
            dtype=np.int64,
            count=size * width,
        ).reshape(size, width)

        # ---- guard + source masks for every (rule, round) pair -------
        # One GEMM over every (config, round) block at once: rows of
        # ``stacked`` are round blocks in round-major order per config.
        stacked = packed.reshape(size * rounds, block)
        if plan.n_atoms:
            totals = stacked @ plan.coeffs.T
            satisfied = (totals >= self.thresholds) ^ plan.lt_mask
            guard_ok = (
                satisfied.astype(np.int64) @ plan.atom_indicator
            ) == plan.atom_counts
        else:
            guard_ok = np.ones((size * rounds, plan.n_rules), dtype=bool)
        enabled = guard_ok & (stacked[:, plan.src_offsets] >= 1)
        # (size, rounds, n_rules) -> round-major (rounds, size, n_rules)
        enabled = enabled.reshape(size, rounds, plan.n_rules).swapaxes(0, 1)

        # ---- successor rows, rule-major then by round -----------------
        groups: List[List[tuple]] = [[] for _ in range(size)]
        padded = None  # lazy zero-extended view for horizon-growing moves
        for rule_index, rule in enumerate(self.rules):
            source = rule.source
            update_offsets = rule.update_offsets
            for round_no in range(rounds):
                column = enabled[round_no, :, rule_index]
                if not column.any():
                    continue
                rows = np.nonzero(column)[0]
                dst_round = round_no + 1 if rule.is_round_switch else round_no
                if dst_round + 1 > rounds:
                    if padded is None:
                        padded = np.hstack(
                            [packed, np.zeros((size, block), dtype=np.int64)]
                        )
                    base = padded[rows]
                    out_rounds = rounds + 1
                else:
                    base = packed[rows]
                    out_rounds = rounds
                round_base = round_no * block
                delta = np.zeros(base.shape[1], dtype=np.int64)
                delta[round_base + source] -= 1
                for offset, increment in update_offsets:
                    delta[round_base + offset] += increment
                row_ids = rows.tolist()
                if rule.is_dirac:
                    # Branch destination folded into the delta: one
                    # vectorized add produces the successor rows.
                    delta[dst_round * block + rule.branches[0][0]] += 1
                    succs = self._intern_rows(
                        system, base + delta, out_rounds, row_intern
                    )
                    action = action_of(rule.name, round_no)
                    # zip(zip(...)) builds the (action, succ) pairs and
                    # their singleton groups at C speed; only the row
                    # scatter stays in the interpreter.
                    entries = zip(zip(repeat(action), succs))
                else:
                    pair_streams = []
                    for name, (dst, _prob) in zip(
                        rule.branch_names, rule.branches
                    ):
                        branch_delta = delta.copy()
                        branch_delta[dst_round * block + dst] += 1
                        succs = self._intern_rows(
                            system, base + branch_delta, out_rounds,
                            row_intern,
                        )
                        action = action_of(rule.name, round_no, name)
                        pair_streams.append(zip(repeat(action), succs))
                    entries = zip(*pair_streams)
                for row, entry in zip(row_ids, entries):
                    groups[row].append(entry)

        succ_cache = system._succ_cache
        for index, config in enumerate(configs):
            system._bounded_insert(succ_cache, config, tuple(groups[index]))

    def _intern_rows(
        self,
        system,
        array,
        out_rounds: int,
        row_intern: Dict[bytes, Config],
    ) -> List[Config]:
        """Interned configurations for a block of successor rows.

        Rows are keyed by their raw little-endian byte image (a void
        reinterpretation of the row — one bytes object per row, no
        per-cell int boxing), so ``row_intern`` short-circuits rows
        repeated *within* one frontier expansion (different
        predecessors reaching the same successor) before paying the
        cell-tuple construction and intern again.  Distinct widths
        never collide: the byte length encodes the round horizon.
        """
        intern = system.intern
        width_kappa = system.n_locs
        width_g = system.n_vars
        np = _np
        data = np.ascontiguousarray(array)
        keys = data.view(np.dtype((np.void, data.shape[1] * 8))).ravel().tolist()
        fetch = row_intern.get
        out: List[Optional[Config]] = [fetch(key) for key in keys]
        misses = [index for index, hit in enumerate(out) if hit is None]
        if misses:
            # Bulk-convert only the missed rows in one C-level tolist
            # (a repeated row misses more than once within one array;
            # intern() canonicalizes, so the duplicates cost a little
            # and break nothing).
            for index, cells in zip(misses, data[misses].tolist()):
                config = intern(
                    Config.from_flat(
                        tuple(cells), width_kappa, width_g, out_rounds
                    )
                )
                row_intern[keys[index]] = config
                out[index] = config
        return out


def expander_for(system) -> Optional[BatchExpander]:
    """A :class:`BatchExpander` bound to ``system`` (``None`` sans numpy)."""
    plan = system.program.batch_plan()
    if plan is None:
        return None
    return BatchExpander(system, plan)
