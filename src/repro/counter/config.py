"""Configurations of counter systems (§III-C) — flat state layout.

A configuration ``c = (kappa, g, p)`` tracks, per round, the counter of
every location and the value of every shared/coin variable, plus the
(fixed) parameter valuation.  Configurations are immutable and hashable
so they can serve as explicit-state model-checking states.

Flat state layout
-----------------
The original implementation stored ``kappa`` and ``g`` as tuples of
per-round tuples; every transition re-allocated the whole nested
structure and every dict lookup re-hashed it row by row.  States are
now a **single flat** ``tuple[int, ...]`` of per-round *blocks*::

    data = ( kappa[0] | g[0] | kappa[1] | g[1] | ... )

i.e. the cell of location ``i`` in round ``k`` lives at offset
``k * block + i`` and variable ``j`` at ``k * block + width_kappa + j``
where ``block = width_kappa + width_g``.  The hash of the flat tuple is
computed once at construction and cached, so set/dict membership tests
during state-space exploration never re-hash the payload; the owning
:class:`repro.counter.system.CounterSystem` additionally *interns*
configurations so equal states are pointer-equal and comparisons stop
at identity.

The layout geometry (``width_kappa``/``width_g``/``block``) is a
property of the model *structure*, not of the parameter valuation — it
is computed once in the shared
:class:`~repro.counter.program.ProtocolProgram`, so configurations
produced under different valuations of the same protocol share one
layout and compare/hash uniformly.

The nested-tuple views ``.kappa`` / ``.g`` are kept as reconstructing
properties for compatibility (tests, debugging, pretty-printing) — hot
paths read ``.data`` directly.  Rounds are tracked explicitly and
extended lazily with zero blocks.

The flat layout doubles as the **packing contract** of the
frontier-batched expansion engine: :mod:`repro.counter.batch` stacks
the ``data`` tuples of a whole BFS frontier (grouped by ``rounds`` so
rows are uniform) into one contiguous numpy ``int64`` matrix — row
``i`` *is* ``frontier[i].data`` — evaluates every compiled guard over
the matrix at once, and converts successor rows back through
:meth:`Config.from_flat`.  Any change to the block order or cell
offsets here must be mirrored in ``batch.py``'s ``BatchPlan``
geometry (and is caught by ``tests/checker/test_batch_expansion.py``).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.errors import SemanticsError

Row = Tuple[int, ...]


class Config:
    """An immutable flat counter-system configuration.

    Construct through :meth:`from_flat` (a bound system's
    :meth:`~repro.counter.system.CounterSystem.make_config` builds one
    from a placement).  Treat instances as frozen: the engine relies on
    the cached hash never going stale.

    The one mutable cache is the label pair the explicit checker
    fills: ``labels`` holds the truth bits of the propositions in
    ``label_events``, a program's proposition table as it stood when
    the config was last labelled (see
    :meth:`~repro.counter.program.ProtocolProgram.prop_mask`).  It is
    derived from ``data`` alone, so it never affects equality or
    hashing.
    """

    __slots__ = ("data", "width_kappa", "width_g", "rounds", "_hash",
                 "intern_id", "label_events", "labels")

    @classmethod
    def from_flat(
        cls, data: Tuple[int, ...], width_kappa: int, width_g: int, rounds: int
    ) -> "Config":
        """Wrap an already-flat cell tuple (no validation — hot path)."""
        obj = object.__new__(cls)
        obj.data = data
        obj.width_kappa = width_kappa
        obj.width_g = width_g
        obj.rounds = rounds
        obj._hash = hash((width_kappa, data))
        obj.intern_id = -1
        obj.label_events = None
        obj.labels = 0
        return obj

    def __reduce__(self):
        # The state only: the label cache holds closures, which don't pickle.
        return Config.from_flat, (self.data, self.width_kappa, self.width_g, self.rounds)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Config):
            return NotImplemented
        return (
            self.data == other.data
            and self.width_kappa == other.width_kappa
            and self.width_g == other.width_g
        )

    # ------------------------------------------------------------------
    # Nested-tuple views (compatibility / debugging)
    # ------------------------------------------------------------------
    @property
    def kappa(self) -> Tuple[Row, ...]:
        """Per-round location counters, ``kappa[round][loc_index]``."""
        block = self.width_kappa + self.width_g
        return tuple(
            self.data[k * block : k * block + self.width_kappa]
            for k in range(self.rounds)
        )

    @property
    def g(self) -> Tuple[Row, ...]:
        """Per-round variable values, ``g[round][var_index]``."""
        block = self.width_kappa + self.width_g
        return tuple(
            self.data[k * block + self.width_kappa : (k + 1) * block]
            for k in range(self.rounds)
        )

    # ------------------------------------------------------------------
    def counter(self, round_no: int, loc_index: int) -> int:
        """Value of a location counter; rounds beyond the horizon are 0."""
        if round_no >= self.rounds:
            return 0
        return self.data[round_no * (self.width_kappa + self.width_g) + loc_index]

    def variable(self, round_no: int, var_index: int) -> int:
        """Value of a variable; rounds beyond the horizon are 0."""
        if round_no >= self.rounds:
            return 0
        block = self.width_kappa + self.width_g
        return self.data[round_no * block + self.width_kappa + var_index]

    def ensure_rounds(self, rounds: int) -> "Config":
        """A configuration tracking at least ``rounds`` rounds."""
        if rounds <= self.rounds:
            return self
        block = self.width_kappa + self.width_g
        extra = (0,) * ((rounds - self.rounds) * block)
        return Config.from_flat(
            self.data + extra, self.width_kappa, self.width_g, rounds
        )

    # ------------------------------------------------------------------
    def apply_move(
        self,
        rounds_needed: int,
        src_offset: int,
        dst_offset: int,
        update_offsets: Iterable[Tuple[int, int]],
    ) -> "Config":
        """Fast-path move on precomputed flat offsets.

        ``src_offset`` / ``dst_offset`` / ``update_offsets`` are
        absolute indices into :attr:`data` (already scaled by round and
        block width); the caller — typically
        :meth:`repro.counter.system.CounterSystem.apply_unchecked` —
        guarantees they are in range for ``rounds_needed`` rounds.

        Raises:
            SemanticsError: when the source counter is already 0.
        """
        base = self if self.rounds >= rounds_needed else self.ensure_rounds(rounds_needed)
        cells = list(base.data)
        if cells[src_offset] < 1:
            raise SemanticsError(
                f"cannot move from empty cell offset {src_offset}"
            )
        cells[src_offset] -= 1
        cells[dst_offset] += 1
        for offset, increment in update_offsets:
            cells[offset] += increment
        return Config.from_flat(
            tuple(cells), base.width_kappa, base.width_g, base.rounds
        )

    def __str__(self) -> str:
        kappa, g = self.kappa, self.g
        rows = []
        for k in range(self.rounds):
            rows.append(f"round {k}: kappa={kappa[k]} g={g[k]}")
        return "; ".join(rows)

    def __repr__(self) -> str:
        return f"Config(kappa={self.kappa!r}, g={self.g!r})"
