"""The common-coin abstraction (ε-Good oracle).

The paper's model ``BAMP_{n,t}[n > 3t, CC]`` enriches the network with
a *common coin*: one shared sequence of random bits ``b_0, b_1, ...``
that every correct process reads identically.  An ε-Good coin yields
*each* value with probability at least ε; the paper's protocols use
*strong* coins (ε = 1/2), the default here.

A :class:`~repro.core.coinspec.CoinSpec` gives the oracle the exact
same coin models the checkers verify against: ``biased:p1`` draws 1
with probability ``p1`` (an ε-Good coin with ε = min(p1, 1 - p1));
``failing:δ`` /
``disagreeing:ρ`` rounds may yield *no common value at all*, in which
case each process privately reads its own independent fair bit (split
views) — ``peek`` then reports None, as there is nothing common for
the adversary to learn either.

Crucially for the §II attack, the oracle records *when* each round's
coin was first accessed: the adaptive adversary learns the value the
moment the first correct process queries it — and not before.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.coinspec import CoinLike, resolve_coin_spec


class CommonCoin:
    """A lazily-sampled shared coin sequence with access tracking.

    Args:
        seed: RNG seed; identical seeds give identical coin sequences.
        spec: a :class:`~repro.core.coinspec.CoinSpec` (or spec
            string) to sample from; ``None``, the default, is the
            strong coin.  ``PerfectCoin`` reproduces the default path
            bit-for-bit.
    """

    def __init__(self, seed: int = 0, spec: CoinLike = None):
        self.spec = resolve_coin_spec(spec) if spec is not None else None
        self._seed = seed
        self._rng = random.Random(seed)
        self._values: Dict[int, Optional[int]] = {}
        self._private: Dict[Tuple[int, int], int] = {}
        self._first_access: Dict[int, int] = {}
        self.accesses: List[tuple] = []

    # ------------------------------------------------------------------
    def _sample(self, round_no: int) -> Optional[int]:
        """Draw the round's common value (None = no common value)."""
        if self.spec is not None:
            return self.spec.sample_round(self._rng)
        # The strong coin: single draw, bit-identical to the
        # historical sequence under the same seed.
        return 1 if self._rng.random() < 0.5 else 0

    def _private_bit(self, round_no: int, pid: int) -> int:
        """Process ``pid``'s independent view of a no-common-value round.

        Deterministic in (seed, round, pid) so re-reads are stable, and
        independent of the shared ``_rng`` stream so the number of
        *readers* never perturbs later rounds' common draws.
        """
        key = (round_no, pid)
        if key not in self._private:
            mix = (self._seed * 1_000_003 + round_no) * 1_000_003 + pid
            self._private[key] = 1 if random.Random(mix).random() < 0.5 else 0
        return self._private[key]

    def get(self, round_no: int, pid: int) -> int:
        """Read the round's coin as process ``pid`` (records the access)."""
        if round_no not in self._values:
            self._values[round_no] = self._sample(round_no)
        if round_no not in self._first_access:
            self._first_access[round_no] = pid
        self.accesses.append((round_no, pid))
        value = self._values[round_no]
        if value is None:
            return self._private_bit(round_no, pid)
        return value

    # ------------------------------------------------------------------
    def revealed(self, round_no: int) -> bool:
        """Has any process opened this round's coin yet?"""
        return round_no in self._first_access

    def peek(self, round_no: int) -> Optional[int]:
        """Adversary view: the value *if already revealed*, else None.

        The adaptive adversary of §II only learns the coin when the
        first correct process accesses it; honest schedulers never call
        this.  A revealed round without a common value (a failed or
        split round) also reads None — there is no one value to learn.
        """
        if round_no in self._first_access:
            return self._values[round_no]
        return None

    def first_accessor(self, round_no: int) -> Optional[int]:
        return self._first_access.get(round_no)
