"""Executable MMR14 (Fig. 1 of the paper), message by message.

Round ``r`` for a correct process:

1. BV-broadcast ``EST(r, est)``;
2. wait until ``bin_values[r]`` is non-empty, then broadcast
   ``AUX(r, w)`` for some ``w`` in ``bin_values[r]``;
3. wait for ``n - t`` AUX messages whose values are justified by
   ``bin_values[r]`` (the *first* such quorum in arrival order — which
   hands the delivery-order choice to the adversary, as the attack
   requires); let ``values`` be the set of their values;
4. read the common coin ``s``;
   * ``values = {v}``: ``est <- v``; decide ``v`` if ``v = s``;
   * ``values = {0, 1}``: ``est <- s``;
5. next round.

Correct processes keep participating after deciding (the usual
termination bookkeeping), matching the threshold-automata model.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.bv import EST, BVBroadcastMixin
from repro.sim.network import Message
from repro.sim.process import RoundState

AUX = "AUX"


class MMR14Process(BVBroadcastMixin):
    """A correct MMR14 process."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rounds: Dict[int, RoundState] = {}

    def _round_state(self, round_no: int) -> RoundState:
        if round_no not in self._rounds:
            self._rounds[round_no] = RoundState()
        return self._rounds[round_no]

    # ------------------------------------------------------------------
    def _begin_round(self, round_no: int) -> None:
        self.round = round_no
        self._bv_broadcast(round_no, self.est)
        self._progress()

    def _handle(self, sender: int, message: Message) -> None:
        if message.kind == EST:
            self._bv_handle(sender, message)
        elif message.kind == AUX:
            if message.value not in (0, 1):
                return
            state = self._round_state(message.round)
            if sender not in state.aux_from:
                state.aux_from[sender] = message.value
                state.aux_order.append(sender)

    # ------------------------------------------------------------------
    def _progress(self) -> None:
        state = self._round_state(self.round)
        # Step 2: AUX once bin_values becomes non-empty.
        if not state.aux_sent and state.bin_values:
            state.aux_sent = True
            w = min(state.bin_values)
            self.network.broadcast(self.pid, Message(AUX, self.round, w))
        # Step 3: first n-t justified AUX messages, in arrival order.
        if state.aux_sent and not state.done:
            justified = [
                sender
                for sender in state.aux_order
                if state.aux_from[sender] in state.bin_values
            ]
            if len(justified) >= self.n - self.t:
                quorum = justified[: self.n - self.t]
                state.values = {state.aux_from[sender] for sender in quorum}
                state.done = True
                self._finish_round(state)

    def _finish_round(self, state: RoundState) -> None:
        s = self._read_coin(self.round)
        if len(state.values) == 1:
            (v,) = state.values
            self.est = v
            if v == s:
                self._decide(v)
        else:
            self.est = s
        self._begin_round(self.round + 1)
