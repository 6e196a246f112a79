"""Asynchronous reliable point-to-point network (the BAMP substrate).

The computation model of the paper (§I): messages between each pair of
processes are delivered without loss, duplication or modification, but
with *unbounded* delay — the delivery **order is the adversary's**.
:class:`Network` therefore only stores in-flight envelopes; a scheduler
(see :mod:`repro.sim.adversary`) picks which envelope to deliver next,
which is exactly the scheduling power the attack of §II exploits.

Byzantine senders may equivocate: nothing stops a faulty process from
sending different (or multiple, contradictory) messages to different
recipients; correct receivers de-duplicate per (sender, kind, round) as
their protocol prescribes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Message:
    """Protocol payload: kind (EST/AUX/CONF/REPORT/...), round, value."""

    kind: str
    round: int
    value: object

    def __str__(self) -> str:
        return f"{self.kind}({self.round}, {self.value})"


@dataclass(frozen=True)
class Envelope:
    """One in-flight message instance."""

    uid: int
    sender: int
    recipient: int
    message: Message

    def __str__(self) -> str:
        return f"#{self.uid} {self.sender}->{self.recipient} {self.message}"


class Network:
    """In-flight message pool with adversary-controlled delivery."""

    def __init__(self, n: int):
        self.n = n
        self._uid = itertools.count()
        self._pending: Dict[int, Envelope] = {}
        self.delivered_count = 0
        self.sent_count = 0

    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, message: Message) -> Envelope:
        """Queue one point-to-point message."""
        envelope = Envelope(next(self._uid), sender, recipient, message)
        self._pending[envelope.uid] = envelope
        self.sent_count += 1
        return envelope

    def broadcast(self, sender: int, message: Message) -> List[Envelope]:
        """Send to every process (including the sender itself)."""
        return [self.send(sender, dst, message) for dst in range(self.n)]

    # ------------------------------------------------------------------
    def pending(
        self,
        recipient: Optional[int] = None,
        sender: Optional[int] = None,
        predicate: Optional[Callable[[Envelope], bool]] = None,
    ) -> List[Envelope]:
        """In-flight envelopes, optionally filtered (uid order).

        Uids are handed out by a monotone counter and ``deliver`` only
        ever *removes* entries, so the dict's insertion order **is** uid
        order — no sort needed (a full scan per scheduler step used to
        make long runs O(m² log m) in messages).
        """
        result = []
        for envelope in self._pending.values():
            if recipient is not None and envelope.recipient != recipient:
                continue
            if sender is not None and envelope.sender != sender:
                continue
            if predicate is not None and not predicate(envelope):
                continue
            result.append(envelope)
        return result

    def deliver(self, envelope: Envelope) -> Envelope:
        """Remove an envelope from flight (the scheduler delivers it)."""
        if envelope.uid not in self._pending:
            raise KeyError(f"envelope {envelope.uid} is not in flight")
        del self._pending[envelope.uid]
        self.delivered_count += 1
        return envelope

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def __len__(self) -> int:
        return len(self._pending)
