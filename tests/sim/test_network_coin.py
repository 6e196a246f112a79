"""Unit tests for the network and coin substrates."""

import pytest

from repro.sim.coin import CommonCoin
from repro.sim.network import Message, Network
from repro.sim.mmr14 import MMR14Process
from repro.sim.runner import Simulation


class TestNetwork:
    def test_send_and_deliver(self):
        net = Network(3)
        envelope = net.send(0, 1, Message("EST", 0, 1))
        assert net.in_flight == 1
        delivered = net.deliver(envelope)
        assert delivered is envelope
        assert net.in_flight == 0
        assert net.delivered_count == 1

    def test_double_delivery_rejected(self):
        net = Network(3)
        envelope = net.send(0, 1, Message("EST", 0, 1))
        net.deliver(envelope)
        with pytest.raises(KeyError):
            net.deliver(envelope)

    def test_broadcast_reaches_everyone_including_sender(self):
        net = Network(4)
        envelopes = net.broadcast(2, Message("AUX", 1, 0))
        assert {e.recipient for e in envelopes} == {0, 1, 2, 3}
        assert all(e.sender == 2 for e in envelopes)

    def test_pending_filters(self):
        net = Network(3)
        net.send(0, 1, Message("EST", 0, 0))
        net.send(2, 1, Message("EST", 0, 1))
        net.send(0, 2, Message("AUX", 0, 0))
        assert len(net.pending(recipient=1)) == 2
        assert len(net.pending(sender=0)) == 2
        only_aux = net.pending(predicate=lambda e: e.message.kind == "AUX")
        assert len(only_aux) == 1

    def test_fifo_uid_order(self):
        net = Network(2)
        first = net.send(0, 1, Message("EST", 0, 0))
        second = net.send(0, 1, Message("EST", 0, 1))
        assert [e.uid for e in net.pending()] == [first.uid, second.uid]

    def test_pending_order_survives_interleaved_delivery(self):
        """Regression pin: ``pending`` used to re-sort its snapshot by
        uid on every call (quadratic over a run); insertion order *is*
        uid order, including after mid-queue deliveries, so the sort
        was dropped and this ordering is now load-bearing."""
        net = Network(3)
        a = net.send(0, 1, Message("EST", 0, 0))
        b = net.send(1, 2, Message("EST", 0, 1))
        c = net.send(2, 1, Message("AUX", 0, 0))
        net.deliver(b)
        d = net.send(0, 1, Message("AUX", 0, 1))
        assert [e.uid for e in net.pending()] == [a.uid, c.uid, d.uid]
        assert [e.uid for e in net.pending(recipient=1)] == [
            a.uid, c.uid, d.uid
        ]
        assert a.uid < b.uid < c.uid < d.uid


class TestCommonCoin:
    def test_same_value_for_all_processes(self):
        coin = CommonCoin(seed=1)
        assert coin.get(0, pid=1) == coin.get(0, pid=2) == coin.get(0, pid=3)

    def test_rounds_independent(self):
        coin = CommonCoin(seed=5)
        values = {coin.get(r, 0) for r in range(40)}
        assert values == {0, 1}  # a strong coin hits both sides

    def test_access_tracking(self):
        coin = CommonCoin(seed=0)
        assert not coin.revealed(3)
        assert coin.peek(3) is None
        coin.get(3, pid=7)
        assert coin.revealed(3)
        assert coin.first_accessor(3) == 7
        assert coin.peek(3) in (0, 1)

    def test_strong_coin_is_roughly_fair(self):
        coin = CommonCoin(seed=11)
        ones = sum(coin.get(r, 0) for r in range(400))
        assert 120 < ones < 280

    def test_epsilon_keyword_is_gone(self):
        # An ε-Good coin is spelled as a spec (``biased:1/10``); the old
        # keyword must fail loudly rather than be ignored.
        with pytest.raises(TypeError):
            CommonCoin(seed=0, epsilon=0.1)
        with pytest.raises(TypeError):
            Simulation(MMR14Process, n=4, t=1, inputs=[1, 1, 0], epsilon=0.1)
