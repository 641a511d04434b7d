"""The message layer: slotted records, per-network ids, ledgers, delivery.

Messages and Table 1 records are ``__slots__`` layouts (no per-instance
``__dict__``, every slot set by the constructor); a network stamps every
message it carries from its own id counter, so ids replay exactly per run;
``NetworkMetrics`` counts every accepted message exactly once, at its
``size_bits(n_ever)`` size, under every fault preset; delivery neither loses
nor duplicates a message it did not account as dropped; and a reply queued
to a sender that a later message in the same round gets quarantined is
discarded quietly at delivery.  The Lemma 4 ledgers the message path feeds
are also pinned by the golden digests (``tests/test_golden_digests.py``).
"""

from collections import Counter

import pytest

from repro.adversary import MaxDegreeDeletion
from repro.distributed import (
    DeletionNotice,
    DistributedForgivingGraph,
    EdgeRecord,
    Network,
    Probe,
    fault_schedule,
)
from repro.distributed.faults import DELIVERY_PRESETS, FAULT_PRESETS
from repro.distributed.messages import Digest, DigestRequest, Message
from repro.generators import make_graph


def flood_network(width: int = 8):
    network = Network(strict_links=False)
    for p in range(width):
        network.add_processor(p)
    return network


def run_flood(network, rounds: int, width: int = 8, burst: int = 4) -> None:
    for _ in range(rounds):
        for p in range(width):
            receiver = (p + 1) % width
            for _ in range(burst):
                network.send(DeletionNotice(p, receiver, -1))
        network.deliver_round()


def tap_sends(network):
    """Record ``(sender, kind, bits)`` for every message ``network`` accepts.

    The tap shadows ``network.send`` on the instance, so handler responses
    sent from ``deliver_round`` and timer output from ``tick`` pass through
    it too; bits come from ``Message.size_bits``, independently of the
    network's cached word size.
    """
    sent = []
    send = network.send

    def tapped(message):
        send(message)
        sent.append((message.sender, message.kind, message.size_bits(network.n_ever)))

    network.send = tapped
    return sent


def replay_attack(preset: str, n: int = 40):
    """Delete-heavy attack under ``preset``; returns (healer, tapped sends)."""
    graph = make_graph("power_law", n, seed=7)
    healer = DistributedForgivingGraph.from_graph(
        graph, fault_schedule=fault_schedule(preset, seed=7)
    )
    assert healer.network.metrics.total_messages == 0
    sent = tap_sends(healer.network)
    strategy = MaxDegreeDeletion()
    for _ in range(n // 2):
        victim = strategy.choose_victim(healer)
        if victim is None or healer.num_alive <= 3:
            break
        healer.delete(victim)
    return healer, sent


def message_classes(cls=Message):
    for sub in cls.__subclasses__():
        yield sub
        yield from message_classes(sub)


class TestSlots:
    def test_messages_have_no_dict(self):
        for message in (
            DeletionNotice(sender=1, receiver=2, deleted=3),
            Probe(sender=1, receiver=2, deleted=3),
            Digest(sender=1, receiver=2, deleted=3),
            DigestRequest(sender=1, receiver=2, deleted=3),
        ):
            assert not hasattr(message, "__dict__")

    def test_edge_records_have_no_dict(self):
        assert not hasattr(EdgeRecord(neighbor=1), "__dict__")

    def test_constructor_sets_every_slot(self):
        """No slot is left unset: reading one would raise ``AttributeError``."""
        classes = list(message_classes())
        assert len(classes) >= 10
        for cls in classes:
            message = cls(1, 2)
            for klass in cls.__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    assert hasattr(message, slot), f"{cls.__name__}.{slot}"

    def test_kind_and_sealed_stay_class_attributes(self):
        assert "kind" not in Message.__slots__
        assert DeletionNotice.kind == "DeletionNotice"
        assert Digest.sealed is True
        assert DeletionNotice.sealed is False


class TestMessageIds:
    def test_message_ids_are_per_network_deterministic(self):
        def delivered_ids():
            network = flood_network(width=4)
            seen = []
            run_flood(network, 3, width=4, burst=2)
            for p in network.processors.values():
                seen.extend(m.message_id for m in p.received)
            return seen

        assert delivered_ids() == delivered_ids()

    def test_ids_follow_the_order_messages_enter_the_network(self):
        network = flood_network(width=3)
        first = DeletionNotice(0, 1, -1)
        second = Probe(1, 2, -1)
        out_of_band = network.stamp(DeletionNotice(2, 2, -1))
        network.send(first)
        network.send(second)
        assert (out_of_band.message_id, first.message_id, second.message_id) == (1, 2, 3)


class TestAccounting:
    @pytest.mark.parametrize("preset", sorted(FAULT_PRESETS))
    def test_ledger_counts_every_send_once(self, preset):
        """Totals, per-kind and per-sender counters equal the tapped traffic."""
        healer, sent = replay_attack(preset)
        metrics = healer.network.metrics
        assert healer.cost_reports and sent
        assert metrics.total_messages == len(sent)
        assert metrics.total_bits == sum(bits for _, _, bits in sent)
        assert metrics.max_message_bits == max(bits for _, _, bits in sent)
        assert dict(metrics.messages_by_kind) == Counter(kind for _, kind, _ in sent)
        assert dict(metrics.messages_sent_by_node) == Counter(s for s, _, _ in sent)
        bits_by_node = Counter()
        for sender, _, bits in sent:
            bits_by_node[sender] += bits
        assert dict(metrics.bits_sent_by_node) == bits_by_node
        # A repair's ledger is a slice of the run's, never more.
        assert sum(r.messages for r in healer.cost_reports) <= metrics.total_messages


class TestDelivery:
    @pytest.mark.parametrize("preset", sorted(DELIVERY_PRESETS))
    def test_every_send_is_delivered_dropped_or_in_flight(self, preset):
        network = Network(strict_links=False, fault_schedule=fault_schedule(preset, seed=3))
        for p in range(8):
            network.add_processor(p)
        delivered = 0
        for _ in range(12):
            for p in range(8):
                for _ in range(3):
                    network.send(DeletionNotice(p, (p + 1) % 8, -1))
            delivered += network.deliver_round()
            metrics = network.metrics
            assert metrics.total_messages == delivered + metrics.total_dropped + network.in_flight
        while network.in_flight:
            delivered += network.deliver_round()
        assert delivered + network.metrics.total_dropped == network.metrics.total_messages
        receivers = network.processors.values()
        assert sum(p.received_by_kind.get("DeletionNotice", 0) for p in receivers) == delivered
        if preset in ("drop", "chaos"):
            assert network.metrics.total_dropped > 0
        else:
            assert network.metrics.total_dropped == 0

    def test_in_flight_counts_fault_delayed_messages(self):
        network = Network(strict_links=False, fault_schedule=fault_schedule("delay", seed=1))
        for p in range(3):
            network.add_processor(p)
        for _ in range(40):
            network.send(DeletionNotice(0, 1, "v"))
        network.send(DeletionNotice(1, 2, "w"))
        network.deliver_round()
        delayed = network.in_flight - network.pending_messages
        assert delayed > 0
        assert network.pending_messages == 0
        assert network.in_flight_for("v") + network.in_flight_for("w") == network.in_flight
        assert network.run_until_quiet() <= 4  # max_delay of the preset
        assert network.in_flight_for("v") == 0


class TestAccusationOrdering:
    def test_answer_to_liar_queued_before_quarantine_is_discarded(self, monkeypatch):
        """An answer to a liar leaves before the liar's later lie lands.

        In one round the receiver first handles the liar's honest digest and
        answers the liar, then verifies the liar's tampered digest and
        quarantines it.  The answer was queued while the liar still existed,
        so ``send`` accepted it; the next round must discard it quietly
        rather than raise ``ProtocolError: receiver does not exist``.
        """
        from repro.distributed.processor import _HANDLER_CACHE

        network = flood_network(width=2)
        honest = Digest(1, 0, -1)
        lie = Digest(1, 0, -1)
        _ = lie.seal  # freeze the author's seal, then tamper
        lie.probed = not lie.probed
        assert not lie.seal_valid()
        network.send(honest)
        network.send(lie)

        def answer_the_sender(processor, message):
            return [Digest(0, message.sender, -1, None, True, True, True)]

        cls = type(network.processors[0])
        monkeypatch.setitem(_HANDLER_CACHE, (cls, "Digest"), answer_the_sender)
        network.deliver_round()

        assert 1 in network.quarantined
        assert 1 not in network.processors
        answers = [m for m in network._outbox if m.receiver == 1]
        assert len(answers) == 1  # sent while the liar still existed
        assert network.deliver_round() == 0  # discarded, no ProtocolError
        assert network.in_flight == 0
