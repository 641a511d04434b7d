"""The message layer: slotted records, per-network ids, ledgers, delivery.

Messages and Table 1 records are ``__slots__`` layouts (no per-instance
``__dict__``, every slot set by the constructor); a network stamps every
message it carries from its own id counter, so ids replay exactly per run;
``NetworkMetrics`` counts every accepted message exactly once, at its
``size_bits(n_ever)`` size, under every fault preset; delivery neither loses
nor duplicates a message it did not account as dropped; no message stays
reachable from the healer once its wave is over; a reply queued to a
sender that a later message in the same round gets quarantined is
discarded quietly at delivery; and one specimen per message class pins its
payload size and seal, and that tampering with any sealed field shows.  The Lemma 4 ledgers the message path feeds
are also pinned by the golden digests (``tests/test_golden_digests.py``).
"""

import gc
import types
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
from repro.core.ports import NodeKey, Port
from repro.distributed import messages
from repro.distributed.faults import DELIVERY_PRESETS, FAULT_PRESETS
from repro.distributed.merge import PieceSummary
from repro.distributed.messages import (
    SEALED_KINDS,
    AnchorLink,
    Digest,
    DigestRequest,
    HelperAssignment,
    InsertionNotice,
    Message,
    ParentUpdate,
    PortDigest,
    PrimaryRootList,
    PrimaryRootReport,
)
from repro.distributed.protocol import select_disjoint_victims
from repro.generators import make_graph


def ring_network(width: int = 8, schedule=None):
    """``width`` processors linked in a ring, so ``p`` may send to ``p + 1``."""
    network = Network(fault_schedule=schedule)
    for p in range(width):
        network.add_processor(p)
    for p in range(width):
        network.connect(p, (p + 1) % width)
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


def reachable_messages(root):
    """Every :class:`Message` reachable from ``root`` by object references.

    Classes, modules and functions are not followed: they lead to
    module-level state (the handler cache, the message classes) that no
    healer owns.
    """
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, Message):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                stack.append(ref)
    return found


def message_classes(cls=Message):
    """Every live message class, once.

    Only the classes the messages module exports count: a class decorator
    that rebuilds its class (``dataclass(slots=True)`` does) leaves the
    original listed in ``__subclasses__`` until the garbage collector runs.
    """
    for sub in cls.__subclasses__():
        if getattr(messages, sub.__name__, None) is sub:
            yield sub
        yield from message_classes(sub)


SUMMARY = PieceSummary(
    root_port=Port(3, 4), root_is_leaf=False, num_leaves=4, height=2, representative=Port(5, 3)
)
LEAF = PieceSummary(
    root_port=Port(6, 99), root_is_leaf=True, num_leaves=1, height=0, representative=Port(6, 99)
)
RECORD = PortDigest(
    port=Port(2, 7),
    helper_for_victim=True,
    helper_left=Port(7, 2),
    helper_right=Port(2, 8),
    helper_parent=Port(9, 2),
    rt_parent=Port(2, 9),
    links_ok=False,
    busy_with=11,
)


def specimens():
    """One fresh message per class, every payload field off its default."""
    return {
        "DeletionNotice": DeletionNotice(sender=1, receiver=2, deleted=99),
        "InsertionNotice": InsertionNotice(sender=1, receiver=2, inserted=42),
        "AnchorLink": AnchorLink(sender=1, receiver=2, deleted=99),
        "Probe": Probe(sender=1, receiver=2, deleted=99, hops=3, rt_index=2),
        "PrimaryRootReport": PrimaryRootReport(
            sender=1, receiver=2, deleted=99, roots=(SUMMARY, LEAF), rt_index=1
        ),
        "PrimaryRootList": PrimaryRootList(sender=1, receiver=2, deleted=99, roots=(SUMMARY,)),
        "ParentUpdate": ParentUpdate(
            sender=1,
            receiver=2,
            deleted=99,
            child_port=Port(2, 5),
            parent_port=Port(6, 2),
            child_is_helper=True,
            epoch=3,
        ),
        "HelperAssignment": HelperAssignment(
            sender=1,
            receiver=2,
            deleted=99,
            helper_port=Port(2, 5),
            parent_port=Port(6, 2),
            left_port=Port(2, 7),
            right_port=Port(8, 3),
            create=False,
            representative_port=Port(8, 3),
            height=3,
            num_leaves=8,
            epoch=2,
        ),
        "Digest": Digest(
            sender=1,
            receiver=2,
            deleted=99,
            rt_index=0,
            probed=False,
            stripped=False,
            ack=True,
            pieces=(SUMMARY, LEAF),
            records=(RECORD,),
        ),
        "DigestRequest": DigestRequest(
            sender=1, receiver=2, deleted=99, ports=(Port(2, 5), Port(2, 6), Port(2, 7))
        ),
    }


#: ``(payload_words, seal)`` of each specimen (``None`` for unsealed kinds).
#: A seal is the crc32 of a repr, stable across Python versions; seals ride
#: accusation evidence into the golden digests.
PINNED = {
    "DeletionNotice": (2, None),
    "InsertionNotice": (2, None),
    "AnchorLink": (2, None),
    "Probe": (2, None),
    "PrimaryRootReport": (10, 1500717600),
    "PrimaryRootList": (6, 3335368007),
    "ParentUpdate": (5, 844289931),
    "HelperAssignment": (10, 1378711080),
    "Digest": (18, 2138756007),
    "DigestRequest": (5, None),
}

#: The payload fields each sealed kind's seal covers, in declaration order.
SEALED_FIELDS = {
    "PrimaryRootReport": ("deleted", "roots", "rt_index"),
    "PrimaryRootList": ("deleted", "roots"),
    "ParentUpdate": ("deleted", "child_port", "parent_port", "child_is_helper", "epoch"),
    "HelperAssignment": (
        "deleted",
        "helper_port",
        "parent_port",
        "left_port",
        "right_port",
        "create",
        "representative_port",
        "height",
        "num_leaves",
        "epoch",
    ),
    "Digest": ("deleted", "rt_index", "probed", "stripped", "ack", "pieces", "records"),
}


def mutated(value):
    """A value of the same shape as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return value[:-1]
    return Port("elsewhere", 0)


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


class TestMessageLayerPins:
    """One specimen per class pins payload sizes and seals exactly, so a
    rewrite of the message layer cannot move a ledger or an evidence seal."""

    def test_each_live_class_has_one_specimen(self):
        assert sorted(cls.__name__ for cls in message_classes()) == sorted(PINNED)

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_payload_words_and_seal(self, kind):
        message = specimens()[kind]
        words, seal = PINNED[kind]
        assert message.kind == kind
        assert message.payload_words == words
        assert message.size_bits(n_ever=1024) == words * 10
        assert message.sealed == (seal is not None)
        if seal is not None:
            assert message.seal == seal

    def test_sealed_kinds_are_the_pinned_ones(self):
        assert set(SEALED_FIELDS) == SEALED_KINDS
        assert {kind for kind, (_, seal) in PINNED.items() if seal is not None} == SEALED_KINDS

    @pytest.mark.parametrize(
        "kind, name",
        [(kind, name) for kind, names in sorted(SEALED_FIELDS.items()) for name in names],
    )
    def test_mutating_any_payload_field_breaks_the_seal(self, kind, name):
        message = specimens()[kind]
        _ = message.seal  # freeze the author's seal, then tamper
        assert message.seal_valid()
        setattr(message, name, mutated(getattr(message, name)))
        assert not message.seal_valid()


class TestMessageIds:
    def test_message_ids_are_per_network_deterministic(self, received_messages):
        def delivered_ids():
            received_messages.clear()
            run_flood(ring_network(width=4), 3, width=4, burst=2)
            return [m.message_id for m in received_messages]

        first = delivered_ids()
        assert len(first) == 3 * 4 * 2
        assert first == delivered_ids()

    def test_ids_follow_the_order_messages_enter_the_network(self):
        network = ring_network(width=3)
        first = DeletionNotice(0, 1, -1)
        second = Probe(1, 2, -1)
        out_of_band = network.stamp(DeletionNotice(2, 2, -1))
        network.send(first)
        network.send(second)
        assert (out_of_band.message_id, first.message_id, second.message_id) == (1, 2, 3)


class TestAccounting:
    @pytest.mark.parametrize("preset", sorted(FAULT_PRESETS))
    def test_ledger_counts_every_send_once(self, preset):
        """Totals and per-sender counters equal the tapped traffic."""
        healer, sent = replay_attack(preset)
        metrics = healer.network.metrics
        assert healer.cost_reports and sent
        assert metrics.total_messages == len(sent)
        assert metrics.total_bits == sum(bits for _, _, bits in sent)
        assert metrics.max_message_bits == max(bits for _, _, bits in sent)
        assert dict(metrics.messages_sent_by_node) == Counter(s for s, _, _ in sent)
        # A repair's ledger is a slice of the run's, never more.
        assert sum(r.messages for r in healer.cost_reports) <= metrics.total_messages


class TestDelivery:
    @pytest.mark.parametrize("preset", sorted(DELIVERY_PRESETS))
    def test_every_send_is_delivered_dropped_or_in_flight(self, preset, received_messages):
        network = ring_network(8, fault_schedule(preset, seed=3))
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
        assert sum(m.kind == "DeletionNotice" for m in received_messages) == delivered
        if preset in ("drop", "chaos"):
            assert network.metrics.total_dropped > 0
        else:
            assert network.metrics.total_dropped == 0

    def test_in_flight_counts_fault_delayed_messages(self):
        network = ring_network(3, fault_schedule("delay", seed=1))
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


class TestRetention:
    def test_no_message_outlives_its_wave(self):
        """After a ``delete_batch`` wave the healer holds no protocol message.

        Processors keep no log of what they received, and a wave uninstalls
        its repair contexts, whose cross-witness tables hold the messages
        that carried each descriptor.  (A sequential ``delete`` leaves its
        contexts installed until the next operation, so it is not tested
        here.)
        """
        healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 80, seed=4))
        for _ in range(3):
            degree = healer.engine.g_prime_degree
            # Past the ten biggest hubs, whose repair footprints overlap.
            candidates = sorted(healer.alive_nodes, key=lambda v: (-degree(v), NodeKey(v)))
            victims = select_disjoint_victims(healer, candidates[10:], limit=4)
            assert len(victims) == 4
            burst = healer.delete_batch(victims)
            assert burst.waves == 1
        assert healer.network.metrics.total_messages > 0
        assert reachable_messages(healer) == []


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

        network = ring_network(width=2)
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
