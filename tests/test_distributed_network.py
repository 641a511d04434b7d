"""Unit tests for the message-passing substrate: messages, network, processors."""

import dataclasses

import pytest

from repro.core.errors import ProtocolError, UnknownNodeError
from repro.core.ports import Port
from repro.distributed import (
    DeletionNotice,
    EdgeRecord,
    HelperAssignment,
    InsertionNotice,
    Network,
    ParentUpdate,
    PrimaryRootList,
    Probe,
    Processor,
)
from repro.distributed.messages import words_to_bits


class TestMessages:
    def test_size_scales_with_log_n(self):
        message = Probe(sender=1, receiver=2, deleted=0)
        assert message.size_bits(n_ever=16) == message.payload_words * 4
        assert message.size_bits(n_ever=1024) == message.payload_words * 10

    def test_primary_root_list_payload_grows_with_roots(self):
        small = PrimaryRootList(sender=1, receiver=2, roots=(Port(1, 0),))
        large = PrimaryRootList(sender=1, receiver=2, roots=tuple(Port(i, 0) for i in range(10)))
        assert large.payload_words > small.payload_words

    def test_kind_names(self):
        assert DeletionNotice(sender=1, receiver=2, deleted=3).kind == "DeletionNotice"
        assert HelperAssignment(sender=1, receiver=2).kind == "HelperAssignment"

    def test_message_ids_are_unique(self):
        a = Probe(sender=1, receiver=2)
        b = Probe(sender=1, receiver=2)
        assert a.message_id != b.message_id

    def test_words_to_bits_minimum(self):
        assert words_to_bits(3, n_ever=2) == 3


class TestNetworkTopology:
    def test_add_and_remove_processor(self):
        net = Network()
        net.add_processor("a")
        assert net.has_processor("a")
        net.remove_processor("a")
        assert not net.has_processor("a")

    def test_remove_unknown_processor(self):
        with pytest.raises(UnknownNodeError):
            Network().remove_processor("ghost")

    def test_connect_and_neighbors(self):
        net = Network()
        for node in "abc":
            net.add_processor(node)
        net.connect("a", "b")
        net.connect("a", "c")
        assert net.are_linked("a", "b")
        assert net.neighbors("a") == ["b", "c"]
        net.disconnect("a", "b")
        assert not net.are_linked("a", "b")

    def test_connect_requires_existing_processors(self):
        net = Network()
        net.add_processor("a")
        with pytest.raises(UnknownNodeError):
            net.connect("a", "ghost")

    def test_removing_processor_drops_its_links(self):
        net = Network()
        for node in "abc":
            net.add_processor(node)
        net.connect("a", "b")
        net.connect("b", "c")
        net.remove_processor("b")
        assert net.links() == set()

    def test_disconnect_tolerates_removed_endpoints(self):
        net = Network()
        for node in "ab":
            net.add_processor(node)
        net.connect("a", "b")
        net.remove_processor("b")
        net.disconnect("a", "b")  # no-op, no raise
        assert not net.are_linked("a", "b")

    def test_neighbors_and_links_use_canonical_natural_order(self):
        """NodeKey ordering: ints compare numerically (2 < 10), not by repr."""
        net = Network()
        for node in (1, 2, 10):
            net.add_processor(node)
        net.connect(1, 10)
        net.connect(1, 2)
        assert net.neighbors(1) == [2, 10]
        assert (2, 10) not in net.links()
        net.connect(10, 2)
        assert (2, 10) in net.links()
        assert net.num_links() == 3


class TestMessageDelivery:
    def make_pair(self):
        net = Network()
        net.add_processor("a")
        net.add_processor("b")
        net.connect("a", "b")
        return net

    def test_messages_are_delivered_next_round(self, received_messages):
        net = self.make_pair()
        net.send(Probe(sender="a", receiver="b", deleted="x"))
        assert net.pending_messages == 1
        assert received_messages == []
        delivered = net.deliver_round()
        assert delivered == 1
        assert [(m.receiver, m.kind) for m in received_messages] == [("b", "Probe")]

    def test_strict_mode_rejects_unlinked_send(self):
        net = Network()
        net.add_processor("a")
        net.add_processor("b")
        with pytest.raises(ProtocolError):
            net.send(Probe(sender="a", receiver="b"))

    def test_send_requires_existing_endpoints(self):
        net = self.make_pair()
        with pytest.raises(ProtocolError):
            net.send(Probe(sender="a", receiver="ghost"))

    def test_metrics_accumulate(self):
        net = self.make_pair()
        net.n_ever = 16
        for _ in range(3):
            net.send(Probe(sender="a", receiver="b"))
        net.deliver_round()
        assert net.metrics.total_messages == 3
        assert net.metrics.total_rounds == 1
        assert net.metrics.messages_sent_by_node["a"] == 3
        assert net.metrics.max_messages_per_node() == 3
        assert net.metrics.total_bits > 0

    def test_run_until_quiet(self):
        net = self.make_pair()
        net.send(Probe(sender="a", receiver="b"))
        rounds = net.run_until_quiet()
        assert rounds == 1
        assert net.pending_messages == 0

    def test_message_to_dead_processor_is_dropped(self):
        net = self.make_pair()
        net.send(Probe(sender="a", receiver="b"))
        net.remove_processor("b")
        assert net.deliver_round() == 0

    def test_repair_window_isolates_its_traffic(self):
        net = self.make_pair()
        net.send(Probe(sender="a", receiver="b", deleted="x"))
        net.deliver_round()  # pre-window traffic
        window = net.metrics.begin_epoch_window("x")
        net.send(Probe(sender="b", receiver="a", deleted="x"))
        net.send(Probe(sender="a", receiver="b", deleted="y"))  # another epoch's traffic
        net.deliver_round()
        closed = net.metrics.end_epoch_window("x")
        assert closed is window
        assert closed.messages == 1
        assert dict(closed.messages_by_node) == {"b": 1}
        assert closed.max_messages_per_node() == 1
        assert closed.max_message_bits > 0
        # Cumulative counters still cover the whole run.
        assert net.metrics.total_messages == 3
        assert net.metrics.total_rounds == 2
        # Traffic after the window closes lands only on the cumulative counters.
        net.send(Probe(sender="a", receiver="b", deleted="x"))
        net.deliver_round()
        assert closed.messages == 1
        assert net.metrics.total_messages == 4


class TestProcessorState:
    def test_ensure_edge_initialises_representative(self):
        processor = Processor("v")
        record = processor.ensure_edge("x")
        assert record.representative == Port("v", "x")
        assert record.neighbor_alive

    def test_deletion_notice_marks_neighbor_dead(self):
        processor = Processor("v")
        processor.ensure_edge("x")
        processor.receive(DeletionNotice(sender="v", receiver="v", deleted="x"))
        assert not processor.edges["x"].neighbor_alive

    def test_insertion_notice_creates_record(self):
        processor = Processor("v")
        processor.receive(InsertionNotice(sender="n", receiver="v", inserted="n"))
        assert "n" in processor.edges

    def test_helper_assignment_create_and_release(self):
        processor = Processor("v")
        processor.ensure_edge("x")
        processor.receive(
            HelperAssignment(
                sender="w",
                receiver="v",
                helper_port=Port("v", "x"),
                left_port=Port("a", "x"),
                right_port=Port("b", "x"),
                create=True,
            )
        )
        record = processor.edges["x"]
        assert record.has_helper
        assert record.helper_left == Port("a", "x")
        processor.receive(
            HelperAssignment(sender="w", receiver="v", helper_port=Port("v", "x"), create=False)
        )
        assert not record.has_helper

    def test_helper_assignment_for_other_processor_is_ignored(self):
        processor = Processor("v")
        processor.receive(
            HelperAssignment(sender="w", receiver="v", helper_port=Port("other", "x"), create=True)
        )
        assert "x" not in processor.edges

    def test_parent_update_for_leaf(self):
        processor = Processor("v")
        processor.ensure_edge("x")
        processor.receive(
            ParentUpdate(
                sender="w",
                receiver="v",
                child_port=Port("v", "x"),
                parent_port=Port("w", "x"),
                child_is_helper=False,
            )
        )
        record = processor.edges["x"]
        assert record.rt_parent == Port("w", "x")
        assert record.endpoint == Port("w", "x")
        assert not record.neighbor_alive

    def test_ensure_edge_returns_the_stored_record(self):
        processor = Processor("v")
        record = processor.ensure_edge("x")
        record.has_helper = True
        record.helper_height = 3
        assert processor.ensure_edge("x") is record
        assert processor.edges["x"].helper_height == 3
        processor.ensure_edge("y")
        assert list(processor.edges) == ["x", "y"]
        assert processor.degree_in_edges() == 2

    def test_clear_helper_resets_helper_fields_only(self):
        processor = Processor("v")
        record = processor.ensure_edge("x")
        record.neighbor_alive = False
        record.endpoint = record.rt_parent = Port("w", "x")
        record.has_helper = True
        record.helper_parent = record.helper_representative = Port("a", "x")
        record.helper_left, record.helper_right = Port("b", "x"), Port("c", "x")
        record.helper_height = record.helper_children_count = 2
        record.helper_victim = "z"
        record.clear_helper()
        fresh = EdgeRecord(neighbor="x")
        for field in dataclasses.fields(EdgeRecord):
            if field.name == "has_helper" or field.name.startswith("helper_"):
                assert getattr(record, field.name) == getattr(fresh, field.name), field.name
        # The real-node half of the record is untouched.
        assert record.neighbor_alive is False
        assert record.endpoint == record.rt_parent == Port("w", "x")
        assert record.representative == Port("v", "x")

    def test_helper_ports_listing(self):
        processor = Processor("v")
        processor.ensure_edge("x")
        processor.edges["x"].has_helper = True
        assert processor.helper_ports() == [Port("v", "x")]
