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
    RepairContext,
)
from repro.distributed.messages import words_to_bits

from network_helpers import connect, disconnect, pending_messages, run_until_quiet


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
        connect(net, "a", "b")
        connect(net, "a", "c")
        assert net.are_linked("a", "b")
        assert net.neighbors("a") == ["b", "c"]
        disconnect(net, "a", "b")
        assert not net.are_linked("a", "b")

    def test_connect_requires_existing_processors(self):
        net = Network()
        net.add_processor("a")
        with pytest.raises(UnknownNodeError):
            connect(net, "a", "ghost")

    def test_removing_processor_drops_its_links(self):
        net = Network()
        for node in "abc":
            net.add_processor(node)
        connect(net, "a", "b")
        connect(net, "b", "c")
        net.remove_processor("b")
        assert net.links() == set()

    def test_disconnect_tolerates_removed_endpoints(self):
        net = Network()
        for node in "ab":
            net.add_processor(node)
        connect(net, "a", "b")
        net.remove_processor("b")
        disconnect(net, "a", "b")  # no-op, no raise
        assert not net.are_linked("a", "b")

    def test_neighbors_and_links_use_canonical_natural_order(self):
        """Canonical node order: ints compare numerically (2 < 10), not by repr."""
        net = Network()
        for node in (1, 2, 10):
            net.add_processor(node)
        connect(net, 1, 10)
        connect(net, 1, 2)
        assert net.neighbors(1) == [2, 10]
        assert (2, 10) not in net.links()
        connect(net, 10, 2)
        assert (2, 10) in net.links()
        assert net.num_links() == 3


class TestMessageDelivery:
    def make_pair(self):
        net = Network()
        net.add_processor("a")
        net.add_processor("b")
        connect(net, "a", "b")
        return net

    def test_messages_are_delivered_next_round(self, received_messages):
        net = self.make_pair()
        net.send(Probe(sender="a", receiver="b", deleted="x"))
        assert pending_messages(net) == 1
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
        assert net.metrics.total_bits > 0

    def test_run_until_quiet(self):
        net = self.make_pair()
        net.send(Probe(sender="a", receiver="b"))
        rounds = run_until_quiet(net)
        assert rounds == 1
        assert pending_messages(net) == 0

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
        assert len(processor.edges) == 2

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


class TestDirtyTracking:
    """Once started, the checkpoint marks note every write of a Table 1
    record, as ``(owner, neighbor)``, every write of a link's sources, as the
    endpoint pair its first write named with the sources that write
    replaced, and every removed processor."""

    def test_marks_are_off_until_started(self):
        net = Network()
        for node in "ab":
            net.add_processor(node)
        net.add_link_source(("k",), "a", "b")
        net.processors["a"].ensure_edge("b")
        net.remove_processor("b")
        assert net.marks is None
        marks = net.start_marks()
        assert net.marks is marks
        assert (marks.records, marks.links, marks.removed) == ({}, {}, set())

    def test_link_writes_mark_their_endpoints(self):
        net = Network()
        for node in "abc":
            net.add_processor(node)
        marks = net.start_marks()
        ab, bc, k = frozenset("ab"), frozenset("bc"), ("k",)
        writes = [
            (lambda: net.add_link_source(k, "a", "b"), {ab: ()}, set()),
            (lambda: net.remove_link_source(k, "a", "b"), {ab: (k,)}, set()),
            (lambda: net.add_link_source(k, "a", "b"), {ab: ()}, set()),
            (lambda: disconnect(net, "a", "b"), {ab: (k,)}, set()),
            # A link without sources has no checkpoint row to change.
            (lambda: connect(net, "a", "c"), {}, set()),
            (lambda: disconnect(net, "a", "c"), {}, set()),
            (lambda: net.add_link_source(k, "b", "c"), {bc: ()}, set()),
            (lambda: net.add_link_source(k, "a", "b"), {ab: ()}, set()),
            (lambda: net.remove_processor("a"), {ab: (k,)}, {"a"}),
            (lambda: net.replace_link_sources({bc: {("j",)}}), {bc: (k,)}, set()),
        ]
        for write, links, removed in writes:
            marks.clear()
            write()
            marked = {frozenset(pair): keys for pair, keys in marks.links.items()}
            assert len(marked) == len(marks.links)
            assert (marks.records, marked, marks.removed) == ({}, links, removed)

    def test_a_link_mark_keeps_the_sources_before_its_first_write(self):
        """Later writes, in either direction, find the link under the pair
        its first write named and keep the first recorded sources: those the
        stored image holds."""
        net = Network()
        for node in "ab":
            net.add_processor(node)
        net.add_link_source(("k",), "a", "b")
        marks = net.start_marks()
        net.add_link_source(("j",), "b", "a")
        net.remove_link_source(("k",), "a", "b")
        net.add_link_source(("k",), "a", "b")
        assert marks.links == {("b", "a"): (("k",),)}
        assert net.link_sources("a", "b") == {("j",), ("k",)}

    def test_record_writes_mark_their_owner(self):
        net = Network()
        processor = net.add_processor("v")
        marks = net.start_marks()
        helper = Port("v", "x")
        writes = [
            (lambda: processor.ensure_edge("x"), [("v", "x")]),
            (lambda: processor.ensure_edge("x"), []),
            (
                lambda: processor.receive(
                    HelperAssignment(sender="w", receiver="v", helper_port=helper, create=True)
                ),
                [("v", "x")],
            ),
            (
                lambda: processor.receive(
                    HelperAssignment(sender="w", receiver="v", helper_port=helper, create=False)
                ),
                [("v", "x")],
            ),
            (
                lambda: processor.receive(
                    ParentUpdate(
                        sender="w", receiver="v", child_port=helper, parent_port=Port("w", "x")
                    )
                ),
                [("v", "x")],
            ),
            (
                lambda: processor.receive(DeletionNotice(sender="v", receiver="v", deleted="x")),
                [("v", "x")],
            ),
            (lambda: processor.receive(DeletionNotice(sender="v", receiver="v", deleted="y")), []),
            (lambda: [processor.ensure_edge(n) for n in "zyx"], [("v", "z"), ("v", "y")]),
        ]
        for write, marked in writes:
            marks.clear()
            write()
            assert list(marks.records) == marked
            assert not marks.links and not marks.removed
        record = processor.edges["x"]
        record.has_helper, record.helper_victim = True, "old"
        marks.clear()
        processor.apply_strip(RepairContext(victim="z", released=[helper]))
        assert not record.has_helper
        assert list(marks.records) == [("v", "x")]
