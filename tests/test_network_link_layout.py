"""The network's link layout against a plain model.

A :class:`Network` keeps each link together with the source keys that
project onto it, as one tuple both endpoints share.  The state machine
below drives every topology writer — processors coming and going, bare and
sourced links, and the checkpoint restore's bulk ``replace_link_sources``
— and sends, with a repair open or not, and after every step compares
every reader with a model made of one ``{frozenset: set}`` map and a flag
for the open repair, checks that both endpoints hold the identical tuple,
and checks that every link whose sources changed is in the checkpoint
marks with the sources it had before the step.  An open repair lets any
two live processors talk and writes no link, and a link goes with its last
source whether or not a repair is open.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.errors import ProtocolError, UnknownNodeError
from repro.core.ports import node_order_key
from repro.distributed import Network
from repro.distributed.merge import real_source_key
from repro.distributed.messages import DeletionNotice
from repro.distributed.network import REAL_EDGE

import network_helpers

NODES = range(6)
KEYS = [("real", 0), ("real", 1), ("rt", 2), ("rt", 3)]

nodes = st.sampled_from(NODES)
keys = st.sampled_from(KEYS)


class LinkLayoutMachine(RuleBasedStateMachine):
    """Random topology writes on at most six processors, checked step by step.

    A rule that takes two endpoints draws either an existing link, so
    removals hit, or two arbitrary nodes, so dead endpoints, self-links and
    absent links come up too.
    """

    @initialize(
        live=st.sets(nodes, min_size=2),
        sourced=st.lists(st.tuples(keys, nodes, nodes), max_size=8),
        data=st.data(),
    )
    def start(self, live, sourced, data):
        """Processors, some sourced links and, half the time, an open repair
        whose traffic went between unlinked processors and whose links got
        a source (and maybe lost it again), so the rules start from a
        topology worth rewriting."""
        self.net = Network()
        self.net.start_marks()
        self.live = set()
        #: Model: link -> its source keys (an empty set = an unsourced link).
        self.links = {}
        #: Model: whether a repair is open.
        self.repair_open = False
        self.last_sourced = {}
        for node in sorted(live):
            self.add_processor(node)
        for key, u, v in sourced:
            self.add_source(key, u, v)
        if data.draw(st.booleans(), label="repairing"):
            self.begin_scaffold()
            pairs = [(u, v) for u in sorted(live) for v in sorted(live) if u < v]
            for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=3), label="talked"):
                self.send_between(u, v)
                key = data.draw(keys, label="key")
                self.add_source(key, u, v)
                if data.draw(st.booleans(), label="retract"):
                    self.remove_source(key, u, v)

    def linked(self, u, v):
        return frozenset((u, v)) in self.links

    def sourced(self):
        return {link: set(keys) for link, keys in self.links.items() if keys}

    def draw_endpoints(self, data, links):
        """One of ``links`` or two arbitrary nodes."""
        if not links or data.draw(st.booleans(), label="arbitrary"):
            return data.draw(nodes, label="u"), data.draw(nodes, label="v")
        u, v = data.draw(st.sampled_from(sorted(sorted(link) for link in links)), label="link")
        return (v, u) if data.draw(st.booleans(), label="flip") else (u, v)

    # ------------------------------------------------------------------ #
    # processors
    # ------------------------------------------------------------------ #
    @rule(node=nodes)
    def add_processor(self, node):
        self.net.add_processor(node)
        self.live.add(node)

    @rule(node=nodes)
    def remove_processor(self, node):
        if node not in self.live:
            with pytest.raises(UnknownNodeError):
                self.net.remove_processor(node)
            return
        self.net.remove_processor(node)
        assert node in self.net.marks.removed
        self.live.discard(node)
        for link in [link for link in self.links if node in link]:
            del self.links[link]

    # ------------------------------------------------------------------ #
    # bare links
    # ------------------------------------------------------------------ #
    @rule(u=nodes, v=nodes)
    def connect(self, u, v):
        if u != v and not {u, v} <= self.live:
            with pytest.raises(UnknownNodeError):
                network_helpers.connect(self.net, u, v)
            return
        network_helpers.connect(self.net, u, v)
        if u != v:
            self.links.setdefault(frozenset((u, v)), set())

    @rule(data=st.data())
    def disconnect(self, data):
        u, v = self.draw_endpoints(data, self.links.keys())
        network_helpers.disconnect(self.net, u, v)
        self.links.pop(frozenset((u, v)), None)

    # ------------------------------------------------------------------ #
    # link sources
    # ------------------------------------------------------------------ #
    @rule(key=keys, data=st.data())
    def add_link_source(self, key, data):
        self.add_source(key, *self.draw_endpoints(data, self.links.keys()))

    def add_source(self, key, u, v):
        self.net.add_link_source(key, u, v)
        if u != v and {u, v} <= self.live:
            self.links.setdefault(frozenset((u, v)), set()).add(key)

    @rule(data=st.data())
    def remove_link_source(self, data):
        u, v = self.draw_endpoints(data, self.links.keys())
        sources = self.links.get(frozenset((u, v)))
        self.remove_source(data.draw(st.sampled_from(sorted(sources or KEYS)), label="key"), u, v)

    def remove_source(self, key, u, v):
        self.net.remove_link_source(key, u, v)
        link = frozenset((u, v))
        sources = self.links.get(link)
        if not sources:
            return
        sources.discard(key)
        if not sources:
            del self.links[link]

    @rule(data=st.data())
    def replace_link_sources(self, data):
        pairs = [frozenset((u, v)) for u in self.live for v in self.live if u < v]
        expected = {}
        if pairs:
            expected = data.draw(
                st.dictionaries(
                    st.sampled_from(pairs), st.sets(keys, min_size=1), max_size=len(pairs)
                ),
                label="expected",
            )
        self.net.replace_link_sources(expected)
        for link, link_keys in expected.items():
            self.links[link] = set(link_keys)

    # ------------------------------------------------------------------ #
    # repairs and sends
    # ------------------------------------------------------------------ #
    @rule()
    def begin_scaffold(self):
        self.net.begin_scaffold()
        self.repair_open = True

    @rule()
    def end_scaffold(self):
        self.net.end_scaffold()
        self.repair_open = False

    @rule(data=st.data())
    def send(self, data):
        self.send_between(*self.draw_endpoints(data, self.links.keys()))

    def send_between(self, u, v):
        """A send queues or raises, and writes no link either way."""
        queued = network_helpers.pending_messages(self.net)
        message = DeletionNotice(sender=u, receiver=v, deleted="x")
        if not {u, v} <= self.live or not (u == v or self.repair_open or self.linked(u, v)):
            with pytest.raises(ProtocolError):
                self.net.send(message)
            assert network_helpers.pending_messages(self.net) == queued
            return
        self.net.send(message)
        assert network_helpers.pending_messages(self.net) == queued + 1

    # ------------------------------------------------------------------ #
    # readers
    # ------------------------------------------------------------------ #
    @invariant()
    def readers_match_the_model(self):
        net = self.net
        for u in NODES:
            expected_neighbors = sorted(
                (v for v in NODES if v != u and self.linked(u, v)), key=node_order_key
            )
            assert net.neighbors(u) == expected_neighbors
            for v in NODES:
                link = frozenset((u, v))
                assert net.are_linked(u, v) == (link in self.links)
                sources = self.links.get(link, set())
                assert net.link_source_count(u, v) == len(sources)
                assert net.link_sources(u, v) == frozenset(sources)
                for key in KEYS:
                    assert net.has_link_source(key, u, v) == (key in sources)
        iterated = [frozenset(pair) for pair in net.iter_links()]
        assert len(iterated) == len(set(iterated))
        assert set(iterated) == set(self.links)
        assert net.num_links() == len(self.links)

    @invariant()
    def export_matches_the_model(self):
        assert self.net.export_link_sources() == self.sourced()

    @invariant()
    def both_endpoints_share_one_tuple(self):
        layout = self.net._links
        for u, links in layout.items():
            for v, keys in links.items():
                assert type(keys) is tuple and layout[v][u] is keys
                assert len(set(keys)) == len(keys)
                # An unsourced link holds ``()``.
                assert set(keys) == self.links[frozenset((u, v))]

    @invariant()
    def source_changes_mark_their_links(self):
        sourced = self.sourced()
        marked = {frozenset(pair): keys for pair, keys in self.net.marks.links.items()}
        assert len(marked) == len(self.net.marks.links)  # each link marked once
        for link in set(sourced) | set(self.last_sourced):
            if sourced.get(link) != self.last_sourced.get(link):
                assert link in marked
        for link, before in marked.items():
            assert set(before) == self.last_sourced.get(link, set())
        self.net.marks.clear()
        self.last_sourced = sourced


# Derandomized, so tier-1 replays the same programs every run; many short
# programs catch more than a few long ones in the same time (about 1.3 s).
LinkLayoutMachine.TestCase.settings = settings(
    derandomize=True, max_examples=120, stateful_step_count=10, deadline=None
)
TestLinkLayout = LinkLayoutMachine.TestCase


def test_replace_link_sources_creates_the_links_it_sources():
    network = Network()
    for node in "uvw":
        network.add_processor(node)
    network.replace_link_sources({frozenset(("u", "v")): {("real", "u", "v")}})
    assert network.are_linked("u", "v")
    assert network.neighbors("u") == ["v"]
    assert network.num_links() == 1
    assert not network.are_linked("v", "w")


def test_replace_link_sources_sets_only_the_links_it_names():
    """Each named link gets exactly its keys; every other link stays."""
    network = Network()
    for node in "uvwx":
        network.add_processor(node)
    network.add_link_source(("real", "u", "v"), "u", "v")
    network.add_link_source(("rt", 2), "u", "v")
    network.add_link_source(("real", "u", "w"), "u", "w")
    network.replace_link_sources(
        {frozenset(("u", "x")): {("rt", 1)}, frozenset(("u", "v")): {("real", "u", "v")}}
    )
    assert network.links() == {("u", "v"), ("u", "w"), ("u", "x")}
    assert network.export_link_sources() == {
        frozenset(("u", "v")): {("real", "u", "v")},
        frozenset(("u", "w")): {("real", "u", "w")},
        frozenset(("u", "x")): {("rt", 1)},
    }


def test_replace_link_sources_rejects_a_dead_endpoint():
    network = Network()
    network.add_processor("u")
    with pytest.raises(UnknownNodeError):
        network.replace_link_sources({frozenset(("u", "ghost")): {("real", "u", "ghost")}})


def test_replace_link_sources_holds_a_links_own_real_key_as_the_marker():
    """Only a link's own ``real_source_key`` becomes the shared real-edge
    marker (real-only links then share one tuple); any other key, a real
    key of another pair included, is held as given, and every key leaves
    the network as it came in."""
    network = Network()
    for node in "uvw":
        network.add_processor(node)
    marks = network.start_marks()
    expected = {
        frozenset("uv"): {real_source_key("u", "v")},
        frozenset("vw"): {real_source_key("w", "v")},
        frozenset("uw"): {real_source_key("v", "w"), ("rt", 1)},
    }
    network.replace_link_sources(expected)
    layout = network._links
    assert layout["u"]["v"] is layout["w"]["v"] == (REAL_EDGE,)
    assert set(layout["u"]["w"]) == {real_source_key("v", "w"), ("rt", 1)}
    assert network.export_link_sources() == expected
    assert network.link_sources("v", "u") == {real_source_key("u", "v")}
    assert network.has_link_source(real_source_key("u", "v"), "v", "u")
    assert not network.has_link_source(real_source_key("u", "w"), "u", "w")
    assert {frozenset(pair) for pair in marks.links} == set(expected)
    assert len(marks.links) == len(expected)
