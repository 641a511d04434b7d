"""The per-deletion hot path does work proportional to the repair, not the run.

Two properties the repair's cost bound (Lemma 4) relies on end to end: the
oracle's merge checks its helper registry in place instead of copying it
(the registry holds every helper port of the run), and the round loop ticks
only the participants with a timer due (most participants are idle in most
rounds).  Two more keep local work off an honest deletion: integrity tags
are computed only when somebody reads them (no liar, no descriptor
checksum), and per-move reads of the oracle build no networkx graph view.
And a deletion allocates only what the healed state keeps: the oracle and
the planner look their Port-keyed registries up by the plain pair, and the
healed-edge source counts key by pairs too.  It writes only what changes,
too: a repair's temporary edges are a permission, never links, so the link
table holds exactly the sourced links while a repair runs.
"""

import dataclasses
import gc
import inspect
import pickle
import random
from collections import Counter

import networkx.classes.graphviews as graphviews
import pytest

from repro.adversary import AttackSchedule, MaxDegreeDeletion
from repro.core.errors import ProtocolError
from repro.core.forgiving_graph import ForgivingGraph
from repro.core.ports import Port, sorted_nodes
from repro.distributed import merge, messages, simulator
from repro.distributed.faults import FaultSchedule, LinkFaultPolicy
from repro.distributed.merge import PieceSummary
from repro.distributed.messages import DeletionNotice, Probe
from repro.distributed.network import Network
from repro.distributed.processor import Processor, RepairContext, SpineRole
from repro.distributed.protocol import execute_repair, select_disjoint_victims
from repro.distributed.simulator import DistributedForgivingGraph

from network_helpers import connect
from repro.generators import make_graph


def _max_degree_attack(healer, deletions: int) -> None:
    strategy = MaxDegreeDeletion()
    for _ in range(deletions):
        healer.delete(strategy.choose_victim(healer))


class _UnwalkableRegistry(dict):
    """A helper registry that fails the run if anything walks it while armed."""

    armed = True

    def _guard(self) -> None:
        if self.armed:
            raise AssertionError("the helper registry was walked during a deletion")

    def keys(self):
        self._guard()
        return dict.keys(self)

    def values(self):
        self._guard()
        return dict.values(self)

    def items(self):
        self._guard()
        return dict.items(self)

    def __iter__(self):
        self._guard()
        return dict.__iter__(self)


def test_oracle_delete_never_walks_its_helper_registry():
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    engine = healer.engine
    registry = _UnwalkableRegistry(engine._rt_of_helper)
    engine._rt_of_helper = registry
    _max_degree_attack(healer, 24)
    assert len(registry) > 0  # the deletions did build and consult helpers
    registry.armed = False
    healer.verify_consistency()
    engine.check_invariants()


def test_deletions_leave_no_reference_cycles():
    """The oracle's strip unlinks the RT nodes it discards, and nothing else
    on the deletion path builds a reference cycle, so reference counting
    frees what a repair leaves behind: no garbage waits for a full
    collection, which walks the whole heap."""
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    strategy = MaxDegreeDeletion()
    for _ in range(5):
        healer.delete(strategy.choose_victim(healer))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(25):
            healer.delete(strategy.choose_victim(healer))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    healer.verify_consistency()
    healer.engine.check_invariants()


def _has_due_timer(processor: Processor, round_index: int) -> bool:
    """Whether one of ``Processor.tick``'s four timers is pending and due.

    Pending means not fired yet; a report still waiting for its probe is
    pending (it is retried every round until it can fire).
    """
    for context in processor.repairs.values():
        if (
            not context.stripped
            and context.strip_round is not None
            and context.strip_round <= round_index
        ):
            return True
        for role in context.spines:
            if (
                not role.report_sent
                and role.prev_hop is not None
                and role.report_round <= round_index
            ):
                return True
        if (
            context.is_anchor
            and not context.shipped
            and context.ship_round is not None
            and context.bt_parent is not None
            and context.ship_round <= round_index
        ):
            return True
        if (
            context.is_leader
            and context.outcome is None
            and context.decide_round is not None
            and context.decide_round <= round_index
        ):
            return True
    return False


def test_round_loop_ticks_only_processors_with_a_timer_due(monkeypatch):
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    visits = []
    idle = []
    original = Processor.tick

    def tick(self, round_index):
        visits.append(self.node_id)
        if not _has_due_timer(self, round_index):
            idle.append((self.node_id, round_index))
        return original(self, round_index)

    monkeypatch.setattr(Processor, "tick", tick)
    _max_degree_attack(healer, 20)
    assert visits
    assert idle == []
    healer.verify_consistency()


def test_report_waiting_for_a_late_probe_fires_in_the_round_it_lands(monkeypatch):
    """A probe landing after ``report_round`` releases the report in its own round."""
    # Every message on the a-b link arrives exactly one round late.
    schedule = FaultSchedule(per_link={("a", "b"): LinkFaultPolicy(delay=1.0, max_delay=1)})
    network = Network(fault_schedule=schedule)
    for node in ("a", "b", "c"):
        network.add_processor(node)
    connect(network, "a", "b")
    connect(network, "b", "c")
    role = SpineRole(rt_index=0, position=1, prev_hop="a", next_hop="c", report_round=2)
    network.processors["b"].install_repair(RepairContext(victim="v", spines=[role]))
    network.send(Probe(sender="a", receiver="b", deleted="v", hops=1, rt_index=0))

    rounds = []
    original_tick = network.tick

    def tick(round_index, participants):
        probed = role.probed  # after this round's delivery
        produced = original_tick(round_index, participants)
        rounds.append((round_index, probed, role.report_sent))
        return produced

    monkeypatch.setattr(network, "tick", tick)
    execute_repair(network, ["b"], deadline=role.report_round)
    landed = next(r for r, probed, _ in rounds if probed)
    sent = next(r for r, _, reported in rounds if reported)
    assert landed > role.report_round
    assert sent == landed


def _count_calls(monkeypatch, name, *modules):
    """Count calls to ``name`` through each module that binds it."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _verified_descriptors(monkeypatch):
    """Every descriptor the receive gate checks, in order."""
    seen = []
    original = Processor._verify

    def verify(message):
        for name in ("roots", "pieces", "records"):
            seen.extend(getattr(message, name, ()))
        return original(message)

    monkeypatch.setattr(Processor, "_verify", staticmethod(verify))
    return seen


def _max_degree_schedule(moves: int) -> AttackSchedule:
    return AttackSchedule(
        steps=moves, deletion_strategy=MaxDegreeDeletion(), delete_probability=1.0, seed=4
    )


def test_lossless_attack_computes_no_descriptor_checksum(monkeypatch):
    checksums = _count_calls(monkeypatch, "payload_checksum", merge, messages)
    verified = _verified_descriptors(monkeypatch)
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    assert len(list(_max_degree_schedule(20).play(healer))) == 20
    assert verified  # descriptors crossed the receive gate
    assert checksums == []
    healer.verify_consistency()


def test_lossless_batch_wave_computes_no_descriptor_checksum(monkeypatch):
    checksums = _count_calls(monkeypatch, "payload_checksum", merge, messages)
    verified = _verified_descriptors(monkeypatch)
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    victims = select_disjoint_victims(healer, sorted_nodes(healer.alive_nodes), limit=4)
    burst = healer.delete_batch(victims)
    assert len(victims) == 4 and burst.waves == 1
    assert verified
    assert checksums == []
    healer.verify_consistency()


def test_lossless_attack_builds_no_graph_view_per_move(monkeypatch):
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    moves = _max_degree_schedule(21).play(healer)
    next(moves)  # the first move binds the victim tracker and the schedule
    views = _count_calls(monkeypatch, "generic_graph_view", graphviews)
    assert len(list(moves)) == 20
    assert views == []
    healer.verify_consistency()


def test_repairs_write_no_scaffold_link(monkeypatch):
    """Through every round of a 20-move max-degree attack, before and after
    its deliveries, every link in the table has a source: a repair's traffic
    between unlinked processors writes no link, and a link goes with its
    last source.  An unlinked send inside a repair leaves no link, and
    outside one it still raises."""
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    network = healer.network
    deliver_round, send = Network.deliver_round, Network.send
    unsourced = []
    rounds = []
    unlinked = []

    def spied_send(self, message):
        sender, receiver = message.sender, message.receiver
        if sender != receiver and receiver not in self._links.get(sender, {}):
            unlinked.append(message.kind)
        send(self, message)

    def check(self):
        unsourced.extend(
            (node, neighbor)
            for node, links in self._links.items()
            for neighbor, keys in links.items()
            if not keys
        )

    def spied(self):
        check(self)
        delivered = deliver_round(self)
        check(self)
        rounds.append(delivered)
        return delivered

    monkeypatch.setattr(Network, "deliver_round", spied)
    monkeypatch.setattr(Network, "send", spied_send)
    assert len(list(_max_degree_schedule(20).play(healer))) == 20
    assert len(rounds) > 20 and sum(rounds) > 0
    assert unlinked  # the repairs did talk over temporary edges
    assert unsourced == []
    healer.verify_consistency()

    u, v = next(
        (u, v)
        for u in sorted_nodes(network.processors)
        for v in sorted_nodes(network.processors)
        if u != v and not network.are_linked(u, v)
    )
    links = network.links()
    network.begin_scaffold()
    network.send(DeletionNotice(sender=u, receiver=v, deleted=u))
    network.end_scaffold()
    assert network.links() == links and network.in_flight == 1
    with pytest.raises(ProtocolError):
        network.send(DeletionNotice(sender=u, receiver=v, deleted=u))
    assert network.in_flight == 1


def test_piece_summary_hashes_its_fields_once():
    port, other = Port(processor=1, neighbor=2), Port(processor=3, neighbor=4)
    summary = PieceSummary(
        root_port=port, root_is_leaf=False, num_leaves=2, height=1, representative=other
    )
    # The hand-written constructor takes every field, in field order, and
    # hashes all of them: a field added to the class alone fails here.
    names = [f.name for f in dataclasses.fields(PieceSummary)]
    assert list(inspect.signature(PieceSummary).parameters) == names
    assert hash(summary) == hash(tuple(getattr(summary, name) for name in names))
    assert hash(summary) == hash((port, False, 2, 1, other))
    # str hashes differ between processes: the cached hash is not pickled.
    assert "_hash" not in summary.__getstate__()
    copy = pickle.loads(pickle.dumps(summary))
    assert copy == summary and hash(copy) == hash(summary)
    assert copy.identity == summary.identity and "checksum" not in copy.__dict__
    # A frozen checksum survives the round trip.
    frozen = summary.checksum
    copy = pickle.loads(pickle.dumps(summary))
    assert copy.__dict__["checksum"] == frozen and copy.checksum_valid()


def test_deletions_build_ports_only_for_new_trivial_pieces(monkeypatch):
    """The oracle's ``delete`` and ``plan_repair`` look the port registries up
    by the plain pair a Port equals and hashes as, so the only Ports they
    construct are kept: one per alive ``G'`` neighbour of the victim, built
    by the survey ``plan_repair`` takes, which both the planner's trivial
    piece and the oracle's new trivial leaf hold.  The oracle, handed that
    survey, builds none."""
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    engine = healer.engine
    built = Counter()
    expected = Counter()
    inside = []
    new = Port.__new__

    def counted_new(cls, processor, neighbor):
        if inside:
            built[inside[-1]] += 1
        return new(cls, processor, neighbor)

    def counted(name, function):
        def call(*args, **kwargs):
            inside.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()

        return call

    plan, delete = simulator.plan_repair, ForgivingGraph.delete

    def plan_repair(engine, victim):
        alive = sum(1 for node in engine.g_prime_neighbors(victim) if engine.is_alive(node))
        expected["plan_repair"] += alive
        return counted("plan_repair", plan)(engine, victim)

    monkeypatch.setattr(Port, "__new__", counted_new)
    monkeypatch.setattr(simulator, "plan_repair", plan_repair)
    monkeypatch.setattr(ForgivingGraph, "delete", counted("delete", delete))
    assert len(list(_max_degree_schedule(20).play(healer))) == 20
    assert expected["plan_repair"] > 0 and len(healer.cost_reports) == 20
    assert built == expected
    monkeypatch.undo()
    healer.verify_consistency()
    engine.check_invariants()


def _reference_multiplicities(engine):
    """Each healed edge's sources counted from scratch: surviving real edges
    and RT virtual edges between two processors."""
    counts = Counter()
    for u, v in engine._g_prime.edges:
        if engine.is_alive(u) and engine.is_alive(v):
            counts[frozenset((u, v))] += 1
    for rt in engine._rts.values():
        for parent, child in rt.virtual_edges():
            if parent.processor != child.processor:
                counts[frozenset((parent.processor, child.processor))] += 1
    return counts


def test_edge_multiplicity_counts_every_source_from_both_orientations(monkeypatch):
    """Churn that stacks several sources on one healed edge, added as
    ``(u, v)`` and as ``(v, u)``, and removes them again: the pair-keyed
    extra-source counts read the reference count either way round."""
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    engine = healer.engine
    orientations = {}
    add = ForgivingGraph._edge_source_added

    def added(self, u, v):
        if self._actual.has_edge(u, v):  # a source beyond the first
            orientations.setdefault(frozenset((u, v)), set()).add((u, v))
        add(self, u, v)

    monkeypatch.setattr(ForgivingGraph, "_edge_source_added", added)
    strategy = MaxDegreeDeletion()
    rng = random.Random(4)
    for step in range(60):
        if step % 3 == 2:
            healer.insert(1_000 + step, rng.sample(sorted_nodes(engine.alive_nodes), 3))
        else:
            healer.delete(strategy.choose_victim(healer))
        reference = _reference_multiplicities(engine)
        assert set(reference) == {frozenset(edge) for edge in engine.actual_view().edges}
        for edge, count in reference.items():
            u, v = edge
            assert engine.edge_multiplicity(u, v) == engine.edge_multiplicity(v, u) == count
            assert healer.network.link_source_count(u, v) == count
        extra = engine._extra_sources
        assert all(extra[(v, u)] == count for (u, v), count in extra.items())
        assert len(extra) == 2 * sum(1 for count in reference.values() if count > 1)
    assert max(reference.values()) >= 3
    stacked = [edge for edge, seen in orientations.items() if len(seen) == 2]
    assert any(reference.get(edge, 0) >= 2 for edge in stacked)
    assert engine.edge_multiplicity(0, 0) == 0
