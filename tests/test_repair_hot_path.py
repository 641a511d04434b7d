"""The per-deletion hot path does work proportional to the repair, not the run.

Two properties the repair's cost bound (Lemma 4) relies on end to end: the
oracle's merge checks its helper registry in place instead of copying it
(the registry holds every helper port of the run), and the round loop ticks
only the participants with a timer due (most participants are idle in most
rounds).  Two more keep local work off an honest deletion: integrity tags
are computed only when somebody reads them (no liar, no descriptor
checksum), and per-move reads of the oracle build no networkx graph view.
"""

import gc
import pickle

import networkx.classes.graphviews as graphviews

from repro.adversary import AttackSchedule, MaxDegreeDeletion
from repro.core.ports import Port, sorted_nodes
from repro.distributed import merge, messages
from repro.distributed.faults import FaultSchedule, LinkFaultPolicy
from repro.distributed.merge import PieceSummary
from repro.distributed.messages import Probe
from repro.distributed.network import Network
from repro.distributed.processor import Processor, RepairContext, SpineRole
from repro.distributed.protocol import execute_repair, select_disjoint_victims
from repro.distributed.simulator import DistributedForgivingGraph
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
    network.connect("a", "b")
    network.connect("b", "c")
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


def test_piece_summary_hashes_its_fields_once():
    port, other = Port(processor=1, neighbor=2), Port(processor=3, neighbor=4)
    summary = PieceSummary(
        root_port=port, root_is_leaf=False, num_leaves=2, height=1, representative=other
    )
    assert hash(summary) == hash((port, False, 2, 1, other))
    # str hashes differ between processes: the cached hash is not pickled.
    assert "_hash" not in summary.__getstate__()
    copy = pickle.loads(pickle.dumps(summary))
    assert copy == summary and hash(copy) == hash(summary)
