"""Network accessors, link sources, the oracle cross-check and sharded sweeps.

Pinned here: the unsorted fast accessors agree with their canonically ordered
variants as sets; a churned network matches the oracle, replays identically
under an order-preserving relabeling of the node ids, and keeps every
removed or quarantined identifier in its census; the link-source table's
lifecycle (idempotent adds, the link vanishing with its last source or its
endpoint, an open repair talking without writing a link, the ``frozenset``
wire format), strict links,
the cadence-gated oracle cross-check inside ``AttackSession``, and the
plan-footprint independence machinery behind the sharded sweeps.
"""

import dataclasses
import inspect

import networkx as nx
import numpy as np
import pytest

from repro.core.errors import ProtocolError
from repro.core.ports import node_order_key
from repro.distributed import DistributedForgivingGraph, Network
from repro.distributed.messages import DeletionNotice
from repro.engine import AttackSession
from repro.adversary import MaxDegreeDeletion, churn_schedule
from repro.experiments import (
    AttackConfig,
    independent_repair_batches,
    repair_footprint,
    sweep_large_n,
)
from repro.generators import make_graph

from network_helpers import connect, disconnect, pending_messages


def _churned_healer(n: int, seed: int = 9):
    """A lossless healer after one delete-heavy churn."""
    graph = make_graph("power_law", n, seed=seed)
    healer = DistributedForgivingGraph.from_graph(graph)
    rng = np.random.default_rng(seed)
    strategy = MaxDegreeDeletion()
    fresh = 10_000
    for _ in range(n // 2):
        if rng.random() < 0.7:
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 4:
                continue
            healer.delete(victim)
        else:
            alive = sorted(
                (x for x in healer.alive_nodes if healer.network.has_processor(x)),
                key=repr,
            )
            picks = rng.choice(len(alive), size=min(2, len(alive)), replace=False)
            healer.insert(fresh, attach_to=[alive[int(i)] for i in picks])
            fresh += 1
    return healer


def _relabeled_churn(offset: int, steps: int = 40, seed: int = 23):
    """One seeded churn on ``power_law(40)`` with every node id shifted by ``offset``.

    Moves pick nodes by position in ``node_order_key`` order, which an
    order-preserving relabeling leaves unchanged, so every offset replays
    the same churn.
    """
    graph = make_graph("power_law", 40, seed=seed)
    healer = DistributedForgivingGraph.from_graph(
        nx.relabel_nodes(graph, {node: node + offset for node in graph})
    )
    rng = np.random.default_rng(seed)
    fresh = 10_000
    for _ in range(steps):
        alive = sorted(
            (x for x in healer.alive_nodes if healer.network.has_processor(x)), key=node_order_key
        )
        if rng.random() < 0.6 and len(alive) > 4:
            healer.delete(alive[int(rng.integers(len(alive)))])
        else:
            picks = rng.choice(len(alive), size=min(2, len(alive)), replace=False)
            healer.insert(fresh + offset, attach_to=[alive[int(i)] for i in picks])
            fresh += 1
    return healer


class TestChurnedNetwork:
    """The network after churn: oracle agreement, relabeling, census."""

    def test_lossless_churn_matches_oracle(self):
        healer = _churned_healer(n=60)
        assert healer.cost_reports
        healer.verify_consistency()

    def test_churn_is_invariant_under_order_preserving_relabeling(self):
        offset = 1_000_000
        plain, shifted = _relabeled_churn(0), _relabeled_churn(offset)
        assert plain.cost_reports
        # Same ledgers (the victim named in its own labels), same healed links.
        assert [
            dataclasses.replace(r, deleted_node=r.deleted_node - offset)
            for r in shifted.cost_reports
        ] == plain.cost_reports
        assert {frozenset(x - offset for x in link) for link in shifted.network.iter_links()} == {
            frozenset(link) for link in plain.network.iter_links()
        }

    def test_census_keeps_quarantined_and_removed_identifiers(self):
        healer = _churned_healer(n=40)
        network = healer.network
        deleted = [r.deleted_node for r in healer.cost_reports]
        liars = sorted(network.processors, key=node_order_key)[:2]
        census = network.n_ever
        for node in liars:
            network.quarantine(node)
            network.quarantine(node)  # idempotent
        assert network.n_ever == census == healer.nodes_ever
        assert network.quarantined == set(liars)
        assert deleted
        for node in deleted + liars:
            assert network.ever_had_processor(node)
            assert not network.has_processor(node)
        assert not network.ever_had_processor("never-seen")

    def test_quarantine_drops_links_and_their_sources(self):
        network = _churned_healer(n=40).network
        liar = max(
            sorted(network.processors, key=node_order_key),
            key=lambda node: len(network.neighbors(node)),
        )
        neighbors = network.neighbors(liar)
        assert neighbors
        assert any(liar in link for link in network.export_link_sources())
        network.quarantine(liar)
        assert all(liar not in link for link in network.export_link_sources())
        assert all(liar not in pair for pair in network.iter_links())
        for node in neighbors:
            assert liar not in network.neighbors(node)


class TestUnsortedAccessors:
    """Satellite: fast unsorted accessors agree with the canonically ordered ones."""

    def _network(self):
        return _churned_healer(n=40).network

    def test_iter_links_matches_links_as_sets(self):
        network = self._network()
        ordered = network.links()
        unsorted_pairs = list(network.iter_links())
        assert len(unsorted_pairs) == len(ordered) == network.num_links()
        assert {frozenset(pair) for pair in unsorted_pairs} == {
            frozenset(pair) for pair in ordered
        }

    def test_accessors_on_a_small_network(self):
        network = Network()
        for node in "abc":
            network.add_processor(node)
        connect(network, "a", "b")
        connect(network, "b", "c")
        assert {frozenset(p) for p in network.iter_links()} == {
            frozenset("ab"),
            frozenset("bc"),
        }
        assert network.neighbors("b") == ["a", "c"]


class TestCrossCheckCadence:
    """Satellite: the opt-in oracle cross-check rides the measurement tick."""

    def test_gate_runs_on_measurement_cadence(self):
        healer = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 30, seed=3))
        session = AttackSession(
            healer,
            churn_schedule(steps=24, seed=3),
            measure_every=6,
            cross_check_every=2,
        )
        session.run()
        # 24 steps / measure_every=6 -> 4 periodic ticks + the final one = 5
        # measurements; every 2nd runs the oracle diff.
        assert session.cross_checks_run == 2
        assert session.result is not None

    def test_gate_detects_corruption(self):
        healer = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 20, seed=4))
        session = AttackSession(
            healer,
            churn_schedule(steps=8, seed=4),
            measure_every=4,
            cross_check_every=1,
        )
        stream = session.stream()
        next(stream)
        # Corrupt the message-built topology behind the oracle's back: the
        # next cadence tick must catch it.
        victim_link = next(iter(healer.network.iter_links()))
        disconnect(healer.network, *victim_link)
        from repro.core.errors import InvariantViolationError

        with pytest.raises(InvariantViolationError):
            for _ in stream:
                pass

    def test_default_is_off(self):
        healer = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 16, seed=5))
        session = AttackSession(healer, churn_schedule(steps=8, seed=5), measure_every=2)
        session.run()
        assert session.cross_checks_run == 0


class TestShardedSweeps:
    """Plan-footprint independence and the sharded large-n sweep path."""

    def test_repair_footprint_is_local(self):
        healer = DistributedForgivingGraph.from_graph(nx.path_graph(10))
        footprint = repair_footprint(healer, 4)
        assert 4 in footprint
        assert footprint <= {3, 4, 5}

    def test_independent_batches_are_pairwise_disjoint(self):
        healer = DistributedForgivingGraph.from_graph(nx.path_graph(20))
        victims = [3, 5, 10, 16]
        footprints = [(v, repair_footprint(healer, v)) for v in victims]
        batches = independent_repair_batches(footprints)
        by_victim = dict(footprints)
        for batch in batches:
            for i, a in enumerate(batch):
                for b in batch[i + 1 :]:
                    assert by_victim[a].isdisjoint(by_victim[b])
        assert sorted(v for batch in batches for v in batch) == victims
        # 3 and 5 share processor 4, so they must land in different batches.
        assert not any(3 in batch and 5 in batch for batch in batches)

    def test_sweep_large_n_is_deterministic_and_covers_all_nodes(self):
        kwargs = dict(attack=None, seed=5)
        first = sweep_large_n("dense-smoke", "erdos_renyi", 60, 3, max_workers=None, **kwargs)
        second = sweep_large_n("dense-smoke", "erdos_renyi", 60, 3, max_workers=None, **kwargs)
        # The shards over a process pool give the serial rows.
        pooled = sweep_large_n("dense-smoke", "erdos_renyi", 60, 3, max_workers=2, **kwargs)

        def drop_clock(rows):
            return [{k: v for k, v in row.items() if k != "seconds"} for row in rows]

        assert drop_clock(first) == drop_clock(second) == drop_clock(pooled)
        assert len(first) == 3
        assert all(row["connected"] for row in first)

    def test_shared_network_rates_divide_by_churn_time_only(self):
        (row,) = sweep_large_n(
            "shared-smoke",
            "erdos_renyi",
            60,
            1,
            attack=AttackConfig(strategy="random", delete_fraction=0.1, delete_probability=1.0),
            seed=3,
            shared_network=True,
        )
        assert row["deletions"] > 0 and row["connected"]
        assert row["deletions"] >= row["deletion_target"]
        assert row["deletions_per_sec"] == round(row["deletions"] / row["churn_seconds"], 2)
        # Build time is reported on its own and feeds no rate.
        assert [key for key in row if key.endswith("_per_sec")] == ["deletions_per_sec"]
        assert "seconds" not in row
        assert row["build_seconds"] >= 0 and row["verify_seconds"] >= 0

    def test_sweep_large_n_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            sweep_large_n("bad", "erdos_renyi", 60, 0)
        with pytest.raises(ValueError):
            sweep_large_n("bad", "erdos_renyi", 6, 4)


class TestLinkSources:
    """The link-source table: one source-key tuple per link, keyed by its endpoints."""

    def test_source_lifecycle(self):
        network = Network()
        for node in ("u", "v"):
            network.add_processor(node)
        key = ("real", "u", "v")
        assert not network.are_linked("u", "v")
        network.add_link_source(key, "u", "v")
        assert network.are_linked("u", "v")
        assert network.has_link_source(key, "u", "v")
        assert network.link_source_count("u", "v") == 1
        network.add_link_source(key, "u", "v")  # idempotent
        assert network.link_source_count("u", "v") == 1
        network.remove_link_source(key, "u", "v")
        assert not network.are_linked("u", "v")
        assert network.link_source_count("u", "v") == 0

    def test_replace_link_sources_accepts_frozenset_wire_format(self):
        network = Network()
        for node in ("u", "v", "w"):
            network.add_processor(node)
        connect(network, "u", "v")
        network.replace_link_sources({frozenset(("u", "v")): {("real", "u", "v")}})
        assert network.link_source_count("u", "v") == 1
        assert network.link_source_count("v", "w") == 0
        assert network.export_link_sources() == {frozenset(("u", "v")): {("real", "u", "v")}}

    def test_remove_processor_drops_its_links_and_sources(self):
        network = Network()
        for node in "uvw":
            network.add_processor(node)
        network.add_link_source(("real", "u", "v"), "u", "v")
        network.add_link_source(("real", "v", "w"), "v", "w")
        network.remove_processor("v")
        assert network.export_link_sources() == {}
        assert network.num_links() == 0
        network.add_link_source(("real", "u", "v"), "u", "v")  # dead endpoint: ignored
        assert network.link_source_count("u", "v") == 0
        assert not network.are_linked("u", "v")

    def test_end_scaffold_keeps_only_sourced_links(self):
        """An open repair lets two live processors talk without writing a
        link, a link goes with its last source even then, and closing the
        repair leaves the sourced links as they are and unlinked sends
        raising again."""
        network = Network()
        for node in "uvw":
            network.add_processor(node)
        network.begin_scaffold()
        network.send(DeletionNotice(sender="u", receiver="v", deleted="x"))
        assert not network.are_linked("u", "v")
        key = ("real", "v", "w")
        network.add_link_source(key, "v", "w")
        network.remove_link_source(key, "v", "w")
        assert not network.are_linked("v", "w")  # gone with its last source
        network.send(DeletionNotice(sender="w", receiver="v", deleted="x"))
        network.add_link_source(key, "v", "w")
        assert network.links() == {("v", "w")}
        network.end_scaffold()
        assert network.links() == {("v", "w")}
        assert pending_messages(network) == 2
        with pytest.raises(ProtocolError):
            network.send(DeletionNotice(sender="u", receiver="v", deleted="x"))
        network.send(DeletionNotice(sender="v", receiver="w", deleted="x"))
        assert pending_messages(network) == 3

    def test_dense_option_is_gone(self):
        with pytest.raises(TypeError):
            Network(dense=True)
        with pytest.raises(TypeError):
            DistributedForgivingGraph(dense=True)
        with pytest.raises(TypeError):
            DistributedForgivingGraph(check_invariants=True)
        with pytest.raises(TypeError):
            DistributedForgivingGraph(receive_trace_limit=8)
        with pytest.raises(TypeError):
            Network(strict_links=False)
        # The healer's whole option set; any other keyword raises TypeError.
        assert list(inspect.signature(DistributedForgivingGraph).parameters) == [
            "fault_schedule",
            "auto_reconverge",
        ]

    def test_strict_links_still_enforced(self):
        network = Network()
        for node in ("u", "v"):
            network.add_processor(node)
        with pytest.raises(ProtocolError):
            network.send(DeletionNotice(sender="u", receiver="v", deleted="x"))
