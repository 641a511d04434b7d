"""Unit tests for the baseline healers and the healer registry."""

import networkx as nx
import pytest

from repro.baselines import (
    CliqueHealing,
    CycleHealing,
    ForgivingTreeHealing,
    HealerSpec,
    NoHealing,
    SurrogateHealing,
    available_healers,
)
from repro.core.errors import (
    ConfigurationError,
    DeletedNodeError,
    DuplicateNodeError,
    UnknownNodeError,
)
from repro.generators import make_graph


ALL_BASELINES = [NoHealing, CycleHealing, CliqueHealing, SurrogateHealing, ForgivingTreeHealing]


class TestSharedBehaviour:
    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_construction_and_views(self, cls, small_er):
        healer = cls.from_graph(small_er)
        assert healer.num_alive == small_er.number_of_nodes()
        assert set(healer.actual_graph().edges) == set(small_er.edges)
        assert set(healer.g_prime_view().edges) == set(small_er.edges)

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_insert_and_delete_bookkeeping(self, cls):
        healer = cls.from_edges([(0, 1), (1, 2), (2, 0)])
        healer.insert(7, attach_to=[0, 2])
        assert healer.is_alive(7)
        healer.delete(1)
        assert not healer.is_alive(1)
        assert 1 in healer.g_prime_view()
        assert 1 not in healer.actual_graph()
        assert healer.deleted_nodes == {1}

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_error_conditions(self, cls):
        healer = cls.from_edges([(0, 1), (1, 2)])
        with pytest.raises(UnknownNodeError):
            healer.delete(99)
        healer.delete(1)
        with pytest.raises(DeletedNodeError):
            healer.delete(1)
        with pytest.raises(DuplicateNodeError):
            healer.insert(0)
        with pytest.raises(UnknownNodeError):
            healer.insert(50, attach_to=[1])

    @pytest.mark.parametrize("cls", ALL_BASELINES)
    def test_g_prime_degree(self, cls):
        healer = cls.from_edges([(0, 1), (0, 2), (0, 3)])
        healer.delete(1)
        assert healer.g_prime_degree(0) == 3


class TestNoHealing:
    def test_disconnects_on_cut_vertex(self):
        healer = NoHealing.from_edges([(0, 1), (1, 2)])
        healer.delete(1)
        assert not nx.has_path(healer.actual_graph(), 0, 2)

    def test_degree_factor_never_exceeds_one(self, power_law_60):
        healer = NoHealing.from_graph(power_law_60)
        for victim in sorted(healer.alive_nodes)[:30]:
            if healer.num_alive > 2:
                healer.delete(victim)
        assert healer.degree_increase_factor() <= 1.0


class TestCycleHealing:
    def test_neighbors_form_a_cycle(self):
        healer = CycleHealing.from_edges([(0, i) for i in range(1, 6)])
        healer.delete(0)
        healed = healer.actual_graph()
        assert nx.is_connected(healed)
        assert all(d == 2 for _, d in healed.degree())

    def test_two_neighbors_single_edge(self):
        healer = CycleHealing.from_edges([(0, 1), (0, 2)])
        healer.delete(0)
        assert healer.actual_graph().number_of_edges() == 1

    def test_degree_increase_is_moderate(self, power_law_60):
        healer = CycleHealing.from_graph(power_law_60)
        for victim in sorted(healer.alive_nodes)[:30]:
            if healer.num_alive > 2:
                healer.delete(victim)
        # Cycle healing adds at most 2 edges per adjacent deletion, so the
        # factor stays far below the clique healer's blow-up even though it
        # is not bounded by the Forgiving Graph's constant.
        assert healer.degree_increase_factor() <= 8.0

    def test_stretch_can_blow_up_on_repeated_hub_deletion(self):
        """The weakness Theorem 2 predicts: the ring around the hole keeps growing."""
        star = make_graph("star", 64)
        healer = CycleHealing.from_graph(star)
        healer.delete(0)
        healed = healer.actual_graph()
        # survivors form one large cycle: diameter ~ n/2, while G' distance was 2.
        assert nx.diameter(healed) >= healer.num_alive // 2


class TestCliqueHealing:
    def test_neighbors_form_a_clique(self):
        healer = CliqueHealing.from_edges([(0, i) for i in range(1, 5)])
        healer.delete(0)
        healed = healer.actual_graph()
        assert healed.number_of_edges() == 6  # C(4, 2)

    def test_degree_explosion_on_star(self):
        healer = CliqueHealing.from_graph(make_graph("star", 40))
        healer.delete(0)
        assert healer.degree_increase_factor() >= 30


class TestSurrogateHealing:
    def test_single_surrogate_absorbs_all_edges(self):
        healer = SurrogateHealing.from_edges([(0, i) for i in range(1, 8)])
        healer.delete(0)
        healed = healer.actual_graph()
        degrees = sorted(dict(healed.degree()).values(), reverse=True)
        assert degrees[0] == 6  # one node connected to all others
        assert nx.is_connected(healed)

    def test_no_action_for_single_neighbor(self):
        healer = SurrogateHealing.from_edges([(0, 1), (1, 2)])
        healer.delete(0)
        assert healer.actual_graph().number_of_edges() == 1


class TestForgivingTree:
    def test_spanning_structure_stays_a_forest(self, power_law_60):
        healer = ForgivingTreeHealing.from_graph(power_law_60)
        for victim in sorted(healer.alive_nodes)[:35]:
            if healer.num_alive > 2:
                healer.delete(victim)
        assert nx.is_forest(healer.spanning_tree())

    def test_connectivity_preserved(self, power_law_60):
        healer = ForgivingTreeHealing.from_graph(power_law_60)
        for victim in sorted(healer.alive_nodes)[:35]:
            if healer.num_alive > 2:
                healer.delete(victim)
        assert nx.is_connected(healer.actual_graph())

    def test_degree_overhead_is_small(self, power_law_60):
        healer = ForgivingTreeHealing.from_graph(power_law_60)
        for victim in sorted(healer.alive_nodes)[:35]:
            if healer.num_alive > 2:
                healer.delete(victim)
        g_prime = healer.g_prime_view()
        healed = healer.actual_graph()
        overheads = [
            healed.degree[v] - g_prime.degree[v] for v in healer.alive_nodes
        ]
        # The Forgiving Tree promises an additive O(1) overhead; our
        # reproduction stays within a small constant as well.
        assert max(overheads) <= 6

    def test_hub_deletion_keeps_local_distances_logarithmic(self):
        healer = ForgivingTreeHealing.from_graph(make_graph("star", 65))
        healer.delete(0)
        healed = healer.actual_graph()
        assert nx.is_connected(healed)
        assert nx.diameter(healed) <= 16  # ~2 log2(64)

    def test_insert_attaches_to_tree(self):
        healer = ForgivingTreeHealing.from_edges([(0, 1), (1, 2)])
        healer.insert(9, attach_to=[2, 0])
        assert 9 in healer.spanning_tree()
        assert healer.spanning_tree().degree[9] == 1

    def test_helper_roles_tracked(self):
        healer = ForgivingTreeHealing.from_graph(make_graph("star", 16))
        healer.delete(0)
        roles = healer.helper_roles()
        assert sum(roles.values()) >= 1
        assert all(node in healer.alive_nodes for node in roles)


class TestRegistry:
    def test_available_healers_contains_all(self):
        names = available_healers()
        assert "forgiving_graph" in names
        assert {"no_heal", "cycle_heal", "clique_heal", "surrogate_heal", "forgiving_tree"} <= set(names)

    def test_spec_builds_working_objects(self, small_er):
        for name in available_healers():
            healer = HealerSpec(name).build(small_er)
            victim = sorted(healer.alive_nodes)[0]
            healer.delete(victim)
            assert not healer.is_alive(victim)

    def test_spec_build_does_not_mutate_input(self, small_er):
        edges_before = set(small_er.edges)
        healer = HealerSpec("clique_heal").build(small_er)
        healer.delete(sorted(healer.alive_nodes)[0])
        assert set(small_er.edges) == edges_before

    def test_unknown_healer(self, small_er):
        with pytest.raises(ConfigurationError):
            HealerSpec("magic_heal").build(small_er)
