"""Tests for the merge-step ablation baseline (``unmerged_rt``).

The ablation exists to show *why* the Forgiving Graph merges reconstruction
trees: without merging, sustained attacks pile virtual roles onto the same
survivors and the degree guarantee is lost, while connectivity and local
distances remain fine.
"""

import networkx as nx
from repro.adversary import MaxDegreeDeletion, deletion_only_schedule
from repro.baselines import HealerSpec, UnmergedRTHealing, available_healers
from repro.generators import make_graph


def test_registered_in_registry():
    assert "unmerged_rt" in available_healers()


def test_single_deletion_behaves_like_a_reconstruction_tree():
    healer = UnmergedRTHealing.from_edges([(0, i) for i in range(1, 17)])
    healer.delete(0)
    healed = healer.actual_graph()
    assert nx.is_connected(healed)
    assert nx.diameter(healed) <= 8  # 2 * log2(16): same local guarantee as an RT
    assert max(dict(healed.degree()).values()) <= 4


def test_connectivity_is_preserved_under_attack(power_law_60):
    healer = UnmergedRTHealing.from_graph(power_law_60)
    deletion_only_schedule(steps=40, strategy=MaxDegreeDeletion(), seed=0).run(healer)
    assert nx.is_connected(healer.actual_graph())


def test_degree_guarantee_is_lost_without_merging():
    """The ablation's whole point: sustained attack breaks the constant-factor bound."""
    graph = make_graph("power_law", 150, seed=7)
    merged = HealerSpec("forgiving_graph").build(graph)
    unmerged = HealerSpec("unmerged_rt").build(graph)
    for healer in (merged, unmerged):
        deletion_only_schedule(steps=90, strategy=MaxDegreeDeletion(), seed=1).run(healer)
    assert merged.degree_increase_factor() <= 4.0 + 1e-9
    assert unmerged.degree_increase_factor() > merged.degree_increase_factor()
    assert unmerged.degree_increase_factor() > 5.0
