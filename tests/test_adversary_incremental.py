"""Randomized-churn equivalence of incremental adversary structures.

The heap/journal-based targeted strategies must pick *exactly* the node the
retained sorted reference implementations pick, at every step of arbitrary
churn.  These tests drive a shared healer through randomized insert/delete
sequences, querying both implementations before each move.
"""

import numpy as np
import pytest

from repro import ForgivingGraph
from repro.adversary import SurvivorDegreeTracker
from repro.adversary.strategies import (
    MaxDegreeDeletion,
    MaxDegreeDeletionReference,
    MinDegreeDeletion,
    MinDegreeDeletionReference,
    StarInsertion,
    StarInsertionReference,
    available_deletion_strategies,
    make_deletion_strategy,
)
from repro.baselines import HealerSpec
from repro.generators import make_graph


def churn(fg, rng, steps, pick_victim, delete_probability=0.6, fresh_start=10_000):
    """Drive ``fg`` through randomized churn, yielding before every move."""
    fresh = fresh_start
    for step in range(steps):
        yield step
        if rng.random() < delete_probability and fg.num_alive > 3:
            victim = pick_victim()
            if victim is not None:
                fg.delete(victim)
        else:
            fresh += 1
            alive = sorted(fg.alive_nodes, key=repr)
            count = min(int(rng.integers(1, 4)), len(alive))
            picks = [alive[i] for i in rng.choice(len(alive), size=count, replace=False)]
            fg.insert(fresh, attach_to=picks)


@pytest.mark.parametrize(
    "incremental_cls,reference_cls",
    [
        (MaxDegreeDeletion, MaxDegreeDeletionReference),
        (MinDegreeDeletion, MinDegreeDeletionReference),
    ],
)
@pytest.mark.parametrize("topology,seed", [("power_law", 7), ("erdos_renyi", 11)])
def test_deletion_equivalence_under_churn(incremental_cls, reference_cls, topology, seed):
    fg = ForgivingGraph.from_graph(make_graph(topology, 80, seed=seed))
    incremental, reference = incremental_cls(), reference_cls()
    rng = np.random.default_rng(seed)
    choice = {}

    def pick():
        choice["victim"] = incremental.choose_victim(fg)
        return choice["victim"]

    for step in churn(fg, rng, steps=120, pick_victim=pick):
        fast = incremental.choose_victim(fg)
        slow = reference.choose_victim(fg)
        assert fast == slow, f"divergence at step {step}: {fast!r} != {slow!r}"


def test_star_insertion_equivalence_under_churn():
    fg = ForgivingGraph.from_graph(make_graph("power_law", 60, seed=3))
    incremental, reference = StarInsertion(), StarInsertionReference()
    rng = np.random.default_rng(3)
    deleter = MaxDegreeDeletion()

    for step in churn(fg, rng, steps=100, pick_victim=lambda: deleter.choose_victim(fg)):
        assert incremental.choose_attachments(fg) == reference.choose_attachments(fg), (
            f"divergence at step {step}"
        )


def test_tracker_rebinds_to_a_different_healer():
    a = ForgivingGraph.from_graph(make_graph("star", 10))
    b = ForgivingGraph.from_graph(make_graph("ring", 10))
    strategy = MaxDegreeDeletion()
    assert strategy.choose_victim(a) == 0  # the hub
    # Same strategy object pointed at a different healer: must re-seed.
    assert strategy.choose_victim(b) in b.alive_nodes
    b.delete(strategy.choose_victim(b))
    assert strategy.choose_victim(b) in b.alive_nodes


def test_tracker_supports_detection():
    fg = ForgivingGraph.from_graph(make_graph("ring", 8))
    assert SurvivorDegreeTracker.supports(fg)
    baseline = HealerSpec("no_heal").build(make_graph("ring", 8))
    assert not SurvivorDegreeTracker.supports(baseline)


def test_incremental_strategies_fall_back_on_baselines():
    """Baselines expose no journal: strategies silently use the reference scan."""
    graph = make_graph("star", 12)
    healer = HealerSpec("cycle_heal").build(graph)
    assert MaxDegreeDeletion().choose_victim(healer) == 0
    victim = MinDegreeDeletion().choose_victim(healer)
    assert victim in healer.alive_nodes and victim != 0


def test_reference_strategies_are_registered():
    names = available_deletion_strategies()
    assert "max_degree_reference" in names
    assert "min_degree_reference" in names
    fg = ForgivingGraph.from_graph(make_graph("star", 10))
    assert make_deletion_strategy("max_degree_reference").choose_victim(fg) == 0


def test_degree_touch_log_grows_with_repairs():
    fg = ForgivingGraph.from_graph(make_graph("star", 16))
    before = len(fg.degree_touch_log)
    fg.delete(0)
    assert len(fg.degree_touch_log) > before
    # Insertion journals the newcomer even without attachments being edges yet.
    mid = len(fg.degree_touch_log)
    fg.insert("fresh", attach_to=[1])
    assert len(fg.degree_touch_log) > mid


def test_a_drain_pushes_only_survivors_whose_degree_changed():
    """A drain whose touched survivors all kept their degree pushes
    nothing, and a repair's drain pushes exactly the touched survivors whose
    degree moved since the last pick (every survivor's last entry carries
    its degree at that pick)."""
    fg = ForgivingGraph.from_graph(make_graph("power_law", 80, seed=7))
    tracker = SurvivorDegreeTracker(largest=True)
    victim = tracker.pick(fg)
    pushed = tracker._seq
    for node in sorted(fg.alive_nodes, key=repr)[:10]:
        fg.degree_touch_log.append(node)
    assert tracker.pick(fg) == victim
    assert tracker._seq == pushed
    for _ in range(3):
        before = {node: fg.actual_degree(node) for node in fg.alive_nodes}
        cursor = len(fg.degree_touch_log)
        fg.delete(victim)
        touched = set(fg.degree_touch_log[cursor:])
        changed = {
            node for node in touched if fg.is_alive(node) and fg.actual_degree(node) != before[node]
        }
        assert len(touched) > len(changed) > 0
        victim = tracker.pick(fg)
        assert victim == MaxDegreeDeletionReference().choose_victim(fg)
        assert tracker._seq - pushed == len(changed)
        pushed = tracker._seq


def test_tracker_heap_stays_bounded_under_a_long_attack():
    """Stale entries pile up under a long max-degree attack; each drain keeps
    the heap within 2 * alive + 64 entries, and every pick still equals the
    sorted reference's."""
    fg = ForgivingGraph.from_graph(make_graph("power_law", 500, seed=0))
    strategy, reference = MaxDegreeDeletion(), MaxDegreeDeletionReference()
    tracker = strategy._tracker
    for move in range(300):
        victim = strategy.choose_victim(fg)
        assert victim == reference.choose_victim(fg), f"divergence at move {move}"
        fg.delete(victim)
        tracker._drain(fg)
        assert len(tracker._heap) <= 2 * fg.num_alive + 64, f"heap unbounded at move {move}"
