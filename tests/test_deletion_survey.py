"""Each deletion's strip and merge run once on the centralized side.

The engine surveys a deletion once, read-only (``ForgivingGraph.survey``):
the affected RTs with their dying nodes, each RT's strip walk and the ports
of the new trivial leaves.  The distributed planner describes that survey
to the processors and the engine applies it (``delete(victim, survey)``),
so the strip is walked once; both the engine's ``compute_haft`` and the
leader's ``merge_summaries`` build their helpers from one merge order
(``merge_order``).  These tests hold the survivors to the twins they
replaced (``tests/reference_twins.py``), check that a survey applied inside
a ``delete_batch`` wave leaves the engine a self-surveyed deletion would,
that the repair's netted healed-edge deltas keep ``G`` equal to its
from-scratch rebuild, and that a survey that no longer holds is refused
before anything changes.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ForgivingGraph
from repro.adversary import MaxDegreeDeletion, RandomDeletion
from repro.core.errors import InvariantViolationError
from repro.core.ports import Port, sorted_nodes
from repro.core.reconstruction_tree import RTLeaf, compute_haft, iter_rt_nodes
from repro.distributed import DistributedForgivingGraph
from repro.distributed.merge import plan_strip
from repro.distributed.protocol import _dedupe, _right_spine_processors, select_disjoint_victims
from repro.generators import make_graph

from reference_twins import affected_rt_nodes, compute_haft_scan, plan_strip_walk

TOPOLOGIES = [("power_law", 120), ("erdos_renyi", 100), ("path", 60), ("binary_tree", 63)]


def _name(node):
    return ("leaf" if isinstance(node, RTLeaf) else "helper", node.port)


def _merge_description(pieces, root, helpers):
    """Every new helper, every piece's new parent and the root, by ports."""
    return (
        [
            (
                h.simulated_by,
                _name(h.left),
                _name(h.right),
                h.parent.simulated_by if h.parent is not None else None,
                h.height,
                h.num_leaves,
                h.representative.port,
            )
            for h in helpers
        ],
        [piece.parent.simulated_by if piece.parent is not None else None for piece in pieces],
        _name(root),
    )


def _complete_pieces(exponents, ids):
    """One complete tree of ``2 ** k`` leaves per exponent (ports towards ``"v"``)."""
    pieces, taken = [], 0
    for k in exponents:
        leaves = [RTLeaf(Port(node, "v")) for node in ids[taken : taken + (1 << k)]]
        taken += 1 << k
        root, _ = compute_haft_scan(leaves)
        pieces.append(root)
    return pieces


class TestMergeOrderMatchesTheScan:
    """``compute_haft`` over the one merge order builds what the retired
    sorted-forest scan built, on the leader-merge test's inputs."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        exponents=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_helpers_parents_and_root_match_the_scan(self, exponents, shuffle):
        total = sum(1 << k for k in exponents)
        # Mixed id types exercise the merge order's type-first tie-break.
        ids = [i if i % 3 else f"p{i}" for i in range(total)]
        shuffle.shuffle(ids)
        order = list(range(len(exponents)))
        shuffle.shuffle(order)
        # Two copies of the same pieces, in the same shuffled order: a merge
        # hangs its inputs under new helpers.
        pieces, twins = (
            [built[i] for i in order] for built in (_complete_pieces(exponents, ids) for _ in range(2))
        )
        root, helpers = compute_haft(pieces)
        twin_root, twin_helpers = compute_haft_scan(twins)
        assert _merge_description(pieces, root, helpers) == _merge_description(
            twins, twin_root, twin_helpers
        )


def _moves(engine, strategy, seed, moves):
    """An attack: the strategy's victims, with a degree-3 insertion every fourth move."""
    rng = random.Random(seed)
    fresh = itertools.count(100_000)
    for step in range(moves):
        if step % 4 == 3 and engine.num_alive >= 3:
            yield "insert", next(fresh), rng.sample(sorted_nodes(engine.alive_nodes), 3)
            continue
        victim = strategy.choose_victim(engine)
        if victim is None:
            return
        yield "delete", victim, None


def _strategy(name, seed):
    return MaxDegreeDeletion() if name == "max_degree" else RandomDeletion(seed=seed)


@pytest.mark.parametrize("attack", ["max_degree", "random"])
@pytest.mark.parametrize("topology,n", TOPOLOGIES)
def test_survey_walk_matches_the_old_walk(topology, n, attack):
    """Before every deletion, the survey names the RTs and dying nodes the
    planner's old walk found, and its strips describe to the processors
    exactly what the old strip walk laid out, in the same order."""
    engine = ForgivingGraph.from_graph(make_graph(topology, n, seed=3))
    deletions = strips = 0
    for kind, node, attach in _moves(engine, _strategy(attack, 3), 3, (2 * n) // 3):
        if kind == "insert":
            engine.insert(node, attach_to=attach)
            continue
        survey = engine.survey(node)
        rts, dead = affected_rt_nodes(engine, node)
        assert [strip.rt for strip in survey.strips] == rts
        assert [strip.dead for strip in survey.strips] == [dead[rt.rt_id] for rt in rts]
        assert survey.trivial_ports == [
            Port(neighbor, node) for neighbor in engine.g_prime_neighbors(node) if engine.is_alive(neighbor)
        ]
        for strip in survey.strips:
            path = _dedupe(p for p in _right_spine_processors(strip.rt) if p != node)
            described = plan_strip(strip, node, path)
            walked = plan_strip_walk(strip.rt, node, strip.dead, path)
            assert described == walked
            # Dict order decides the order participants get their contexts.
            assert list(described.released_by_processor) == list(walked.released_by_processor)
            assert list(described.glue_by_processor) == list(walked.glue_by_processor)
            strips += 1
        engine.delete(node, survey=survey)
        deletions += 1
    assert deletions >= n // 3 and strips >= deletions // 3


def _engine_state(engine):
    """The RTs, both registries, ``G``'s rows with each edge's multiplicity
    and the nodes the degree-touch journal names, all named by ports and
    node ids (RT ids differ between engines)."""
    rts = {}
    for rt in engine.reconstruction_trees():
        nodes = [
            (
                _name(node),
                node.parent.port if node.parent is not None else None,
                node.height,
                node.num_leaves,
                None if isinstance(node, RTLeaf) else node.representative.port,
            )
            for node in iter_rt_nodes(rt.root)
        ]
        rts[_name(rt.root)] = (nodes, list(rt.leaves), list(rt.helpers))

    def registry(table):
        return [(port, _name(rt.root)) for port, rt in table.items()]

    rows = [
        (u, [(v, engine.edge_multiplicity(u, v)) for v in engine.actual_neighbors(u)])
        for u in engine.actual_view()
    ]
    return (
        rts,
        registry(engine._rt_of_leaf),
        registry(engine._rt_of_helper),
        rows,
        set(engine.degree_touch_log),
    )


@pytest.mark.parametrize("topology,n", TOPOLOGIES)
def test_delete_with_a_survey_leaves_the_engine_a_bare_delete_leaves(topology, n):
    """``delete(v, survey=...)`` and ``delete(v)`` leave equal engines:
    single deletions planned and applied by the distributed healer, and
    bursts whose waves apply surveys taken before the wave's earlier
    deletions, against a standalone engine deleting in the same order."""
    graph = make_graph(topology, n, seed=5)
    healer = DistributedForgivingGraph.from_graph(graph)
    alone = ForgivingGraph.from_graph(graph)
    rng = random.Random(5)
    fresh = itertools.count(100_000)
    strategy = MaxDegreeDeletion()
    waves = []
    for step in range(n // 4):
        if step % 3 == 2:
            candidates = sorted_nodes(healer.alive_nodes)
            rng.shuffle(candidates)
            burst = healer.delete_batch(select_disjoint_victims(healer, candidates, limit=5))
            waves.extend(burst.wave_sizes)
            for report in burst.reports:
                alone.delete(report.deleted_node)
        elif step % 5 == 4:
            node, attach = next(fresh), rng.sample(sorted_nodes(healer.alive_nodes), 3)
            healer.insert(node, attach_to=attach)
            alone.insert(node, attach_to=attach)
        else:
            victim = strategy.choose_victim(healer)
            healer.delete(victim)
            alone.delete(victim)
        assert _engine_state(healer.engine) == _engine_state(alone)
    assert max(waves) > 1
    healer.verify_consistency()


def _reference_multiplicities(engine):
    """Each healed edge's sources counted from scratch."""
    counts = Counter()
    for u, v in engine._g_prime.edges:
        if engine.is_alive(u) and engine.is_alive(v):
            counts[frozenset((u, v))] += 1
    for rt in engine._rts.values():
        for parent, child in rt.virtual_edges():
            if parent.port.processor != child.port.processor:
                counts[frozenset((parent.port.processor, child.port.processor))] += 1
    return counts


@pytest.mark.parametrize("topology,n", TOPOLOGIES)
def test_netted_repairs_keep_g_equal_to_its_rebuild(topology, n, monkeypatch):
    """A repair skips each destroyed glue source its merge adds back between
    the same two processors; ``G`` still equals ``_rebuild_actual()``, edge
    for edge with every multiplicity, after every repair, and the netting
    did skip writes."""
    engine = ForgivingGraph.from_graph(make_graph(topology, n, seed=7))
    removals = Counter()
    remove = ForgivingGraph._edge_source_removed

    def counted(self, u, v):
        removals[u == v] += 1
        remove(self, u, v)

    monkeypatch.setattr(ForgivingGraph, "_edge_source_removed", counted)
    skipped = 0
    for kind, node, attach in _moves(engine, MaxDegreeDeletion(), 7, (2 * n) // 3):
        if kind == "insert":
            engine.insert(node, attach_to=attach)
            continue
        survey = engine.survey(node)
        unnetted = len(survey.trivial_ports) + sum(
            parent.processor != child.processor for strip in survey.strips for parent, child in strip.cuts
        )
        before = removals[False]
        engine.delete(node, survey=survey)
        skipped += unnetted - (removals[False] - before)
        rebuilt = engine._rebuild_actual()
        assert set(engine.actual_view().nodes) == set(rebuilt.nodes)
        assert {frozenset(e) for e in engine.actual_view().edges} == {
            frozenset(e) for e in rebuilt.edges
        }
        reference = _reference_multiplicities(engine)
        assert set(reference) == {frozenset(e) for e in rebuilt.edges}
        for edge, count in reference.items():
            assert engine.edge_multiplicity(*edge) == count
    assert skipped > 0


def _path_engine():
    return ForgivingGraph.from_edges([(i, i + 1) for i in range(9)])


def _survey_another_victim(engine):
    return engine.survey(3), 4


def _survey_before_a_deletion_that_changes_its_rt(engine):
    engine.delete(3)  # RT with leaves (2, 3) and (4, 3)
    survey = engine.survey(4)
    engine.delete(2)  # breaks that RT
    return survey, 4


def _survey_before_a_neighbour_dies(engine):
    survey = engine.survey(4)
    engine.delete(5)  # a new RT holding the leaf (4, 5)
    return survey, 4


def _survey_before_an_insertion_next_to_the_victim(engine):
    survey = engine.survey(4)
    engine.insert("new", attach_to=[4])
    return survey, 4


@pytest.mark.parametrize(
    "stale",
    [
        _survey_another_victim,
        _survey_before_a_deletion_that_changes_its_rt,
        _survey_before_a_neighbour_dies,
        _survey_before_an_insertion_next_to_the_victim,
    ],
)
def test_a_survey_that_no_longer_holds_is_refused_before_anything_changes(stale):
    engine = _path_engine()
    survey, victim = stale(engine)
    state = _engine_state(engine)
    with pytest.raises(InvariantViolationError):
        engine.delete(victim, survey=survey)
    assert _engine_state(engine) == state
    assert engine.is_alive(victim)
    engine.check_invariants()
    engine.delete(victim)
    engine.check_invariants()
