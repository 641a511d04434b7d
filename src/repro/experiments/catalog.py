"""The experiment catalog: one entry per item of DESIGN.md's experiment index.

Each ``experiment_e*`` function regenerates one row-set of EXPERIMENTS.md.
They accept a ``scale`` parameter so the same code serves three purposes:

* ``scale="smoke"`` — seconds; used by the integration tests,
* ``scale="bench"`` — mid-sized runs between ``smoke`` and ``full``,
* ``scale="full"``  — the sizes quoted in EXPERIMENTS.md
  (``python -m repro.experiments`` regenerates the whole report).

Every function returns ``(title, rows, preamble)`` ready for
:func:`repro.experiments.reporting.write_report`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from ..adversary.schedule import churn_schedule, deletion_only_schedule
from ..adversary.strategies import MaxDegreeDeletion
from ..core.ports import node_order_key
from ..core.views import g_prime_view_of
from ..analysis.bounds import lower_bound_stretch, stretch_bound
from ..analysis.invariants import guarantee_report
from ..analysis.stats import summarize
from ..baselines.spec import HealerSpec
from ..core.forgiving_graph import ForgivingGraph
from ..core.haft import (
    build_haft,
    depth,
    haft_shape_signature,
    is_haft,
    leaves,
    merge,
    primary_roots,
)
from ..distributed.faults import (
    BYZANTINE_PRESETS,
    DELIVERY_PRESETS,
    FaultSchedule,
    fault_schedule,
)
from ..distributed.metrics import aggregate_byzantine, aggregate_recovery
from ..distributed.protocol import select_disjoint_victims
from ..distributed.simulator import DistributedForgivingGraph
from ..engine import AttackSession
from ..generators.graphs import make_graph, star_graph
from .config import AttackConfig
from .sweeps import sweep_graph_sizes, sweep_healers

__all__ = [
    "SCALES",
    "experiment_e1_haft_structure",
    "experiment_e2_haft_merge",
    "experiment_e3_degree_increase",
    "experiment_e4_stretch",
    "experiment_e5_repair_cost",
    "experiment_e6_invariants",
    "experiment_e7_lower_bound",
    "experiment_e8_paper_figures",
    "experiment_e9_healer_comparison",
    "experiment_e10_churn",
    "experiment_e11_fault_tolerance",
    "experiment_e12_recovery_cost",
    "experiment_e13_byzantine_containment",
    "experiment_e14_concurrent_bursts",
    "all_experiments",
]

Row = Dict[str, object]
Section = Tuple[str, List[Row], str]

#: Workload sizes per scale; "full" stays laptop-friendly (< a few minutes).
SCALES: Dict[str, Dict[str, object]] = {
    "smoke": {
        "haft_sizes": [1, 2, 3, 5, 8, 13, 21, 64],
        "merge_trials": 10,
        "graph_sizes": [40, 80],
        "cost_graph_size": 60,
        "cost_deletions": 25,
        "invariant_steps": 40,
        "star_sizes": [16, 64],
        "comparison_size": 80,
        "churn_steps": 60,
        "stretch_sources": 24,
        "fault_graph_size": 40,
        "fault_deletions": 15,
    },
    "bench": {
        "haft_sizes": [1, 7, 64, 255, 1024, 4095],
        "merge_trials": 40,
        "graph_sizes": [100, 200, 400],
        "cost_graph_size": 150,
        "cost_deletions": 80,
        "invariant_steps": 120,
        "star_sizes": [32, 128, 512],
        "comparison_size": 200,
        "churn_steps": 200,
        "stretch_sources": 32,
        "fault_graph_size": 80,
        "fault_deletions": 35,
    },
    "full": {
        "haft_sizes": [1, 7, 64, 255, 1024, 4095, 8192],
        "merge_trials": 100,
        "graph_sizes": [100, 200, 400, 800],
        "cost_graph_size": 300,
        "cost_deletions": 200,
        "invariant_steps": 250,
        "star_sizes": [32, 128, 512, 2048],
        "comparison_size": 300,
        "churn_steps": 400,
        "stretch_sources": 40,
        "fault_graph_size": 120,
        "fault_deletions": 60,
    },
}


def _params(scale: str) -> Dict[str, object]:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    return SCALES[scale]


# --------------------------------------------------------------------------- #
# E1 / E2 — half-full trees (Lemmas 1 and 2, Figures 3 and 5)
# --------------------------------------------------------------------------- #
def experiment_e1_haft_structure(scale: str = "full") -> Section:
    """Lemma 1: haft(l) is unique, strips into popcount(l) complete trees, has depth ceil(log2 l)."""
    rows: List[Row] = []
    for size in _params(scale)["haft_sizes"]:
        haft = build_haft(list(range(size)))
        haft_depth = depth(haft)
        bound = math.ceil(math.log2(size)) if size > 1 else 0
        roots = primary_roots(haft)
        # uniqueness: rebuilding from a different payload order gives the same shape
        signature_a = haft_shape_signature(haft)
        signature_b = haft_shape_signature(build_haft([f"x{i}" for i in range(size)]))
        rows.append(
            {
                "leaves": size,
                "depth": haft_depth,
                "ceil_log2": bound,
                "depth_ok": haft_depth == bound,
                "primary_roots": len(roots),
                "popcount": bin(size).count("1"),
                "strip_ok": len(roots) == bin(size).count("1"),
                "unique_shape": signature_a == signature_b,
                "valid_haft": is_haft(haft),
            }
        )
    preamble = (
        "Lemma 1: the half-full tree over `l` leaves is unique, has depth "
        "`ceil(log2 l)`, and decomposes into one complete tree per 1-bit of `l`."
    )
    return ("E1 — haft structure (Lemma 1, Figure 3)", rows, preamble)


def experiment_e2_haft_merge(scale: str = "full") -> Section:
    """Lemma 2 / Figure 5: merging hafts behaves like binary addition of their leaf counts."""
    params = _params(scale)
    rng = np.random.default_rng(20090214)
    rows: List[Row] = []
    for trial in range(int(params["merge_trials"])):
        count = int(rng.integers(2, 6))
        sizes = [int(rng.integers(1, 200)) for _ in range(count)]
        hafts = [build_haft([f"t{trial}_{i}_{j}" for j in range(size)]) for i, size in enumerate(sizes)]
        merged = merge(hafts)
        total = sum(sizes)
        rows.append(
            {
                "trial": trial,
                "input_sizes": "+".join(str(s) for s in sizes),
                "total_leaves": total,
                "merged_leaves": len(leaves(merged)),
                "valid_haft": is_haft(merged),
                "depth": depth(merged),
                "depth_bound": math.ceil(math.log2(total)) if total > 1 else 0,
                "primary_roots": len(primary_roots(merged)),
                "popcount": bin(total).count("1"),
            }
        )
    preamble = (
        "Merging hafts is binary addition: the merged tree is the unique haft over the "
        "summed leaf count, so its primary-root count equals the popcount of the sum "
        "and its depth stays at `ceil(log2 total)`."
    )
    return ("E2 — haft merge = binary addition (Lemma 2, Figure 5)", rows, preamble)


# --------------------------------------------------------------------------- #
# E3 / E4 — Theorem 1.1 and 1.2
# --------------------------------------------------------------------------- #
def experiment_e3_degree_increase(scale: str = "full") -> Section:
    """Theorem 1.1: the degree factor stays bounded by a small constant across sizes and topologies."""
    params = _params(scale)
    rows: List[Row] = []
    for topology in ("power_law", "erdos_renyi", "star"):
        rows.extend(
            sweep_graph_sizes(
                name="E3",
                topology=topology,
                sizes=params["graph_sizes"],
                attack=AttackConfig(strategy="max_degree", delete_fraction=0.5),
                healer="forgiving_graph",
                seed=3,
                stretch_sources=int(params["stretch_sources"]),
            )
        )
    preamble = (
        "Theorem 1.1 claims `deg(v, G_T) <= 3 * deg(v, G'_T)` for every node at every time. "
        "The table reports the worst factor observed at any measurement point of a "
        "max-degree deletion attack removing half the nodes."
    )
    return ("E3 — degree increase under attack (Theorem 1.1)", rows, preamble)


def experiment_e4_stretch(scale: str = "full") -> Section:
    """Theorem 1.2: stretch stays below log2(n) while n grows."""
    params = _params(scale)
    rows: List[Row] = []
    for strategy in ("max_degree", "random", "cut"):
        rows.extend(
            sweep_graph_sizes(
                name=f"E4-{strategy}",
                topology="erdos_renyi",
                sizes=params["graph_sizes"],
                attack=AttackConfig(strategy=strategy, delete_fraction=0.5),
                healer="forgiving_graph",
                seed=4,
                stretch_sources=int(params["stretch_sources"]),
            )
        )
    preamble = (
        "Theorem 1.2 claims `dist(x, y, G_T) <= log2(n) * dist(x, y, G'_T)`. "
        "The table reports the worst sampled stretch at any measurement point, against "
        "the `log2(n)` bound, for three adversaries."
    )
    return ("E4 — stretch under attack (Theorem 1.2)", rows, preamble)


# --------------------------------------------------------------------------- #
# E5 — Lemma 4 / Theorem 1.3: repair cost on the message-passing substrate
# --------------------------------------------------------------------------- #
def experiment_e5_repair_cost(scale: str = "full") -> Section:
    """Lemma 4: messages O(d log n), rounds O(log d log n), message size O(log n)."""
    params = _params(scale)
    n = int(params["cost_graph_size"])
    deletions = int(params["cost_deletions"])
    graph = make_graph("power_law", n, seed=5)
    healer = DistributedForgivingGraph.from_graph(graph)
    # The distributed healer is driven through the unified engine like every
    # other workload; each deletion's StepEvent carries its DeletionCostReport.
    schedule = deletion_only_schedule(
        steps=deletions, strategy=MaxDegreeDeletion(), min_survivors=3
    )
    session = AttackSession(
        healer,
        schedule,
        healer_name="distributed_forgiving_graph",
        measure_every=0,
        measure_final=False,
    )
    cost_reports = [
        event.cost_report for event in session.stream() if event.cost_report is not None
    ]
    healer.verify_consistency()

    # Bucket the per-deletion reports by victim degree so the d-dependence is visible.
    buckets: Dict[int, List] = {}
    for report in cost_reports:
        buckets.setdefault(report.degree, []).append(report)
    rows: List[Row] = []
    for degree in sorted(buckets):
        reports = buckets[degree]
        messages = summarize([r.messages for r in reports])
        rounds = summarize([r.rounds for r in reports])
        rows.append(
            {
                "victim_degree_d": degree,
                "repairs": len(reports),
                "messages_mean": round(messages.mean, 1),
                "messages_max": int(messages.maximum),
                "message_budget_O(d log n)": round(max(r.message_budget for r in reports), 1),
                "rounds_mean": round(rounds.mean, 1),
                "rounds_max": int(rounds.maximum),
                "round_budget_O(log d log n)": round(max(r.round_budget for r in reports), 1),
                "max_message_bits": max(r.max_message_bits for r in reports),
                "log2_n_bits_unit": math.ceil(math.log2(max(reports[-1].n_ever, 2))),
                "within_budgets": all(
                    r.within_message_budget and r.within_round_budget for r in reports
                ),
            }
        )
    preamble = (
        "Each deletion is replayed as explicit messages on the round-based simulator. "
        "Rows are grouped by the victim's degree `d`; the budget columns are the explicit "
        "`O(d log n)` / `O(log d log n)` budgets from Lemma 4's counting."
    )
    return ("E5 — repair cost (Lemma 4 / Theorem 1.3)", rows, preamble)


# --------------------------------------------------------------------------- #
# E6 — Lemma 3: structural invariants over a long run
# --------------------------------------------------------------------------- #
def experiment_e6_invariants(scale: str = "full") -> Section:
    """Lemma 3: at most one helper per edge; full invariant suite holds along a long churn run."""
    params = _params(scale)
    steps = int(params["invariant_steps"])
    graph = make_graph("erdos_renyi", max(int(params["cost_graph_size"]) // 2, 30), seed=6)
    fg = ForgivingGraph.from_graph(graph, check_invariants=True, invariant_check_limit=10_000)
    schedule = churn_schedule(steps=steps, delete_probability=0.6, seed=6)
    events = schedule.run(fg)

    helper_counts = [len(rt.helpers) for rt in fg.reconstruction_trees()]
    leaf_counts = [rt.size for rt in fg.reconstruction_trees()]
    rows: List[Row] = [
        {
            "churn_steps": len(events),
            "alive": fg.num_alive,
            "nodes_ever": fg.nodes_ever,
            "reconstruction_trees": len(fg.reconstruction_trees()),
            "rt_leaves_total": sum(leaf_counts),
            "rt_helpers_total": sum(helper_counts),
            "helpers_equal_leaves_minus_one": all(
                h == max(l - 1, 0) for h, l in zip(helper_counts, leaf_counts)
            ),
            "invariant_violations": 0,  # check_invariants raised on every step otherwise
            "degree_factor": round(fg.degree_increase_factor(), 3),
        }
    ]
    preamble = (
        "The engine re-verifies every structural invariant (valid hafts, the leaf/port "
        "bijection, Lemma 3's one-helper-per-edge rule, the representative mechanism, "
        "connectivity) after every step of a mixed insert/delete run; reaching the end "
        "of the run means zero violations."
    )
    return ("E6 — structural invariants under churn (Lemma 3)", rows, preamble)


# --------------------------------------------------------------------------- #
# E7 — Theorem 2: the lower bound on the star graph
# --------------------------------------------------------------------------- #
def experiment_e7_lower_bound(scale: str = "full") -> Section:
    """Theorem 2: on the star, any low-degree healer must stretch; FG sits near the bound."""
    params = _params(scale)
    rows: List[Row] = []
    for n in params["star_sizes"]:
        star = star_graph(n)
        for healer_name in ("forgiving_graph", "cycle_heal", "clique_heal", "surrogate_heal"):
            healer = HealerSpec(healer_name).build(star)
            healer.delete(0)  # the hub
            report = guarantee_report(healer, healer_name=healer_name)
            alpha = max(report.degree_factor, 3.0)
            rows.append(
                {
                    "n": n,
                    "healer": healer_name,
                    "degree_factor": round(report.degree_factor, 3),
                    "stretch": round(report.stretch, 3),
                    "theorem2_floor(alpha)": round(lower_bound_stretch(n, alpha), 3),
                    "theorem1_ceiling(log2 n)": round(stretch_bound(n), 3),
                    "consistent_with_lower_bound": report.stretch >= lower_bound_stretch(n, alpha) - 1e-9
                    or report.degree_factor > 3.0,
                }
            )
    preamble = (
        "Theorem 2: deleting the hub of an `n`-star forces stretch at least "
        "`0.5 * log_(alpha-1)(n-1)` on any healer whose degree factor stays at `alpha`. "
        "Healers that beat the stretch floor (clique, surrogate) can only do so by "
        "blowing up some node's degree — the trade-off is unavoidable."
    )
    return ("E7 — degree/stretch trade-off lower bound (Theorem 2)", rows, preamble)


# --------------------------------------------------------------------------- #
# E8 — the worked examples of Figures 2 and 6-8
# --------------------------------------------------------------------------- #
def experiment_e8_paper_figures(scale: str = "full") -> Section:
    """Reproduce the paper's worked examples: a deleted node is replaced by its RT."""
    rows: List[Row] = []

    # Figure 2: a node v with 8 neighbours a..h is deleted and replaced by RT(v).
    neighbors = list("abcdefgh")
    fg = ForgivingGraph.from_edges([("v", x) for x in neighbors], check_invariants=True)
    fg.delete("v")
    rt = fg.reconstruction_trees()[0]
    healed = fg.actual_graph()
    rows.append(
        {
            "figure": "Fig. 2 (star of 8 around v)",
            "rt_leaves": rt.size,
            "rt_depth": rt.depth,
            "expected_depth": math.ceil(math.log2(len(neighbors))),
            "max_degree_after": max(dict(healed.degree()).values()),
            "healed_diameter": nx.diameter(healed),
            "valid": rt.size == len(neighbors) and rt.depth == 3,
        }
    )

    # Figures 7-8: successive deletions make reconstruction trees merge.
    path_edges = [(i, i + 1) for i in range(8)]
    fg2 = ForgivingGraph.from_edges(path_edges, check_invariants=True)
    for victim in (3, 5, 4):  # deleting 4 merges the RTs created by 3 and 5
        fg2.delete(victim)
    rows.append(
        {
            "figure": "Figs. 7-8 (RTs merge after neighbouring deletions)",
            "rt_leaves": sum(rt.size for rt in fg2.reconstruction_trees()),
            "rt_depth": max(rt.depth for rt in fg2.reconstruction_trees()),
            "expected_depth": math.ceil(math.log2(max(sum(rt.size for rt in fg2.reconstruction_trees()), 2))),
            "max_degree_after": max(dict(fg2.actual_graph().degree()).values()),
            "healed_diameter": nx.diameter(fg2.actual_graph()),
            "valid": len(fg2.reconstruction_trees()) == 1,
        }
    )
    preamble = (
        "The worked examples of the paper, executed: a deleted node is replaced by a "
        "reconstruction tree over its neighbours (Figure 2); deleting a node adjacent to "
        "existing RTs merges everything into a single haft (Figures 7-8)."
    )
    return ("E8 — worked examples (Figures 2, 6-8)", rows, preamble)


# --------------------------------------------------------------------------- #
# E9 / E10 — comparisons and churn
# --------------------------------------------------------------------------- #
def experiment_e9_healer_comparison(scale: str = "full") -> Section:
    """Forgiving Graph vs Forgiving Tree vs naive healers under targeted attack."""
    params = _params(scale)
    rows: List[Row] = []
    for topology in ("power_law", "erdos_renyi"):
        rows.extend(
            sweep_healers(
                name=f"E9-{topology}",
                topology=topology,
                n=int(params["comparison_size"]),
                healers=(
                    "forgiving_graph",
                    "forgiving_tree",
                    "cycle_heal",
                    "clique_heal",
                    "surrogate_heal",
                    "no_heal",
                ),
                attack=AttackConfig(strategy="max_degree", delete_fraction=0.5),
                seed=9,
                stretch_sources=int(params["stretch_sources"]),
            )
        )
    preamble = (
        "Every healer faces the same initial graph and the same max-degree attack. "
        "Only the Forgiving Graph keeps the degree factor near 3 *and* the stretch near "
        "the `log n` bound; each baseline sacrifices one side of the trade-off."
    )
    return ("E9 — healer comparison (introduction / Forgiving Tree gap)", rows, preamble)


def experiment_e10_churn(scale: str = "full") -> Section:
    """Mixed insertions and deletions: the Forgiving Graph needs no initialization and handles churn."""
    params = _params(scale)
    rows: List[Row] = []
    for delete_probability in (0.3, 0.5, 0.7):
        fg = ForgivingGraph.from_graph(make_graph("power_law", int(params["comparison_size"]) // 2, seed=10))
        schedule = churn_schedule(
            steps=int(params["churn_steps"]),
            delete_probability=delete_probability,
            seed=10,
        )
        session = AttackSession(
            fg,
            schedule,
            healer_name="forgiving_graph",
            stretch_sources=int(params["stretch_sources"]),
            seed=10,
            measure_every=0,
        )
        result = session.run()
        report = result.final_report
        rows.append(
            {
                "delete_probability": delete_probability,
                "steps": result.steps,
                "insertions": result.insertions,
                "deletions": result.deletions,
                "alive": report.alive,
                "nodes_ever": report.n_ever,
                "degree_factor": round(report.degree_factor, 3),
                "stretch": round(report.stretch, 3),
                "stretch_bound": round(report.stretch_bound, 3),
                "connected": report.connected,
            }
        )
    preamble = (
        "The Forgiving Graph handles adversarial insertions interleaved with deletions "
        "(the Forgiving Tree could not); the guarantees keep holding under churn."
    )
    return ("E10 — mixed insertion/deletion churn (model of Figure 1)", rows, preamble)


def experiment_e11_fault_tolerance(scale: str = "full") -> Section:
    """Message-native repairs under faulty links: divergence is detected and healed.

    Every preset plays the identical max-degree deletion attack on the
    identical topology through the unified engine; only the seeded
    drop/delay/reorder schedule under the repair protocol differs.  With
    the merge message-native, lost messages genuinely desynchronize the
    processors — the rows certify that the reconvergence loop restores
    exact agreement with the reference oracle after every single deletion
    (``converged`` / ``consistent_with_oracle``), and show what the faults
    cost in retransmissions and extra rounds.
    """
    params = _params(scale)
    n = int(params["fault_graph_size"])
    deletions = int(params["fault_deletions"])
    graph = make_graph("power_law", n, seed=11)
    rows: List[Row] = []
    for preset in ("lossless", "drop", "delay", "reorder", "chaos"):
        healer = DistributedForgivingGraph.from_graph(
            graph, fault_schedule=fault_schedule(preset, seed=11)
        )
        schedule = deletion_only_schedule(
            steps=deletions, strategy=MaxDegreeDeletion(), min_survivors=3
        )
        session = AttackSession(
            healer,
            schedule,
            healer_name="distributed_forgiving_graph",
            measure_every=0,
            measure_final=True,
            stretch_sources=int(params["stretch_sources"]),
        )
        reports = [
            event.cost_report for event in session.stream() if event.cost_report is not None
        ]
        consistent = True
        try:
            healer.verify_consistency()
        except Exception:
            consistent = False
        final = session.result.final_report
        rows.append(
            {
                "fault_preset": preset,
                "repairs": len(reports),
                "messages": sum(r.messages for r in reports),
                "dropped": sum(r.dropped_messages for r in reports),
                "retransmissions": sum(r.retransmissions for r in reports),
                "reconvergence_rounds": sum(r.reconvergence_rounds for r in reports),
                "all_converged": all(r.converged for r in reports),
                "consistent_with_oracle": consistent,
                "stretch": round(final.stretch, 3),
                "stretch_bound": round(final.stretch_bound, 3),
                "connected": final.connected,
            }
        )
    preamble = (
        "The repair merge is computed from messages, so dropped/delayed/reordered "
        "messages make processors disagree about the healed structure.  Each row runs "
        "the same attack under one seeded fault preset.  After every repair the "
        "processors gossip digests of their own state and retransmit what their "
        "neighbours' digests show missing, until a sweep is silent; the oracle only "
        "checks that the distributed state again equals its own, with the Theorem 1 "
        "guarantees intact."
    )
    return ("E11 — fault tolerance of the message-native merge", rows, preamble)


def experiment_e12_recovery_cost(scale: str = "full") -> Section:
    """Recovery cost of the gossip-digest anti-entropy protocol, per fault preset.

    Every preset plays the identical attack.  No repair plan outlives its
    seeding, so each row also certifies that the recovery ran on the
    processors' own state and digest messages alone.  The lossless row drives :meth:`reconverge` explicitly after every deletion: its
    digest traffic is the pure *detection* price — one silent sweep, zero
    retransmissions — while the faulty rows show what drops/delays add in
    retransmissions and extra sweeps, all within the Lemma-4-style
    per-sweep budgets of :class:`RecoveryCostReport`.
    """
    params = _params(scale)
    n = int(params["fault_graph_size"])
    deletions = int(params["fault_deletions"])
    graph = make_graph("power_law", n, seed=12)
    rows: List[Row] = []
    # The delivery registry itself: new delivery presets join E12.  The
    # byzantine presets stay out — quarantining a liar leaves a deliberate,
    # permanent oracle divergence, which E13 measures instead.
    for preset in DELIVERY_PRESETS:
        healer = DistributedForgivingGraph.from_graph(
            graph, fault_schedule=fault_schedule(preset, seed=12)
        )
        schedule = deletion_only_schedule(
            steps=deletions, strategy=MaxDegreeDeletion(), min_survivors=3
        )
        session = AttackSession(
            healer,
            schedule,
            healer_name="distributed_forgiving_graph",
            measure_every=0,
            measure_final=False,
        )
        for event in session.stream():
            if event.kind == "delete" and healer.fault_schedule is None:
                # No faults, no auto-reconvergence: drive the recovery by
                # hand so the detection cost is measured on its own.
                healer.reconverge()
        consistent = True
        try:
            healer.verify_consistency()
        except Exception:
            consistent = False
        repair_bits = sum(r.bits for r in healer.cost_reports)
        row: Row = {"fault_preset": preset, "repairs": len(healer.cost_reports)}
        row.update(aggregate_recovery(healer.recovery_reports))
        row["digest_bits_per_repair_bit"] = round(
            row["digest_bits"] / max(repair_bits, 1), 3
        )
        row["consistent_with_oracle"] = consistent
        rows.append(row)
    preamble = (
        "Recovery is message-native: participants gossip compact digests of their own "
        "repair state (acknowledged chunk by chunk) and retransmit only what digests "
        "show missing; no repair plan outlives its seeding.  Rows separate the "
        "price of detection (digest traffic, paid even on a lossless network) from the "
        "price of the faults (retransmissions, extra sweeps), under explicit per-sweep "
        "Lemma-4-style budgets."
    )
    return ("E12 — gossip-digest recovery cost vs fault preset", rows, preamble)


def experiment_e13_byzantine_containment(scale: str = "full") -> Section:
    """Byzantine payload faults: accountable detection, containment, latency.

    Sweeps the byzantine population fraction (0 = honest baseline) with the
    preset lie policy: designated processors corrupt outgoing descriptors,
    lie in digests and equivocate assignments.  Detection is message-native
    — payload seals, descriptor checksums, cross-witness validation — and
    no repair plan outlives its seeding, so every accusation came from the
    processors' own state and the messages alone.  Each row scores the transcript against the oracle-side
    injection log: ``all_lies_caught`` (every origin whose lie was actually
    delivered got accused), ``false_accusations`` (must stay zero — honest
    processors are never quarantined), the **containment radius** (how many
    processors a liar's payloads reached before quarantine) and the
    **detection latency** in delivery rounds.
    """
    params = _params(scale)
    n = int(params["fault_graph_size"])
    deletions = int(params["fault_deletions"])
    graph = make_graph("power_law", n, seed=13)
    policy = BYZANTINE_PRESETS["byzantine"].policy
    rows: List[Row] = []
    for fraction in (0.0, 0.05, 0.15, 0.3):
        sched = FaultSchedule(
            seed=13,
            name=f"byzantine-{fraction:g}",
            byzantine_fraction=fraction,
            byzantine_policy=policy,
        )
        healer = DistributedForgivingGraph.from_graph(graph, fault_schedule=sched)
        schedule = deletion_only_schedule(
            steps=deletions, strategy=MaxDegreeDeletion(), min_survivors=3
        )
        session = AttackSession(
            healer,
            schedule,
            healer_name="distributed_forgiving_graph",
            measure_every=0,
            measure_final=False,
        )
        for _ in session.stream():
            pass
        byzantine_pop = sum(1 for node in graph.nodes if sched.is_byzantine(node))
        injection = healer.network.injection_log
        accused = set(healer.network.transcript.accused)
        row: Row = {
            "byzantine_fraction": fraction,
            "byzantine_processors": byzantine_pop,
            "repairs": len(healer.cost_reports),
            "converged": all(r.converged for r in healer.cost_reports),
        }
        row.update(
            aggregate_byzantine([r.byzantine for r in healer.cost_reports])
        )
        row["all_lies_caught"] = accused == injection.origins_with_delivered_lies
        rows.append(row)
    preamble = (
        "Byzantine processors corrupt the payloads they send — descriptors, digest "
        "records, assignments — and the protocol catches them message-natively: "
        "payload seals and descriptor checksums expose in-flight tampering, "
        "cross-witnessing exposes equivocation, and every contradiction lands as an "
        "accusation (with the conflicting message pair as evidence) that quarantines "
        "the liar.  Rows score the transcript against the oracle-side injection log: "
        "every delivered lie is caught, no honest processor is ever accused, and the "
        "containment radius / detection latency bound how far a lie spreads."
    )
    return ("E13 — byzantine containment and accountable detection", rows, preamble)


def experiment_e14_concurrent_bursts(scale: str = "full") -> Section:
    """Concurrent epoch-tagged bursts: repair latency trends to max, not sum.

    One burst of deletions with pairwise-disjoint repair footprints (picked
    by :func:`~repro.distributed.protocol.select_disjoint_victims`, away from
    the hubs whose footprints blanket the graph) is healed three ways on
    identical copies of the same graph: one repair at a time (waves of
    one), with admission capped at two concurrent repairs, and unbounded.
    Because the admitted repairs share one ``deliver_round`` stream, the
    burst's round count trends towards the *maximum* of the individual
    repair latencies instead of their sum — ``round_ratio`` is the measured
    fraction of the sequential cost.  Anti-entropy rides the same fabric in
    the background, in every row; on this lossless run every epoch's
    fixed-point probe must be empty (``silent_fixed_point``), the
    protocol's silence made measurable.
    """
    params = _params(scale)
    n = int(params["fault_graph_size"])
    graph = make_graph("power_law", n, seed=14)
    probe = DistributedForgivingGraph.from_graph(graph)
    degree = g_prime_view_of(probe).degree
    candidates = [
        v
        for v in sorted(probe.alive_nodes, key=lambda v: (-degree[v], node_order_key(v)))
        if degree[v] >= 3
    ]
    # Hubs' footprints blanket a power-law graph; skipping the largest few
    # leaves enough mutually disjoint repairs to make a real burst.
    victims = select_disjoint_victims(probe, candidates[5:], limit=8)
    if len(victims) < 2:
        victims = select_disjoint_victims(probe, candidates, limit=8)
    rows: List[Row] = []
    sequential_rounds = 0
    for label, concurrency in (("sequential", 1), ("cap-2", 2), ("unbounded", None)):
        healer = DistributedForgivingGraph.from_graph(graph)
        burst = healer.delete_batch(victims, concurrency=concurrency)
        consistent = True
        try:
            healer.verify_consistency()
        except Exception:
            consistent = False
        if concurrency == 1:
            sequential_rounds = burst.rounds
        silent = all(
            r.recovery is not None and r.recovery.fixed_point_messages == 0
            for r in burst.reports
        )
        rows.append(
            {
                "admission": label,
                "burst_k": len(victims),
                "waves": burst.waves,
                "rounds": burst.rounds,
                "round_ratio": round(burst.rounds / max(sequential_rounds, 1), 3),
                "messages": sum(r.messages for r in burst.reports),
                "silent_fixed_point": silent,
                "consistent_with_oracle": consistent,
            }
        )
    preamble = (
        "A burst of deletions with pairwise-disjoint repair footprints is healed "
        "concurrently: every message carries its repair's victim as epoch tag, all "
        "admitted repairs interleave in one delivery stream, and each epoch's "
        "anti-entropy gossip rides the same fabric in the background.  The burst's "
        "round count trends to the max of the individual repair latencies instead of "
        "their sum (round_ratio vs healing one repair at a time), and on the "
        "lossless path every epoch's recovery goes provably silent: the "
        "fixed-point probe emits zero messages."
    )
    return ("E14 — concurrent burst repair latency vs admission concurrency", rows, preamble)


def all_experiments(scale: str = "full") -> List[Section]:
    """Run the whole catalog at the given scale and return the report sections."""
    return [
        experiment_e1_haft_structure(scale),
        experiment_e2_haft_merge(scale),
        experiment_e3_degree_increase(scale),
        experiment_e4_stretch(scale),
        experiment_e5_repair_cost(scale),
        experiment_e6_invariants(scale),
        experiment_e7_lower_bound(scale),
        experiment_e8_paper_figures(scale),
        experiment_e9_healer_comparison(scale),
        experiment_e10_churn(scale),
        experiment_e11_fault_tolerance(scale),
        experiment_e12_recovery_cost(scale),
        experiment_e13_byzantine_containment(scale),
        experiment_e14_concurrent_bursts(scale),
    ]
