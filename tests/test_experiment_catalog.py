"""Integration tests: the experiment catalog (E1–E14) at smoke scale.

These are the end-to-end checks that the claims recorded in EXPERIMENTS.md
actually regenerate: every experiment runs, produces rows, and the rows
satisfy the paper's qualitative claims.
"""

import math

import pytest

from repro.experiments.catalog import (
    all_experiments,
    experiment_e1_haft_structure,
    experiment_e2_haft_merge,
    experiment_e3_degree_increase,
    experiment_e4_stretch,
    experiment_e5_repair_cost,
    experiment_e6_invariants,
    experiment_e7_lower_bound,
    experiment_e8_paper_figures,
    experiment_e9_healer_comparison,
    experiment_e10_churn,
    experiment_e12_recovery_cost,
    experiment_e13_byzantine_containment,
    experiment_e14_concurrent_bursts,
)


class TestStructureExperiments:
    def test_e1_haft_claims_hold(self):
        _title, rows, _ = experiment_e1_haft_structure("smoke")
        assert rows
        assert all(row["depth_ok"] and row["strip_ok"] and row["unique_shape"] for row in rows)

    def test_e2_merge_claims_hold(self):
        _title, rows, _ = experiment_e2_haft_merge("smoke")
        assert rows
        for row in rows:
            assert row["valid_haft"]
            assert row["merged_leaves"] == row["total_leaves"]
            assert row["primary_roots"] == row["popcount"]
            assert row["depth"] == row["depth_bound"]


class TestTheorem1Experiments:
    def test_e3_degree_factor_is_constant(self):
        _title, rows, _ = experiment_e3_degree_increase("smoke")
        assert rows
        # The paper's constant is 3; the per-edge accounting of the published
        # mechanism allows up to 4 (see EXPERIMENTS.md), and the factor must
        # not grow with n.
        assert all(row["degree_factor"] <= 4.0 + 1e-9 for row in rows)

    def test_e4_stretch_within_log_bound(self):
        _title, rows, _ = experiment_e4_stretch("smoke")
        assert rows
        assert all(row["stretch"] <= row["stretch_bound"] + 1e-9 for row in rows)
        assert all(row["connected"] for row in rows)

    def test_e5_repair_costs_within_budgets(self):
        _title, rows, _ = experiment_e5_repair_cost("smoke")
        assert rows
        assert all(row["within_budgets"] for row in rows)
        assert all(row["messages_max"] <= row["message_budget_O(d log n)"] for row in rows)

    def test_e6_invariants_hold(self):
        _title, rows, _ = experiment_e6_invariants("smoke")
        (row,) = rows
        assert row["invariant_violations"] == 0
        assert row["helpers_equal_leaves_minus_one"]


class TestTheorem2AndComparisons:
    def test_e7_no_healer_beats_the_lower_bound(self):
        _title, rows, _ = experiment_e7_lower_bound("smoke")
        assert rows
        assert all(row["consistent_with_lower_bound"] for row in rows)

    def test_e7_forgiving_graph_stays_within_ceiling(self):
        _title, rows, _ = experiment_e7_lower_bound("smoke")
        fg_rows = [row for row in rows if row["healer"] == "forgiving_graph"]
        assert fg_rows
        assert all(row["stretch"] <= row["theorem1_ceiling(log2 n)"] + 1e-9 for row in fg_rows)

    def test_e8_paper_figures_reproduce(self):
        _title, rows, _ = experiment_e8_paper_figures("smoke")
        assert all(row["valid"] for row in rows)

    def test_e9_forgiving_graph_wins_both_sides_of_the_tradeoff(self):
        _title, rows, _ = experiment_e9_healer_comparison("smoke")
        fg = [row for row in rows if row["healer"] == "forgiving_graph"]
        clique = [row for row in rows if row["healer"] == "clique_heal"]
        no_heal = [row for row in rows if row["healer"] == "no_heal"]
        assert all(row["degree_factor"] <= 4.0 + 1e-9 and row["connected"] for row in fg)
        assert all(row["stretch"] <= row["stretch_bound"] + 1e-9 for row in fg)
        # The baselines lose at least one side of the trade-off.
        assert any(row["degree_factor"] > 4.0 for row in clique)
        assert any(not row["connected"] or math.isinf(row["stretch"]) for row in no_heal)

    def test_e10_churn_keeps_guarantees(self):
        _title, rows, _ = experiment_e10_churn("smoke")
        assert rows
        assert all(row["connected"] for row in rows)
        assert all(row["stretch"] <= row["stretch_bound"] + 1e-9 for row in rows)
        assert all(row["insertions"] > 0 and row["deletions"] > 0 for row in rows)

    def test_e12_recovery_cost_claims_hold(self):
        _title, rows, _ = experiment_e12_recovery_cost("smoke")
        by_preset = {row["fault_preset"]: row for row in rows}
        assert set(by_preset) == {"lossless", "drop", "delay", "reorder", "chaos"}
        for row in rows:
            # No repair plan outlives its seeding, so converging and matching
            # the oracle certifies message-native recovery.
            assert row["all_converged"]
            assert row["consistent_with_oracle"]
            assert row["within_digest_budgets"] and row["within_round_budgets"]
            assert row["recoveries"] == row["repairs"] > 0
            assert row["digest_messages"] > 0
        # Lossless pays pure detection: one sweep per repair, nothing resent.
        lossless = by_preset["lossless"]
        assert lossless["retransmissions"] == 0
        assert lossless["sweeps"] == lossless["repairs"]
        # Lossy presets genuinely pay for their faults.
        assert by_preset["drop"]["retransmissions"] > 0

    def test_e13_byzantine_containment_claims_hold(self):
        _title, rows, _ = experiment_e13_byzantine_containment("smoke")
        by_fraction = {row["byzantine_fraction"]: row for row in rows}
        assert 0.0 in by_fraction and len(rows) >= 3
        for row in rows:
            # Quarantine leaves a deliberate oracle divergence, but recovery
            # still reaches its silent fixed point around the quarantined.
            assert row["converged"]
            # Every delivered lie accused, no honest processor ever accused.
            assert row["all_lies_caught"]
            assert row["false_accusations"] == 0
        honest = by_fraction[0.0]
        assert honest["lies_sent"] == 0 and honest["accusations"] == 0
        lying = [
            row
            for row in rows
            if row["byzantine_fraction"] > 0 and row["lies_delivered"] > 0
        ]
        assert lying  # the sweep genuinely exercises the byzantine axis
        for row in lying:
            assert row["accused"] > 0
            assert row["max_containment_radius"] >= 1


class TestConcurrentBursts:
    def test_e14_concurrent_admission_beats_sequential_and_goes_silent(self):
        _, rows, _ = experiment_e14_concurrent_bursts("smoke")
        by_admission = {row["admission"]: row for row in rows}
        assert by_admission["sequential"]["round_ratio"] == 1.0
        unbounded = by_admission["unbounded"]
        assert unbounded["waves"] == 1  # the burst is genuinely disjoint
        assert unbounded["round_ratio"] < 1.0
        for row in rows:
            assert row["consistent_with_oracle"]
            if row["admission"] != "sequential":
                assert row["silent_fixed_point"]


class TestCatalogPlumbing:
    def test_all_experiments_returns_fourteen_sections(self):
        sections = all_experiments("smoke")
        assert len(sections) == 14
        titles = [section[0] for section in sections]
        assert all(title.startswith("E") for title in titles)
        assert all(section[1] for section in sections)  # every section has rows

    def test_unknown_scale_is_rejected(self):
        with pytest.raises(ValueError):
            experiment_e1_haft_structure("galactic")
