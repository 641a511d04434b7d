"""Journal compaction: bounded memory for the engine's append-only journals.

The ROADMAP open item: the degree-touch and edge-delta journals were
append-only and unbounded per engine.  :class:`repro.core.journal.Journal`
keeps the absolute-index consumer contract while dropping the prefix every
*registered* cursor has drained; :class:`repro.engine.AttackSession` calls
``compact_journals()`` on its measurement cadence.  These tests pin the
container semantics, the consumer (tracker) equivalence under aggressive
compaction, and the session integration.
"""

import numpy as np
import pytest

from repro import AttackSession, ForgivingGraph
from repro.adversary import (
    MaxDegreeDeletion,
    MaxDegreeDeletionReference,
    churn_schedule,
)
from repro.core.journal import Journal, JournalCompactedError
from repro.distributed import DistributedForgivingGraph
from repro.generators import make_graph


class TestJournalSemantics:
    def test_absolute_indices_survive_compaction(self):
        journal = Journal()
        for i in range(10):
            journal.append(i)
        cursor = journal.register_cursor()
        cursor.advance_to(6)
        assert journal.compact() == 6
        assert len(journal) == 10  # total-ever length, not retained length
        assert journal[6:10] == [6, 7, 8, 9]
        assert journal[8] == 8

    def test_reading_below_the_compaction_point_raises(self):
        journal = Journal()
        for i in range(5):
            journal.append(i)
        journal.register_cursor().advance_to(3)
        journal.compact()
        with pytest.raises(JournalCompactedError):
            journal[0:5]
        with pytest.raises(JournalCompactedError):
            journal[1]

    def test_slowest_registered_cursor_pins_history(self):
        journal = Journal()
        for i in range(10):
            journal.append(i)
        slow = journal.register_cursor()
        fast = journal.register_cursor()
        slow.advance_to(2)
        fast.advance_to(9)
        assert journal.compact() == 2
        assert journal[2:10] == list(range(2, 10))

    def test_dead_cursor_stops_pinning(self):
        journal = Journal()
        for i in range(8):
            journal.append(i)
        keep = journal.register_cursor()
        keep.advance_to(8)
        pinning = [journal.register_cursor()]  # never advanced
        assert journal.compact() == 0  # pinned by the idle cursor
        pinning.clear()  # consumer goes away -> weakly-held cursor is collected
        assert journal.compact() == 8

    def test_no_consumers_means_full_truncation(self):
        journal = Journal()
        for i in range(5):
            journal.append(i)
        assert journal.compact() == 5
        assert len(journal) == 5
        assert journal[5:] == []

    def test_empty_suffix_slices_stay_legal(self):
        journal = Journal()
        for i in range(4):
            journal.append(i)
        journal.compact()
        assert journal[4:4] == []
        assert journal[len(journal) :] == []


class TestEngineCompaction:
    def test_compact_journals_reports_drops(self):
        fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 30, seed=1))
        for victim in sorted(fg.alive_nodes)[:10]:
            if fg.num_alive > 2:
                fg.delete(victim)
        before = len(fg.degree_touch_log)
        assert before > 0
        dropped = fg.compact_journals()
        assert dropped["degree_touch"] == before
        assert dropped["edge_delta"] > 0
        # Absolute length is preserved; the storage is gone.
        assert len(fg.degree_touch_log) == before
        assert fg.degree_touch_log.compacted == before

    def test_tracker_equivalence_under_aggressive_compaction(self):
        """The lazy-heap adversary picks identical victims when the engine
        compacts after every single move — its registered cursor pins
        exactly the suffix it has not drained yet."""
        a = ForgivingGraph.from_graph(make_graph("power_law", 40, seed=6))
        b = ForgivingGraph.from_graph(make_graph("power_law", 40, seed=6))
        incremental, reference = MaxDegreeDeletion(), MaxDegreeDeletionReference()
        for _ in range(25):
            victim_a = incremental.choose_victim(a)
            victim_b = reference.choose_victim(b)
            assert victim_a == victim_b
            if victim_a is None or a.num_alive <= 3:
                break
            a.delete(victim_a)
            b.delete(victim_b)
            a.compact_journals()  # every move — far more aggressive than the session

    def test_distributed_healer_delegates_compaction(self):
        d = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 20, seed=2))
        for victim in sorted(d.alive_nodes)[:5]:
            if d.num_alive > 3:
                d.delete(victim)
        dropped = d.compact_journals()
        assert dropped["edge_delta"] > 0
        d.verify_consistency()


class TestSessionCompaction:
    def test_session_compacts_on_measurement_cadence(self):
        fg = ForgivingGraph.from_graph(make_graph("power_law", 60, seed=3))
        schedule = churn_schedule(steps=60, delete_probability=0.7, seed=3)
        session = AttackSession(
            fg, schedule, stretch_sources=8, measure_every=10
        )
        result = session.run()
        assert result.steps > 0
        # The retained storage is bounded by the measurement interval's
        # worth of entries, not by the whole attack.
        assert fg.degree_touch_log.compacted > 0
        retained = len(fg.degree_touch_log) - fg.degree_touch_log.compacted
        assert retained < len(fg.degree_touch_log)

    def test_targeted_session_still_heals_correctly_with_compaction(self):
        """End to end: targeted adversary + periodic compaction + invariants."""
        rng = np.random.default_rng(4)
        fg = ForgivingGraph.from_graph(
            make_graph("erdos_renyi", 40, seed=4),
            check_invariants=True,
            invariant_check_limit=10_000,
        )
        schedule = churn_schedule(
            steps=40, delete_probability=0.6, seed=int(rng.integers(100))
        )
        session = AttackSession(fg, schedule, stretch_sources=8, measure_every=5)
        result = session.run()
        assert result.final_report.connected
        fg.check_invariants()

    def test_healers_without_journals_are_tolerated(self):
        from repro.baselines import HealerSpec

        healer = HealerSpec("no_heal").build(make_graph("ring", 12))
        schedule = churn_schedule(steps=8, delete_probability=0.5, seed=1)
        session = AttackSession(healer, schedule, stretch_sources=4, measure_every=4)
        assert session.compact_journals() == {}
        session.run()
