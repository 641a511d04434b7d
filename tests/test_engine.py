"""Unit tests for the unified attack-session engine (repro.engine)."""

import math

import pytest

from repro import AttackSession, ForgivingGraph
from repro.adversary import churn_schedule, deletion_only_schedule
from repro.baselines import HealerSpec
from repro.engine import SessionResult, StepEvent
from repro.generators import make_graph


@pytest.fixture
def healer():
    return ForgivingGraph.from_graph(make_graph("power_law", 40, seed=1))


class TestAttackSessionRun:
    def test_run_returns_summary(self, healer):
        session = AttackSession(healer, deletion_only_schedule(steps=12, seed=0), seed=0)
        result = session.run()
        assert isinstance(result, SessionResult)
        assert result.deletions == 12
        assert result.insertions == 0
        assert result.steps == 12
        assert result.final_report.connected
        assert result.peak_degree_factor <= 4.0 + 1e-9
        assert result.wall_clock_seconds > 0

    def test_counters_split_by_kind(self, healer):
        session = AttackSession(healer, churn_schedule(steps=30, delete_probability=0.5, seed=3))
        result = session.run()
        assert result.deletions + result.insertions == result.steps == 30
        assert result.deletions > 0 and result.insertions > 0

    def test_result_none_before_completion(self, healer):
        session = AttackSession(healer, deletion_only_schedule(steps=5, seed=0))
        assert session.result is None
        session.run()
        assert session.result is not None

    def test_track_series(self, healer):
        session = AttackSession(
            healer,
            deletion_only_schedule(steps=12, seed=0),
            measure_every=3,
            track_series=True,
        )
        result = session.run()
        # every 3rd step plus the final measurement
        assert len(result.series) == 12 // 3 + 1
        assert all("stretch" in point and "degree_factor" in point for point in result.series)

    def test_works_with_baselines(self):
        graph = make_graph("erdos_renyi", 30, seed=2)
        for name in ("no_heal", "cycle_heal"):
            session = AttackSession(
                HealerSpec(name).build(graph),
                deletion_only_schedule(steps=8, seed=2),
                healer_name=name,
            )
            result = session.run()
            assert result.healer_name == name
            assert result.deletions == 8


class TestAttackSessionStream:
    def test_stream_yields_typed_events(self, healer):
        session = AttackSession(healer, deletion_only_schedule(steps=10, seed=0), measure_every=4)
        events = list(session.stream())
        assert len(events) == 10
        assert all(isinstance(event, StepEvent) for event in events)
        assert [e.kind for e in events] == ["delete"] * 10
        # cumulative counters are monotone and end at the totals
        assert [e.deletions for e in events] == list(range(1, 11))
        assert events[-1].deletions == session.result.deletions

    def test_measurements_land_on_cadence(self, healer):
        session = AttackSession(healer, deletion_only_schedule(steps=10, seed=0), measure_every=4)
        events = list(session.stream())
        measured = [e.step for e in events if e.report is not None]
        assert measured == [4, 8]
        # the final measurement still happens (it is not attached to an event)
        assert session.result.final_report is not None

    def test_measure_every_zero_disables_periodic_measurement(self, healer):
        session = AttackSession(
            healer, deletion_only_schedule(steps=9, seed=0), measure_every=0, measure_final=False
        )
        events = list(session.stream())
        assert all(event.report is None for event in events)
        assert session.result.final_report is None
        # peaks were never observed
        assert session.result.peak_stretch == 0.0

    def test_stream_peaks_match_reports(self, healer):
        session = AttackSession(healer, deletion_only_schedule(steps=12, seed=1), measure_every=3)
        reports = [e.report for e in session.stream() if e.report is not None]
        reports.append(session.result.final_report)
        assert session.result.peak_stretch == pytest.approx(
            max(r.stretch for r in reports)
        )
        assert session.result.peak_degree_factor == pytest.approx(
            max(r.degree_factor for r in reports)
        )

    def test_session_is_single_use(self, healer):
        """Replaying a finalized session would re-attack the healer: it raises."""
        session = AttackSession(healer, deletion_only_schedule(steps=4, seed=0))
        first = session.run()
        alive_after = healer.num_alive
        with pytest.raises(RuntimeError):
            session.run()
        assert healer.num_alive == alive_after  # the healer was not touched again
        assert session.result is first

    def test_abandoned_stream_can_be_finalized(self, healer):
        session = AttackSession(healer, deletion_only_schedule(steps=20, seed=0))
        stream = session.stream()
        for _ in range(5):
            next(stream)
        assert session.result is None
        result = session.finalize()
        assert result.steps == 5
        assert result.final_report is not None
        assert result.wall_clock_seconds > 0  # real elapsed, not a 0.0 stub

    def test_abandoned_stream_cannot_be_restarted(self, healer):
        """Re-streaming after an early exit would replay moves on the mutated healer."""
        session = AttackSession(healer, deletion_only_schedule(steps=20, seed=0))
        stream = session.stream()
        for _ in range(3):
            next(stream)
        with pytest.raises(RuntimeError):
            next(session.stream())

    def test_measure_now_on_demand(self, healer):
        session = AttackSession(healer, deletion_only_schedule(steps=6, seed=0), measure_every=0)
        report = session.measure_now()
        assert report.connected
        assert math.isfinite(report.stretch)


class TestEngineMatchesLegacySemantics:
    def test_session_equals_runner_outcome(self):
        """The runner is a thin wrapper: same schedule, same measurements, same peaks."""
        from repro.experiments import ExperimentConfig, run_attack
        from repro.generators import GraphSpec

        config = ExperimentConfig(
            name="engine-parity",
            graph=GraphSpec(topology="erdos_renyi", n=30),
            seed=5,
            stretch_sources=16,
        )
        first = run_attack(config, "forgiving_graph")
        second = run_attack(config, "forgiving_graph")
        assert first.peak_stretch == second.peak_stretch
        assert first.peak_degree_factor == second.peak_degree_factor
        assert first.deletions == second.deletions
