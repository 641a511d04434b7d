"""The gossip-digest anti-entropy recovery (PR 5).

Pins the tentpole claims:

* recovery is **message-native**: every repair's plan is dropped once
  seeded (nothing holds it once the deletion returns), and recovery reaches
  the fixed point under lossless and every fault preset — the digest
  protocol works from per-processor local knowledge plus messages
  delivered through ``Network.deliver_round`` alone;
* the one oracle check is ``verify_consistency``: after a digest recovery
  ``audit_reference()`` (the same check, as a list) finds no divergence;
* recovery has its own cost ledger (``RecoveryCostReport``): detection
  (digest) traffic split from retransmissions, Lemma-4-style per-sweep
  budgets, threaded into ``DeletionCostReport`` and the engine's
  ``StepEvent`` stream;
* every message a deletion causes is charged to exactly one ledger: its
  repair window or its recovery's digest/retransmission split (per victim
  epoch inside a ``delete_batch`` burst);
* the protocol is deterministic given the fault schedule's seed, survives
  a non-leader participant crashing mid-recovery, and a recovery that hits
  its round budget mid-delivery reports ``converged=False`` plus the
  leftover in-flight count instead of leaking traffic into the next
  repair; a wave that runs out of rounds reports ``converged=False``
  whether or not a recovery ran.
"""

import gc
import random
import weakref
from collections import Counter

import pytest

from repro.adversary import MaxDegreeDeletion, RandomDeletion
from repro.distributed import (
    DistributedForgivingGraph,
    RecoveryCostReport,
    fault_schedule,
    simulator,
)
from repro.distributed.metrics import DIGEST_KINDS
from repro.generators import make_graph


def attack(healer, steps=15, strategy=None, reconverge_lossless=False):
    strategy = strategy if strategy is not None else RandomDeletion(seed=5)
    for _ in range(steps):
        victim = strategy.choose_victim(healer)
        if victim is None or healer.num_alive <= 3:
            break
        healer.delete(victim)
        if reconverge_lossless and healer.fault_schedule is None:
            healer.reconverge()
    return healer


def faulty_healer(preset, seed=5, **kwargs):
    return DistributedForgivingGraph.from_graph(
        make_graph("power_law", 40, seed=3),
        fault_schedule=fault_schedule(preset, seed=seed),
        **kwargs,
    )


class TestNoGlobalKnowledge:
    """The no-global-knowledge guard of the ISSUE's test checklist."""

    @pytest.mark.parametrize("preset", ["lossless", "drop", "delay", "reorder", "chaos"])
    def test_recovery_converges_under_every_preset(self, preset):
        healer = faulty_healer(preset)
        attack(healer, steps=15, reconverge_lossless=True)
        assert len(healer.recovery_reports) > 0
        assert all(r.converged for r in healer.recovery_reports)
        assert all(r.within_digest_budget for r in healer.recovery_reports)
        assert all(r.within_round_budget for r in healer.recovery_reports)
        healer.verify_consistency()

    def test_no_plan_outlives_its_deletion(self, monkeypatch):
        """Every plan ``delete`` and ``delete_batch`` build is unreachable once
        the call returns: recovery and reporting run on what the processors
        hold, so nothing global is left to consult."""
        plans = []

        def spy(engine, victim):
            plan = real_plan_repair(engine, victim)
            plans.append(weakref.ref(plan))
            return plan

        def reachable():
            gc.collect()
            return [ref for ref in plans if ref() is not None]

        real_plan_repair = simulator.plan_repair
        monkeypatch.setattr(simulator, "plan_repair", spy)
        healer = faulty_healer("drop")
        strategy = MaxDegreeDeletion()
        for _ in range(3):
            healer.delete(strategy.choose_victim(healer))
            assert reachable() == []
        healer.delete_batch(sorted(healer.alive_nodes)[:4])
        assert reachable() == []
        assert len(plans) >= 7

    def test_audit_reference_finds_nothing_after_digest_recovery(self):
        """The digest fixed point is the oracle's: the consistency check,
        listed, finds no divergence after every recovery."""
        healer = faulty_healer("chaos")
        strategy = RandomDeletion(seed=5)
        for _ in range(12):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            report = healer.delete(victim)
            assert report.converged
            assert healer.audit_reference() == []
        healer.verify_consistency()


class TestDeterminism:
    @pytest.mark.parametrize("preset", ["lossless", "drop", "delay", "reorder", "chaos"])
    def test_recovery_is_deterministic_given_the_seed(self, preset):
        def run():
            healer = faulty_healer(preset, seed=13)
            attack(healer, steps=12, strategy=RandomDeletion(seed=2), reconverge_lossless=True)
            return [r.as_row() for r in healer.recovery_reports]

        first, second = run(), run()
        assert first == second
        assert len(first) > 0


class TestRecoveryLedger:
    def test_lossless_detection_costs_one_silent_sweep(self):
        healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=3))
        attack(healer, steps=10, reconverge_lossless=True)
        assert len(healer.recovery_reports) > 0
        for report in healer.recovery_reports:
            assert report.converged
            assert report.sweeps == 1
            assert report.retransmissions == 0
            assert report.digest_messages > 0
            assert report.within_digest_budget
            assert report.within_round_budget

    def test_faulty_recovery_traffic_within_budgets(self):
        healer = faulty_healer("chaos")
        attack(healer, steps=15)
        recoveries = healer.recovery_reports
        assert sum(r.retransmissions for r in recoveries) > 0
        assert all(r.within_digest_budget for r in recoveries)
        assert all(r.within_round_budget for r in recoveries)

    def test_recovery_threaded_into_deletion_report(self):
        healer = faulty_healer("drop")
        attack(healer, steps=10)
        faulted = [r for r in healer.cost_reports if r.recovery is not None]
        assert len(faulted) == len(healer.cost_reports)
        for report in faulted:
            assert isinstance(report.recovery, RecoveryCostReport)
            assert report.retransmissions == report.recovery.retransmissions
            assert report.reconvergence_rounds == report.recovery.rounds
            assert report.converged == report.recovery.converged
            row = report.as_row()
            assert row["recovery_sweeps"] == report.recovery.sweeps
            assert row["digest_messages"] == report.recovery.digest_messages
            assert row["digest_bits"] == report.recovery.digest_bits

    def test_recovery_reaches_step_events(self):
        from repro.adversary.schedule import deletion_only_schedule
        from repro.engine import AttackSession

        healer = faulty_healer("drop")
        schedule = deletion_only_schedule(
            steps=10, strategy=MaxDegreeDeletion(), min_survivors=3
        )
        session = AttackSession(healer, schedule, measure_every=0, measure_final=False)
        recoveries = [
            event.cost_report.recovery
            for event in session.stream()
            if event.cost_report is not None
        ]
        assert recoveries and all(r is not None for r in recoveries)


class TestRoundBudgetExhaustion:
    """Satellite fix: hitting max_rounds mid-delivery is loud, not silent."""

    def test_budget_exhaustion_reports_leftover_and_discards_it(self):
        healer = faulty_healer("drop", auto_reconverge=False)
        strategy = RandomDeletion(seed=5)
        starved = None
        for _ in range(15):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            healer.delete(victim)
            report = healer.reconverge(max_rounds=1)
            if not report.converged:
                starved = report
                break
            assert report.in_flight_leftover == 0
        assert starved is not None, "max_rounds=1 should starve some recovery"
        assert starved.in_flight_leftover > 0
        # The leftover traffic was discarded, not leaked into the next repair.
        assert healer.network.in_flight == 0
        # Regression (PR 6 satellite): the discarded in-flight messages are
        # *dropped* messages — they must land in the recovery window's
        # ``dropped`` tally, not vanish from the ledger.
        assert starved.dropped >= starved.in_flight_leftover
        # A full-budget pass afterwards still reaches the fixed point.
        final = healer.reconverge()
        assert final.converged
        healer.verify_consistency()

    def test_converged_recovery_reports_no_leftover(self):
        healer = faulty_healer("chaos")
        attack(healer, steps=10)
        for report in healer.recovery_reports:
            assert report.converged
            assert report.in_flight_leftover == 0

    @pytest.mark.parametrize("auto_reconverge", [False, True])
    def test_wave_out_of_rounds_reports_unconverged(self, auto_reconverge):
        # Three rounds cannot finish a hub's repair, with or without the
        # wave's background recovery.
        healer = DistributedForgivingGraph.from_graph(
            make_graph("power_law", 60, seed=3), auto_reconverge=auto_reconverge
        )
        hub = max(sorted(healer.alive_nodes), key=healer.actual_degree)
        burst = healer.delete_batch([hub], max_rounds=3)
        (report,) = burst.reports
        assert burst.rounds == 3
        assert report.dropped_messages > 0
        assert healer.network.in_flight == 0
        assert not report.converged


class TestCrashMidRecovery:
    def test_non_leader_crash_mid_recovery_terminates_cleanly(self):
        healer = faulty_healer("drop", auto_reconverge=False)
        strategy = MaxDegreeDeletion()
        crashed = False
        for _ in range(15):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 4:
                break
            healer.delete(victim)
            repair = healer._installed
            bystanders = [
                node
                for node in repair.participants
                if node != repair.leader and healer.network.has_processor(node)
            ]
            if not crashed and len(bystanders) > 1:
                # Crash one non-leader participant between the repair and
                # its recovery: its context and records die with it.
                healer.network.remove_processor(bystanders[0])
                crashed = True
                report = healer.reconverge()
                # The recovery must terminate without protocol errors:
                # obligations towards the crashed peer are waived, requests
                # to it are never sent, and no traffic is left behind.
                assert report.sweeps >= 1
                assert healer.network.in_flight == 0
            else:
                healer.reconverge()
        assert crashed, "attack too short to stage a crash"

    def test_crash_does_not_block_later_repairs(self):
        healer = faulty_healer("drop", auto_reconverge=False)
        strategy = RandomDeletion(seed=7)
        victim = strategy.choose_victim(healer)
        healer.delete(victim)
        repair = healer._installed
        bystanders = [
            node
            for node in repair.participants
            if node != repair.leader and healer.network.has_processor(node)
        ]
        if bystanders:
            healer.network.remove_processor(bystanders[0])
        healer.reconverge()
        # The network keeps serving repairs for other victims.
        survivors = [
            node
            for node in sorted(healer.alive_nodes, key=str)
            if healer.network.has_processor(node) and healer.num_alive > 4
        ]
        for node in survivors[:2]:
            healer.delete(node)
            healer.reconverge()


def tap_sends(network):
    """Record ``(open epoch window, message)`` for every message ``network`` accepts."""
    sent = []
    send = network.send

    def tapped(message):
        send(message)
        sent.append((network.metrics.epoch_windows.get(message.deleted), message))

    network.send = tapped
    return sent


def tap_closed_windows(network):
    """Collect every epoch window ``network.metrics`` closes, in order."""
    closed = []
    end_epoch_window = network.metrics.end_epoch_window

    def tapped(key):
        window = end_epoch_window(key)
        closed.append(window)
        return window

    network.metrics.end_epoch_window = tapped
    return closed


class TestLedgerAttribution:
    """Each sent message lands in the ledger of the deletion that caused it."""

    @pytest.mark.parametrize("preset", ["lossless", "chaos"])
    def test_deletion_report_charges_every_send(self, preset):
        healer = faulty_healer(preset, seed=11)
        network = healer.network
        sent = tap_sends(network)
        closed = tap_closed_windows(network)
        strategy = RandomDeletion(seed=4)
        recovered = 0
        for _ in range(12):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            sent.clear()
            first = len(closed)
            report = healer.delete(victim)
            assert all(window is not None for window, _ in sent), "a send escaped every ledger"
            # The repair's window closes first; a recovery pass closes its own.
            assert len(closed) - first == (1 if report.recovery is None else 2)
            repair = [m for window, m in sent if window is closed[first]]
            recovery = [m for window, m in sent if window is not closed[first]]

            def bits(messages):
                return sum(m.size_bits(network.n_ever) for m in messages)

            assert report.messages == len(repair)
            assert report.bits == bits(repair)
            by_sender = Counter(m.sender for m in repair)
            assert report.max_messages_per_node == max(by_sender.values(), default=0)
            if report.recovery is None:
                assert recovery == []
                continue
            recovered += 1
            digests = [m for m in recovery if m.kind in DIGEST_KINDS]
            assert report.recovery.digest_messages == len(digests)
            assert report.recovery.digest_bits == bits(digests)
            assert report.recovery.retransmissions == len(recovery) - len(digests)
            assert report.recovery.retransmission_bits == bits(recovery) - bits(digests)
        assert healer.cost_reports
        assert recovered == (0 if preset == "lossless" else len(healer.cost_reports))

    @pytest.mark.parametrize("preset", ["lossless", "chaos"])
    def test_burst_reports_charge_every_send_to_its_epoch(self, preset):
        healer = faulty_healer(preset, seed=11)
        network = healer.network
        sent = tap_sends(network)
        rng = random.Random(3)
        for _ in range(3):
            alive = sorted((n for n in healer.alive_nodes if network.has_processor(n)), key=repr)
            victims = rng.sample(alive, 4)
            sent.clear()
            burst = healer.delete_batch(victims)
            messages = Counter(m.deleted for _, m in sent)
            bits = Counter()
            for _, m in sent:
                bits[m.deleted] += m.size_bits(network.n_ever)
            assert set(messages) <= set(victims)
            assert sorted(r.deleted_node for r in burst.reports) == sorted(victims)
            for report in burst.reports:
                recovery = report.recovery
                assert recovery is not None
                victim = report.deleted_node
                assert messages[victim] == (
                    report.messages + recovery.digest_messages + recovery.retransmissions
                )
                assert bits[victim] == (
                    report.bits + recovery.digest_bits + recovery.retransmission_bits
                )


class TestDropInFlight:
    def test_drop_in_flight_clears_queues(self):
        healer = DistributedForgivingGraph.from_edges([(0, i) for i in range(1, 6)])
        network = healer.network
        from repro.distributed import DeletionNotice

        network.send(DeletionNotice(sender=0, receiver=1, deleted=99))
        assert network.in_flight == 1
        assert network.drop_in_flight() == 1
        assert network.in_flight == 0
        assert network.drop_in_flight() == 0
