"""Byzantine payload faults: message-native accountable detection (PR 6).

Three layers of coverage:

* primitives — lazy message seals, descriptor content checksums, and the
  fault layer's guarantee that every injected lie is a *detectable* lie
  (stale seal or stale checksum) while authored forgeries verify clean;
* end-to-end per lie class — corrupted descriptors, digest status/record
  lies, equivocated assignments and forged digests each end in an
  accusation that names the right processor, quarantines it, and still
  lets the recovery reach its silent fixed point with the plan audit
  poisoned;
* accounting — the oracle-side injection log vs the protocol-side
  transcript (every delivered lie accused, zero false accusations, honest
  runs under every delivery preset accusation-free), and the per-deletion
  ``ByzantineReport`` threaded through ``DeletionCostReport`` into the
  session's ``StepEvent`` stream.
"""

import dataclasses

import pytest

from repro.adversary import MaxDegreeDeletion, RandomDeletion
from repro.adversary.schedule import deletion_only_schedule
from repro.core.ports import Port
from repro.distributed import DistributedForgivingGraph, Network
from repro.distributed.accountability import (
    AccountabilityTranscript,
    InjectionLog,
)
from repro.distributed.faults import (
    BYZANTINE_PRESETS,
    DELIVERY_PRESETS,
    ByzantinePolicy,
    FaultSchedule,
    fault_schedule,
)
from repro.distributed.merge import PieceSummary
from repro.distributed.messages import (
    SEALED_KINDS,
    Digest,
    PrimaryRootList,
)
from repro.distributed.metrics import aggregate_byzantine
from repro.distributed.processor import Processor
from repro.engine import AttackSession
from repro.generators import make_graph


def make_summary(num_leaves: int = 1) -> PieceSummary:
    port = Port(processor=1, neighbor=2)
    return PieceSummary(
        root_port=port,
        root_is_leaf=num_leaves == 1,
        num_leaves=num_leaves,
        height=0 if num_leaves == 1 else 1,
        representative=port,
    )


def byzantine_attack(
    *,
    policy: ByzantinePolicy,
    fraction: float = 0.35,
    n: int = 48,
    steps: int = 18,
    seed: int = 9,
    delivery=None,
) -> DistributedForgivingGraph:
    """A max-degree attack with the given lie policy, both quarantines armed."""
    kwargs = {"default": delivery} if delivery is not None else {}
    schedule = FaultSchedule(
        seed=seed,
        name="byz-test",
        byzantine_fraction=fraction,
        byzantine_policy=policy,
        **kwargs,
    )
    return attack_under(schedule, n=n, steps=steps, seed=seed)


def attack_under(
    schedule: FaultSchedule, *, n: int = 48, steps: int = 18, seed: int = 9
) -> DistributedForgivingGraph:
    """A max-degree attack under ``schedule``, both quarantines armed."""
    healer = DistributedForgivingGraph.from_graph(
        make_graph("power_law", n, seed=seed),
        fault_schedule=schedule,
        quarantine_oracle=True,
        quarantine_plan_audit=True,
    )
    strategy = MaxDegreeDeletion()
    for _ in range(steps):
        victim = strategy.choose_victim(healer)
        if victim is None or healer.num_alive <= 3:
            break
        healer.delete(victim)
    return healer


def assert_accountable(healer: DistributedForgivingGraph) -> None:
    """The run-level acceptance bar of a byzantine run."""
    schedule = healer.fault_schedule
    transcript = healer.network.transcript
    injection = healer.network.injection_log
    accused = set(transcript.accused)
    # Every processor whose lie was actually delivered is accused — and
    # nobody else: lies dropped in flight never reached a verifier.
    assert accused == injection.origins_with_delivered_lies
    assert all(schedule.is_byzantine(node) for node in accused)
    # Quarantine is the crash machinery: accused processors are gone.
    assert healer.network.quarantined == accused
    assert all(not healer.network.has_processor(node) for node in accused)
    # Recovery reached the silent fixed point around every quarantine,
    # with the repair plan's global knowledge poisoned throughout.
    assert all(report.converged for report in healer.cost_reports)


class TestIntegrityPrimitives:
    def test_fresh_sealed_messages_verify_clean(self):
        message = PrimaryRootList(
            sender=1, receiver=2, deleted=0, roots=(make_summary(),)
        )
        assert message.kind in SEALED_KINDS
        assert message.seal_valid()
        assert Processor._verify(message) is None

    def test_post_seal_mutation_is_detected(self):
        message = PrimaryRootList(
            sender=1, receiver=2, deleted=0, roots=(make_summary(),)
        )
        _ = message.seal  # the fault layer freezes the honest MAC first
        message.roots = (make_summary(num_leaves=2),)
        assert not message.seal_valid()
        assert Processor._verify(message) == "stale-seal"

    def test_descriptor_checksum_survives_copies_but_not_tampering(self):
        honest = make_summary()
        relayed = dataclasses.replace(honest)
        assert relayed.checksum_valid()  # honest copies re-derive cleanly
        tampered = dataclasses.replace(honest, num_leaves=2, root_is_leaf=False)
        object.__setattr__(tampered, "checksum", honest.checksum)
        object.__setattr__(tampered, "_checksum_ok", None)
        assert not tampered.checksum_valid()

    def test_authored_forgery_verifies_clean_locally(self):
        # A byzantine *author* reseals a self-consistent lie: no local
        # check can catch it — that is what cross-witnessing is for.
        forged = dataclasses.replace(make_summary(), num_leaves=2)
        assert forged.checksum_valid()
        message = Digest(
            sender=1,
            receiver=2,
            deleted=0,
            rt_index=0,
            probed=True,
            stripped=True,
            pieces=(forged,),
        )
        assert Processor._verify(message) is None

    def test_corrupt_in_place_always_yields_a_detectable_lie(self):
        policy = ByzantinePolicy(
            corrupt_pieces=1.0, lie_status=1.0, lie_records=1.0, equivocate=1.0
        )
        schedule = FaultSchedule(seed=3, byzantine={1: policy})
        for build in (
            lambda: PrimaryRootList(
                sender=1, receiver=2, deleted=0, roots=(make_summary(),)
            ),
            lambda: Digest(
                sender=1,
                receiver=2,
                deleted=0,
                rt_index=0,
                probed=True,
                stripped=True,
                pieces=(make_summary(),),
            ),
        ):
            message = build()
            reason = schedule.corrupt_in_place(message)
            assert reason is not None
            assert Processor._verify(message) is not None


class TestDeterminism:
    def test_membership_is_stable_and_seeded(self):
        a = FaultSchedule(
            seed=5, byzantine_fraction=0.2, byzantine_policy=BYZANTINE_PRESETS["byzantine"].policy
        )
        b = FaultSchedule(
            seed=5, byzantine_fraction=0.2, byzantine_policy=BYZANTINE_PRESETS["byzantine"].policy
        )
        picks = [node for node in range(300) if a.is_byzantine(node)]
        assert picks == [node for node in range(300) if b.is_byzantine(node)]
        # The fraction is actually realized (the crc32 hash this replaced
        # could leave a whole population honest).
        assert 0.1 < len(picks) / 300 < 0.3
        other = FaultSchedule(
            seed=6, byzantine_fraction=0.2, byzantine_policy=BYZANTINE_PRESETS["byzantine"].policy
        )
        assert picks != [node for node in range(300) if other.is_byzantine(node)]

    def test_same_seed_replays_the_same_lies_and_accusations(self):
        def fingerprint():
            healer = byzantine_attack(policy=BYZANTINE_PRESETS["byzantine"].policy)
            transcript = healer.network.transcript
            injection = healer.network.injection_log
            return (
                injection.total_sent,
                injection.total_delivered,
                [(a.accused, a.reporter, a.reason, a.round) for a in transcript.accusations],
            )

        assert fingerprint() == fingerprint()


# Each lie class paired with the weakest delivery regime that exercises it.
# Authored forgeries (``forge``) fire only during *multi-sweep* recoveries —
# the target must be a piece the receiver already confirmed, and under
# reliable delivery recovery is a single silent sweep with nothing confirmed
# at tick time — so that class runs over the chaos delivery policy.
LIE_CLASSES = {
    "corrupt-pieces": (ByzantinePolicy(corrupt_pieces=1.0), None),
    "lie-status": (ByzantinePolicy(lie_status=1.0), None),
    "lie-records": (ByzantinePolicy(lie_records=1.0), None),
    "equivocate": (ByzantinePolicy(equivocate=1.0), None),
    "forge": (ByzantinePolicy(forge=1.0), DELIVERY_PRESETS["chaos"]),
}


class TestLieClasses:
    @pytest.mark.parametrize("lie", sorted(LIE_CLASSES))
    def test_each_lie_class_is_detected_attributed_and_contained(self, lie):
        policy, delivery = LIE_CLASSES[lie]
        healer = byzantine_attack(policy=policy, delivery=delivery)
        injection = healer.network.injection_log
        assert injection.total_sent > 0, f"{lie}: the attack never exercised the lie"
        assert_accountable(healer)
        assert len(healer.network.transcript) > 0

    @pytest.mark.parametrize("preset", sorted(BYZANTINE_PRESETS))
    def test_preset_policy_combines_all_classes(self, preset):
        healer = attack_under(fault_schedule(preset, seed=9))
        assert healer.network.injection_log.total_sent > 0
        assert_accountable(healer)
        summary = aggregate_byzantine([r.byzantine for r in healer.cost_reports])
        assert summary["lies_delivered"] > 0
        assert summary["accusations"] > 0
        assert summary["max_containment_radius"] >= 1

    def test_accusations_carry_evidence_messages(self):
        healer = byzantine_attack(policy=BYZANTINE_PRESETS["byzantine"].policy)
        for accusation in healer.network.transcript.accusations:
            assert accusation.evidence  # at least the lying message itself
            described = accusation.describe()
            assert str(accusation.accused) in described
            assert accusation.reason in described


class TestQuarantineIsCrashSemantics:
    def test_insert_next_to_a_quarantined_neighbor_is_safe(self):
        healer = byzantine_attack(policy=BYZANTINE_PRESETS["byzantine"].policy)
        # A quarantined processor the oracle still counts alive (the attack
        # may delete quarantined nodes too — those are plain dead).
        quarantined = next(
            q for q in sorted(healer.network.quarantined, key=repr)
            if healer.is_alive(q)
        )
        alive_neighbor = next(
            node
            for node in healer.alive_nodes
            if healer.network.has_processor(node)
        )
        healer.insert("fresh", attach_to=[quarantined, alive_neighbor])
        # Oracle records both edges; the protocol only wired the live one.
        processor = healer.network.processors["fresh"]
        assert alive_neighbor in processor.edges
        assert quarantined not in processor.edges

    def test_deleting_an_already_quarantined_victim_is_safe(self):
        healer = byzantine_attack(policy=BYZANTINE_PRESETS["byzantine"].policy)
        quarantined = next(
            q for q in sorted(healer.network.quarantined, key=repr)
            if healer.is_alive(q)
        )
        report = healer.delete(quarantined)
        assert report.converged
        assert not healer.is_alive(quarantined)


class TestReportThreading:
    def test_cost_reports_carry_byzantine_deltas(self):
        healer = byzantine_attack(policy=BYZANTINE_PRESETS["byzantine"].policy)
        reports = [r.byzantine for r in healer.cost_reports]
        assert all(b is not None for b in reports)
        totals = aggregate_byzantine(reports)
        injection = healer.network.injection_log
        transcript = healer.network.transcript
        assert totals["lies_sent"] == injection.total_sent
        assert totals["lies_delivered"] == injection.total_delivered
        assert totals["accusations"] == len(transcript)
        assert totals["accused"] == len(transcript.accused)
        assert totals["false_accusations"] == 0
        accused_with_delivered = injection.origins_with_delivered_lies
        if accused_with_delivered:
            assert totals["max_containment_radius"] >= 1
        # The containment radius is the oracle's count of distinct
        # processors the liar's payloads reached.
        for report in reports:
            for origin, radius in report.containment.items():
                assert radius == injection.containment_radius(origin)

    def test_as_row_exposes_the_containment_columns(self):
        healer = byzantine_attack(policy=BYZANTINE_PRESETS["byzantine"].policy)
        lying = next(
            r for r in healer.cost_reports if r.byzantine and r.byzantine.newly_accused
        )
        row = lying.as_row()
        assert row["lies_delivered"] > 0
        assert row["accusations"] > 0
        assert row["containment_radius"] >= 1

    def test_step_events_stream_the_byzantine_report(self):
        graph = make_graph("power_law", 48, seed=9)
        healer = DistributedForgivingGraph.from_graph(
            graph,
            fault_schedule=fault_schedule("byzantine", seed=9),
            quarantine_plan_audit=True,
        )
        schedule = deletion_only_schedule(
            steps=18, strategy=MaxDegreeDeletion(), min_survivors=3
        )
        session = AttackSession(
            healer,
            schedule,
            healer_name="distributed_forgiving_graph",
            measure_every=0,
            measure_final=False,
        )
        saw_byzantine = False
        for event in session.stream():
            if event.kind != "delete" or event.cost_report is None:
                continue
            byzantine = event.cost_report.byzantine
            assert byzantine is not None
            if byzantine.newly_accused:
                saw_byzantine = True
                assert byzantine.quarantined_total >= len(byzantine.newly_accused)
        assert saw_byzantine, "attack too short to surface an accusation"


class TestHonestRunsStayAccusationFree:
    """Satellite: delivery faults are never mistaken for byzantine lies."""

    @pytest.mark.parametrize("preset", sorted(DELIVERY_PRESETS))
    def test_no_accusations_under_delivery_faults(self, preset):
        graph = make_graph("power_law", 40, seed=21)
        healer = DistributedForgivingGraph.from_graph(
            graph, fault_schedule=fault_schedule(preset, seed=21)
        )
        strategy = RandomDeletion(seed=21)
        for _ in range(14):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            healer.delete(victim)
        transcript = healer.network.transcript
        assert len(transcript) == 0
        assert not healer.network.quarantined
        assert healer.network.injection_log.total_sent == 0


class TestAccountabilityLedger:
    def test_every_network_verifies_and_records(self):
        """Receive-time verification has no off switch."""
        assert isinstance(Network().transcript, AccountabilityTranscript)
        with pytest.raises(TypeError):
            Network(**{"accountability": False})

    def test_injection_log_radius_and_latency(self):
        log = InjectionLog()
        log.note_sent("liar", round=3)
        log.note_sent("liar", round=5)
        log.note_delivered("liar", "a")
        log.note_delivered("liar", "b")
        log.note_delivered("liar", "a")  # same receiver counted once
        assert log.total_sent == 2
        assert log.total_delivered == 3
        assert log.containment_radius("liar") == 2
        assert log.origins_with_delivered_lies == {"liar"}

        transcript = AccountabilityTranscript()
        transcript.record(
            accused="liar", reporter="a", reason="stale-seal", evidence=(), round=7
        )
        assert log.detection_latency("liar", transcript) == 4  # 7 - 3
        assert log.detection_latency("never-caught", transcript) is None

    def test_sent_but_undelivered_lies_are_not_expected_catches(self):
        log = InjectionLog()
        log.note_sent("dropped-liar", round=1)
        assert log.origins_with_delivered_lies == set()

    def test_transcript_first_accusation_round_is_sticky(self):
        transcript = AccountabilityTranscript()
        transcript.record(
            accused="x", reporter="a", reason="stale-seal", evidence=(), round=4
        )
        transcript.record(
            accused="x", reporter="b", reason="conflicting-descriptor", evidence=(), round=9
        )
        assert transcript.first_accusation_round["x"] == 4
        assert len(transcript) == 2
        assert transcript.accused == {"x"}
        assert transcript.reporters("x") == {"a", "b"}
