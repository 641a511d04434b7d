"""Fault injection for the message-passing substrate.

The paper's model assumes reliable synchronous links; self-stabilizing work
(Devismes et al.'s silent protocols, the PODS heterogeneous-overlay line)
treats the interesting regime instead: messages may be *dropped*, *delayed*
or *reordered*, and the protocol must detect the resulting inconsistency and
reconverge.  This module provides the per-link fault policies the
:class:`~repro.distributed.network.Network` applies at delivery time:

* :class:`LinkFaultPolicy` — probabilities for one link (or the default),
* :class:`ByzantinePolicy` — probabilities that one *processor* lies: it
  corrupts outgoing piece descriptors, doctors digest chunks, flips probe
  status claims, equivocates helper assignments, or authors forged (but
  validly-sealed) digests.  Fault-layer lies keep the honest payload seal
  (the adversary cannot forge the author's MAC), so receivers detect them
  locally; authored forgeries are caught by cross-witnessing in
  :mod:`repro.distributed.processor`.
* :class:`FaultSchedule` — a seeded RNG plus policies; deterministic given
  ``(seed, message sequence)``, so every faulty run is replayable.  The
  byzantine axis draws from a *separate* RNG stream, so delivery-fault
  decisions are bit-identical with or without byzantine processors.
* :func:`fault_schedule` — named presets: the delivery-only
  :data:`DELIVERY_PRESETS` (``"drop"``, ``"delay"``, ``"reorder"``,
  ``"chaos"``) used by the E11/E12 experiments and the tests, plus the
  byzantine presets (``"byzantine"``, ``"byzantine-chaos"``) used by E13
  and ``tests/test_distributed_byzantine.py``.
* :class:`FaultSpec` — the typed-config entry point unifying preset
  strings and explicit :class:`FaultSchedule` objects
  (:meth:`FaultSpec.parse`) under one value the experiment configs, the
  sweeps and the healer service all accept.

Faults apply only to protocol traffic travelling through
:meth:`Network.deliver_round` (delivery faults) or entering
:meth:`Network.send` (byzantine payload corruption); the model-level
notifications of Figure 1 (deletion/insertion awareness) are delivered out
of band and stay exempt, matching the paper's assumption that the
adversary's moves themselves are observed reliably.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.ports import NodeId
from .messages import Message, PortDigest

__all__ = [
    "LinkFaultPolicy",
    "ByzantinePolicy",
    "FaultSchedule",
    "FaultSpec",
    "fault_schedule",
    "FAULT_PRESETS",
    "DELIVERY_PRESETS",
    "BYZANTINE_PRESETS",
    "ByzantineSpec",
]


@dataclass(frozen=True)
class LinkFaultPolicy:
    """Fault probabilities for one link (all zero = reliable link)."""

    #: Probability that a message on this link is silently dropped.
    drop: float = 0.0
    #: Probability that a message is delayed by 1..``max_delay`` extra rounds
    #: (judged once, at send time — the delay is bounded by ``max_delay``).
    delay: float = 0.0
    #: Largest delay in rounds a delayed message can suffer.
    max_delay: int = 3
    #: Probability that a message on this link loses its delivery slot: all
    #: such messages of a round are delivered in a shuffled order relative
    #: to each other (within-round reordering).
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must lie in [0, 1], got {value}")
        if self.max_delay < 1:
            raise ValueError("max_delay must be at least 1 round")

    @property
    def is_reliable(self) -> bool:
        return self.drop == 0.0 and self.delay == 0.0 and self.reorder == 0.0


RELIABLE = LinkFaultPolicy()


@dataclass(frozen=True)
class ByzantinePolicy:
    """Lie probabilities for one processor (all zero = honest).

    The first four modes are *payload corruptions*: the fault layer mutates
    an already-authored message while retaining the honest seal/checksum
    tags (modelling an adversary that controls the processor's output but
    cannot forge MACs) — any receiver detects these locally.  ``forge`` is
    the stronger *authored lie*: the processor itself constructs a
    validly-sealed digest vouching a false descriptor for a piece it owns;
    only a cross-witness holding the true copy can catch that one.
    """

    #: Probability an outgoing report/list/digest's piece descriptors are
    #: corrupted (wrong leaf count, height, or representative port).
    corrupt_pieces: float = 0.0
    #: Probability an outgoing spine digest flips its probed/stripped claims.
    lie_status: float = 0.0
    #: Probability an outgoing record digest's Table 1 summaries are doctored.
    lie_records: float = 0.0
    #: Probability an outgoing helper assignment / parent update is mutated
    #: per copy — different recipients receive different payloads.
    equivocate: float = 0.0
    #: Probability per recovery sweep that the processor authors a forged,
    #: validly-sealed digest about one of its own confirmed pieces.
    forge: float = 0.0

    def __post_init__(self) -> None:
        for name in ("corrupt_pieces", "lie_status", "lie_records", "equivocate", "forge"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must lie in [0, 1], got {value}")

    @property
    def is_honest(self) -> bool:
        return (
            self.corrupt_pieces == 0.0
            and self.lie_status == 0.0
            and self.lie_records == 0.0
            and self.equivocate == 0.0
            and self.forge == 0.0
        )


HONEST = ByzantinePolicy()


@dataclass(frozen=True)
class ByzantineSpec:
    """Preset-level byzantine configuration: population fraction + policy."""

    fraction: float
    policy: ByzantinePolicy


class FaultSchedule:
    """Seeded per-link fault decisions, deterministic and replayable.

    Parameters
    ----------
    default:
        Policy applied to links without a specific entry.
    per_link:
        Optional overrides keyed by the (unordered) endpoint pair.
    seed:
        RNG seed; the same seed and message sequence reproduce the same
        drops/delays/shuffles exactly, which is what makes the
        reconvergence tests deterministic.
    byzantine:
        Optional explicit per-processor byzantine policies.
    byzantine_fraction / byzantine_policy:
        Population-level byzantine axis: each processor not named in
        ``byzantine`` is byzantine with ``byzantine_fraction`` probability
        (a stable seeded hash of its id — order-independent and
        deterministic) and, if so, lies per ``byzantine_policy``.
    """

    def __init__(
        self,
        default: LinkFaultPolicy = RELIABLE,
        per_link: Optional[Dict[Tuple[NodeId, NodeId], LinkFaultPolicy]] = None,
        seed: int = 0,
        name: str = "custom",
        byzantine: Optional[Dict[NodeId, ByzantinePolicy]] = None,
        byzantine_fraction: float = 0.0,
        byzantine_policy: Optional[ByzantinePolicy] = None,
    ) -> None:
        self.default = default
        self.per_link: Dict[FrozenSet[NodeId], LinkFaultPolicy] = {
            frozenset(pair): policy for pair, policy in (per_link or {}).items()
        }
        self.seed = seed
        self.name = name
        #: True when some policy can reorder at all — lets the network skip
        #: the per-round shuffle machinery entirely otherwise (judging a
        #: zero-probability reorder consumes no RNG, so skipping is exact).
        self.has_reorder = default.reorder > 0.0 or any(
            policy.reorder > 0.0 for policy in self.per_link.values()
        )
        self._rng = np.random.default_rng(seed)
        # Byzantine axis.  Lies draw from a *separate* RNG stream so the
        # delivery-fault decisions above are bit-identical with or without
        # byzantine processors (same seed => same drops/delays/shuffles).
        if not 0.0 <= byzantine_fraction <= 1.0:
            raise ValueError(
                f"byzantine_fraction must lie in [0, 1], got {byzantine_fraction}"
            )
        self.byzantine: Dict[NodeId, ByzantinePolicy] = dict(byzantine or {})
        self.byzantine_fraction = byzantine_fraction
        self.byzantine_policy = byzantine_policy if byzantine_policy is not None else HONEST
        self._byz_rng = np.random.default_rng([seed, 0xB12A])
        self._byz_cache: Dict[NodeId, bool] = {}

    def policy_for(self, sender: NodeId, receiver: NodeId) -> LinkFaultPolicy:
        # Presets never set per-link overrides, so the common case skips the
        # per-message frozenset allocation entirely (RNG use is unchanged —
        # the returned policy decides that, not the lookup).
        if not self.per_link:
            return self.default
        return self.per_link.get(frozenset((sender, receiver)), self.default)

    def judge(self, sender: NodeId, receiver: NodeId) -> int:
        """Fate of one message: ``-1`` = drop, ``0`` = deliver now, ``k>0`` = delay ``k`` rounds."""
        policy = self.policy_for(sender, receiver)
        if policy.is_reliable:
            return 0
        roll = self._rng.random()
        if roll < policy.drop:
            return -1
        if roll < policy.drop + policy.delay:
            return int(self._rng.integers(1, policy.max_delay + 1))
        return 0

    def shuffle_round(self, links: "list[Tuple[NodeId, NodeId]]") -> Optional[np.ndarray]:
        """A permutation of this round's delivery order, or ``None``.

        ``links`` is the (sender, receiver) pair of each message in the
        batch.  Every message whose link's policy rolls a reorder loses its
        slot; the displaced messages are delivered in shuffled order among
        themselves, so reordering respects the per-link policies.
        """
        if len(links) < 2:
            return None
        movable = []
        for index, (sender, receiver) in enumerate(links):
            policy = self.policy_for(sender, receiver)
            if policy.reorder > 0.0 and self._rng.random() < policy.reorder:
                movable.append(index)
        if len(movable) < 2:
            return None
        permutation = np.arange(len(links))
        permutation[movable] = permutation[self._rng.permutation(movable)]
        return permutation

    # ------------------------------------------------------------------ #
    # byzantine axis
    # ------------------------------------------------------------------ #
    @property
    def has_byzantine(self) -> bool:
        if any(not policy.is_honest for policy in self.byzantine.values()):
            return True
        return self.byzantine_fraction > 0.0 and not self.byzantine_policy.is_honest

    def is_byzantine(self, node: NodeId) -> bool:
        """Deterministic membership: explicit entry, else a stable seeded hash.

        The hash depends only on ``(seed, node)`` — not on query order or
        how many processors exist — so membership is replayable and two
        runs over different topologies agree on shared node ids.
        """
        cached = self._byz_cache.get(node)
        if cached is None:
            if node in self.byzantine:
                cached = not self.byzantine[node].is_honest
            elif self.byzantine_fraction > 0.0 and not self.byzantine_policy.is_honest:
                # blake2b, not crc32: crc's high bits are visibly biased on
                # short reprs (a whole 80-node population can miss a 0.2
                # fraction), while a cryptographic digest is uniform.
                digest = hashlib.blake2b(
                    repr((self.seed, node)).encode("utf-8"), digest_size=8
                ).digest()
                cached = (
                    int.from_bytes(digest, "big") / 2**64 < self.byzantine_fraction
                )
            else:
                cached = False
            self._byz_cache[node] = cached
        return cached

    def policy_for_processor(self, node: NodeId) -> ByzantinePolicy:
        explicit = self.byzantine.get(node)
        if explicit is not None:
            return explicit
        return self.byzantine_policy if self.is_byzantine(node) else HONEST

    def byz_roll(self, probability: float) -> bool:
        """One byzantine decision (consumes the byzantine RNG stream only)."""
        return probability > 0.0 and float(self._byz_rng.random()) < probability

    def corrupt_in_place(self, message: Message) -> Optional[str]:
        """Maybe corrupt one outgoing message of a byzantine sender.

        Returns the lie's reason string when a corruption fired (the
        network then tags the message's oracle-side ``byz_origin``), else
        ``None``.  Every corruption first reads ``message.seal`` — freezing
        the honest MAC — then mutates payload fields, so the lie is always
        locally detectable by the receiver; descriptor mutations likewise
        retain the author's content checksum.  Mutations always change
        semantic content (no silent no-ops), so an injected lie is an
        actual lie.
        """
        policy = self.policy_for_processor(message.sender)
        if policy.is_honest:
            return None
        kind = message.kind
        reason = None
        if kind in ("PrimaryRootReport", "PrimaryRootList"):
            if message.roots and self.byz_roll(policy.corrupt_pieces):
                _ = message.seal
                message.roots = self._corrupt_summaries(message.roots)
                reason = "corrupt-pieces"
        elif kind == "Digest":
            if message.records and self.byz_roll(policy.lie_records):
                _ = message.seal
                message.records = self._corrupt_records(message.records)
                reason = "lie-records"
            elif message.pieces and self.byz_roll(policy.corrupt_pieces):
                _ = message.seal
                message.pieces = self._corrupt_summaries(message.pieces)
                reason = "corrupt-pieces"
            elif (
                message.rt_index is not None
                and not message.ack
                and self.byz_roll(policy.lie_status)
            ):
                _ = message.seal
                message.probed = not message.probed
                message.stripped = not message.stripped
                reason = "lie-status"
        elif kind == "HelperAssignment":
            if self.byz_roll(policy.equivocate):
                # Judged per copy: different recipients of the "same"
                # assignment receive differently-mutated payloads.
                _ = message.seal
                message.num_leaves = message.num_leaves + 1 + int(self._byz_rng.integers(3))
                message.height += 1
                reason = "equivocate"
        elif kind == "ParentUpdate":
            if self.byz_roll(policy.equivocate):
                _ = message.seal
                message.epoch += 1
                message.child_is_helper = not message.child_is_helper
                reason = "equivocate"
        if reason is not None:
            message.byz_origin = message.sender
        return reason

    def _corrupt_summaries(self, items: Sequence[object]) -> Tuple[object, ...]:
        """Corrupt one descriptor of the batch, retaining its honest checksum."""
        out = list(items)
        index = int(self._byz_rng.integers(len(out)))
        original = out[index]
        mode = int(self._byz_rng.integers(3))
        if mode == 2 and original.representative != original.root_port:
            fake = dataclasses.replace(original, representative=original.root_port)
        elif mode == 1:
            fake = dataclasses.replace(original, height=original.height + 1)
        else:
            fake = dataclasses.replace(original, num_leaves=original.num_leaves + 1)
        # Read unfrozen, the lie's checksum would be computed over the lie;
        # the adversary cannot forge the author's tag, so the lie carries the
        # honest one, which reading ``original.checksum`` freezes.
        object.__setattr__(fake, "checksum", original.checksum)
        out[index] = fake
        return tuple(out)

    def _corrupt_records(self, records: Sequence[PortDigest]) -> Tuple[PortDigest, ...]:
        """Doctor one Table 1 record summary, retaining its honest checksum."""
        out = list(records)
        index = int(self._byz_rng.integers(len(out)))
        original = out[index]
        mode = int(self._byz_rng.integers(3))
        if mode == 0:
            fake = dataclasses.replace(original, helper_for_victim=not original.helper_for_victim)
        elif mode == 1:
            fake = dataclasses.replace(original, links_ok=not original.links_ok)
        else:
            fake = dataclasses.replace(
                original,
                rt_parent=None if original.rt_parent is not None else original.port,
            )
        object.__setattr__(fake, "checksum", original.checksum)
        out[index] = fake
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultSchedule({self.name!r}, seed={self.seed}, default={self.default})"


#: Delivery-only presets: the vocabulary shared by experiments E11/E12, the
#: reconvergence tests and the healer service, all of which compare against
#: the engine oracle (which requires every processor to be *honest* so the
#: message-built state can converge to the engine exactly).
DELIVERY_PRESETS: Dict[str, LinkFaultPolicy] = {
    "lossless": RELIABLE,
    "drop": LinkFaultPolicy(drop=0.15),
    "delay": LinkFaultPolicy(delay=0.25, max_delay=4),
    "reorder": LinkFaultPolicy(reorder=0.5),
    "chaos": LinkFaultPolicy(drop=0.1, delay=0.15, max_delay=3, reorder=0.3),
}

#: Lie mix used by the named byzantine presets.
_BYZANTINE_POLICY = ByzantinePolicy(
    corrupt_pieces=0.3,
    lie_status=0.15,
    lie_records=0.3,
    equivocate=0.25,
    forge=0.2,
)

#: Byzantine presets: population fraction + per-processor lie policy, keyed
#: by the same names as their :data:`FAULT_PRESETS` delivery entries.
BYZANTINE_PRESETS: Dict[str, ByzantineSpec] = {
    "byzantine": ByzantineSpec(fraction=0.2, policy=_BYZANTINE_POLICY),
    "byzantine-chaos": ByzantineSpec(fraction=0.2, policy=_BYZANTINE_POLICY),
}

#: Named presets: every delivery preset, plus the byzantine presets
#: (``"byzantine"`` lies over reliable links; ``"byzantine-chaos"`` combines
#: lies with the ``chaos`` delivery policy).  Experiments that score the
#: protocol against the engine *oracle* iterate :data:`DELIVERY_PRESETS`
#: instead — quarantining a liar leaves a deliberate, permanent divergence.
FAULT_PRESETS: Dict[str, LinkFaultPolicy] = {
    **DELIVERY_PRESETS,
    "byzantine": RELIABLE,
    "byzantine-chaos": DELIVERY_PRESETS["chaos"],
}


def fault_schedule(preset: str, seed: int = 0) -> Optional[FaultSchedule]:
    """Build the named preset's schedule (``None`` for ``"lossless"``)."""
    try:
        policy = FAULT_PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown fault preset {preset!r}; available: {sorted(FAULT_PRESETS)}"
        ) from None
    spec = BYZANTINE_PRESETS.get(preset)
    if policy.is_reliable and spec is None:
        return None
    if spec is None:
        return FaultSchedule(default=policy, seed=seed, name=preset)
    return FaultSchedule(
        default=policy,
        seed=seed,
        name=preset,
        byzantine_fraction=spec.fraction,
        byzantine_policy=spec.policy,
    )


@dataclass(frozen=True)
class FaultSpec:
    """The typed fault axis: one value every configuration surface accepts.

    The fault axis arrives as preset strings
    (:class:`repro.experiments.config.AttackConfig`) or as
    :class:`FaultSchedule` objects handed straight to healer constructors.
    ``FaultSpec`` is the single entry point: :meth:`parse` normalizes
    ``None`` / preset string / ``FaultSchedule`` / ``FaultSpec`` into one
    frozen value, and :meth:`build` materializes the seeded schedule on
    demand.  Every rejection names the full preset vocabulary, extending
    the :func:`fault_schedule` ValueError contract.

    A spec built from a preset is declarative and JSON-serializable
    (``{"preset": ..., "seed": ...}``); a spec wrapping an explicit
    :class:`FaultSchedule` carries live RNG state and is therefore
    rejected by :meth:`to_json` — the healer service persists its fault
    axis, so :class:`repro.service.ServiceConfig` only accepts the
    declarative form.
    """

    preset: str = "lossless"
    #: Seed for the materialized schedule; ``None`` defers to the seed the
    #: caller passes to :meth:`build` (usually the experiment seed).
    seed: Optional[int] = None
    #: Explicit pre-built schedule (overrides ``preset``/``seed``); carries
    #: live RNG state, so such a spec is not JSON-serializable.
    schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.schedule is None and self.preset not in FAULT_PRESETS:
            raise ValueError(
                f"unknown fault preset {self.preset!r}; available: {sorted(FAULT_PRESETS)}"
            )

    # ------------------------------------------------------------------ #
    # parsing
    # ------------------------------------------------------------------ #
    @classmethod
    def parse(
        cls,
        value: Union[None, str, FaultSchedule, "FaultSpec"],
        seed: Optional[int] = None,
    ) -> "FaultSpec":
        """Normalize any accepted fault-axis shape into one ``FaultSpec``.

        ``None`` means lossless; a string names a preset (unknown names
        raise a ``ValueError`` listing every preset); a ``FaultSchedule``
        is wrapped as an explicit schedule; an existing ``FaultSpec``
        passes through (re-seeded when it had no seed and ``seed`` is
        given).  Any other type is a ``TypeError``.
        """
        if value is None:
            return cls(preset="lossless", seed=seed)
        if isinstance(value, FaultSpec):
            if seed is not None and value.seed is None and value.schedule is None:
                return dataclasses.replace(value, seed=seed)
            return value
        if isinstance(value, FaultSchedule):
            return cls(preset=value.name, seed=value.seed, schedule=value)
        if isinstance(value, str):
            return cls(preset=value, seed=seed)
        raise TypeError(
            "fault axis must be None, a preset name, a FaultSchedule or a "
            f"FaultSpec, got {type(value).__name__}"
        )

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #
    @property
    def is_lossless(self) -> bool:
        """True when :meth:`build` returns ``None`` (no fault machinery)."""
        if self.schedule is not None:
            return False
        return self.preset == "lossless"

    def build(self, seed: Optional[int] = None) -> Optional[FaultSchedule]:
        """Materialize the seeded schedule (``None`` on the lossless axis).

        The explicit ``schedule`` wins when present; otherwise the preset
        is built with the spec's own seed, falling back to the caller's
        ``seed`` (the usual experiment seed), falling back to ``0``.  A
        preset spec builds a *fresh* schedule each call — RNG state is
        never shared between consumers.
        """
        if self.schedule is not None:
            return self.schedule
        resolved = self.seed if self.seed is not None else (seed if seed is not None else 0)
        return fault_schedule(self.preset, seed=resolved)

    def to_json(self) -> Dict[str, object]:
        """The declarative form (raises for explicit-schedule specs)."""
        if self.schedule is not None:
            raise ValueError(
                "a FaultSpec wrapping an explicit FaultSchedule carries live "
                "RNG state and cannot be serialized; use a preset spec"
            )
        return {"preset": self.preset, "seed": self.seed}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "FaultSpec":
        return cls(preset=str(payload["preset"]), seed=payload.get("seed"))  # type: ignore[arg-type]

    def describe(self) -> str:
        if self.schedule is not None:
            return f"schedule:{self.schedule.name}"
        return self.preset
