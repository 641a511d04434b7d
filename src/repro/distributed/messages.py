"""Message vocabulary of the distributed repair protocol.

Each message type corresponds to one of the exchanges described in
Section 4.2 and the pseudocode of Appendix A:

* :class:`DeletionNotice` / :class:`InsertionNotice` — the model-level
  notifications of Figure 1 ("all neighbours of ``v_t`` are informed"),
* :class:`AnchorLink` — phase 1 of the repair: the anchors of the affected
  reconstruction-tree fragments link up into the binary tree ``BT_v``,
* :class:`Probe` / :class:`PrimaryRootReport` — ``FindPrRoots``
  (Algorithm A.5): walking the right spine of a fragment to locate primary
  roots and reporting them back to the anchor,
* :class:`PrimaryRootList` — anchors exchanging their primary-root lists
  with their ``BT_v`` parent/children (Algorithm A.7),
* :class:`HelperAssignment` — the merge instruction telling a processor to
  instantiate (or drop) a helper node with given parent/children
  (Algorithms A.8/A.9),
* :class:`Digest` / :class:`DigestRequest` — the anti-entropy recovery
  protocol (PR 5, in the style of self-stabilizing silent protocols): each
  repair participant periodically gossips a compact digest of its *own*
  repair state (probe seen?  pieces vouched for?  assignments applied?)
  along the spine/anchor links, and the merge leader pulls
  :class:`PortDigest` record summaries from the owners it instructed, so
  divergence is detected from messages instead of a global audit.

Message sizes are measured in *words* of ``O(log n)`` bits: a node or port
identifier costs one word, so Lemma 4's "messages of size ``O(log n)``"
corresponds to a constant number of words per message.
:class:`PrimaryRootReport` / :class:`PrimaryRootList` carry a few words per
primary-root descriptor and are chunked at :data:`MAX_ROOTS_PER_MESSAGE`
descriptors, so even they never exceed ``O(log n)`` bits per message.

Byzantine accountability (PR 6) adds cheap integrity tags:

* every structural message carries a lazily-computed **seal** over its
  payload fields (:attr:`Message.seal` / :meth:`Message.seal_valid`),
  simulating an unforgeable MAC over the payload the sender authored.  An
  honest message is valid by construction; the fault layer's post-hoc
  payload corruption leaves a *stale* seal behind, which any receiver can
  detect locally.  A byzantine processor may still *author* a lie (forge a
  fresh, validly-sealed payload) — those are caught by cross-witnessing in
  :mod:`repro.distributed.processor`, not here.
* :class:`PortDigest` (and :class:`~repro.distributed.merge.PieceSummary`)
  embed a content **checksum** so corrupted descriptors are detected even
  when relayed verbatim inside an honestly-sealed envelope.

Both tags cost O(1) words (folded into the existing per-descriptor word
counts) and are computed lazily, so the lossless fast path pays nothing
when nobody verifies.

Every message class is a slotted dataclass: no per-instance ``__dict__``,
the envelope (sender, receiver, id, provenance tag, lazy seal cache) is
declared once on :class:`Message`, and each subclass declares only its
payload fields, in positional order.  ``kind``, ``sealed`` and fixed
payload sizes are class attributes, so the delivery loop pays attribute
loads, not method calls; a sealed kind's seal covers its declared payload
fields in declaration order.  A message is built once by its sender,
stamped with a per-network id when it enters
:meth:`~repro.distributed.network.Network.send`, and never reused.
"""

from __future__ import annotations

import inspect
import itertools
import math
import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.ports import NodeId, Port

__all__ = [
    "Message",
    "DeletionNotice",
    "InsertionNotice",
    "AnchorLink",
    "Probe",
    "PrimaryRootReport",
    "PrimaryRootList",
    "ParentUpdate",
    "HelperAssignment",
    "Digest",
    "DigestRequest",
    "PortDigest",
    "words_to_bits",
    "payload_checksum",
    "SEALED_KINDS",
]

#: Fallback id source for messages constructed outside any network (unit
#: tests).  Messages that travel through a
#: :class:`~repro.distributed.network.Network` are re-stamped from that
#: network's own counter, so in-network ids are deterministic per run
#: regardless of how many networks the process ran earlier.
_message_counter = itertools.count(1)


def payload_checksum(*parts: object) -> int:
    """Cheap content checksum over payload parts (CRC32 of their repr).

    Ports have stable memoized reprs and descriptor dataclasses exclude
    their own checksum fields from ``repr``, so the digest covers exactly
    the semantic content.  This stands in for a collision-resistant hash:
    the simulation never *searches* for collisions, it only compares a
    frozen tag against recomputed content.
    """
    return zlib.crc32(repr(parts).encode("utf-8"))


#: Message kinds that carry a payload seal and are verified on receipt.
#: (Probes and notices carry no mergeable payload worth lying about.)
SEALED_KINDS = frozenset(
    {
        "PrimaryRootReport",
        "PrimaryRootList",
        "ParentUpdate",
        "HelperAssignment",
        "Digest",
    }
)


def words_to_bits(words: int, n_ever: int) -> int:
    """Convert a payload measured in identifier words into bits for ``n`` nodes."""
    word_bits = max(int(math.ceil(math.log2(max(n_ever, 2)))), 1)
    return words * word_bits


#: The one class shape every message shares: slotted (no per-instance
#: ``__dict__``), identity equality, and :meth:`Message.__repr__`.
_message = dataclass(slots=True, eq=False, repr=False)


@_message
class Message:
    """Base class for protocol messages travelling between processors.

    Declares the envelope once; each subclass declares only its payload
    fields.  ``dataclass(slots=True)`` replaces every decorated class with
    a slotted copy, so no method of these classes may call zero-argument
    ``super()`` (its ``__class__`` cell would name the replaced class).
    """

    sender: NodeId
    receiver: NodeId
    #: Networkless fallback id; :meth:`Network.stamp` overwrites it with the
    #: network's own counter when the message enters a network.
    message_id: int = field(init=False, default_factory=_message_counter.__next__)
    #: Oracle-side provenance tag: set to the liar's NodeId when the fault
    #: layer (or a byzantine processor's forging hook) corrupted this
    #: message's payload.  Protocol code never reads it — it only feeds the
    #: :class:`~repro.distributed.accountability.InjectionLog` ground truth
    #: that scores detection.
    byz_origin: Optional[NodeId] = field(init=False, default=None)
    #: Lazy seal cache (see :attr:`seal`).
    _seal: Optional[int] = field(init=False, default=None)

    #: Short name of the message type (used by handler dispatch and the
    #: per-kind ledgers).  A plain class attribute — stamped per subclass
    #: below — delivery reads ``kind`` several times per message (counters,
    #: dispatch, seals), so the hot loop pays one attribute load, not a
    #: method call.
    kind = "Message"
    #: True when this message type carries a payload seal that receivers
    #: verify (``kind in SEALED_KINDS``, precomputed per class so the
    #: receive gate is one attribute check for the unsealed majority).
    sealed = False
    #: Epoch tag default: repair-protocol messages shadow this with their
    #: ``deleted`` field, so ``message.deleted`` is a plain attribute read
    #: everywhere (no ``getattr`` default on the delivery path).
    deleted = None
    #: Payload size in identifier words; kinds whose payload varies compute
    #: it in a property.
    payload_words = 2
    #: Names of the payload fields the seal covers, in declaration order
    #: (every declared payload field of a sealed kind, none otherwise).
    _seal_names = ()

    def __init_subclass__(cls) -> None:
        cls.kind = cls.__name__
        cls.sealed = cls.__name__ in SEALED_KINDS
        cls._seal_names = tuple(inspect.get_annotations(cls)) if cls.sealed else ()

    def __repr__(self) -> str:  # debugging/traces only — never on the hot path
        return (
            f"{self.kind}(sender={self.sender!r}, receiver={self.receiver!r}, "
            f"id={self.message_id})"
        )

    def size_bits(self, n_ever: int) -> int:
        """Size of this message in bits when identifiers need ``log2 n`` bits."""
        return words_to_bits(self.payload_words, n_ever)

    # ------------------------------------------------------------------ #
    # payload seal (simulated MAC)
    # ------------------------------------------------------------------ #
    def _seal_fields(self) -> Tuple[object, ...]:
        """Payload fields covered by the seal, in declaration order."""
        return tuple(getattr(self, name) for name in self._seal_names)

    @property
    def seal(self) -> int:
        """Lazily-computed payload seal, cached on first access.

        An honest sender never touches the payload after construction, so
        its seal — computed whenever first read — always matches and costs
        nothing until somebody verifies.  The fault layer freezes the seal
        *before* mutating payload fields, modelling an adversary that can
        corrupt a payload but cannot forge the original author's MAC.
        """
        cached = self._seal
        if cached is None:
            cached = payload_checksum(self.kind, self._seal_fields())
            self._seal = cached
        return cached

    def seal_valid(self) -> bool:
        """Recompute the payload seal and compare against the carried one.

        A message whose seal was never read has — by the laziness contract —
        never been mutated after construction (every corruption path freezes
        the seal first), so it verifies for free; the honest fast path pays
        no hashing at all.
        """
        cached = self._seal
        if cached is None:
            return True
        return cached == payload_checksum(self.kind, self._seal_fields())


@_message
class DeletionNotice(Message):
    """Failure notification: ``deleted`` has vanished (delivered to each neighbour)."""

    deleted: Optional[NodeId] = None


@_message
class InsertionNotice(Message):
    """A freshly inserted node announces itself to one of its chosen neighbours."""

    inserted: Optional[NodeId] = None


@_message
class AnchorLink(Message):
    """Anchors of affected fragments link into the binary tree ``BT_v``."""

    deleted: Optional[NodeId] = None


@_message
class Probe(Message):
    """``FindPrRoots`` probe walking down the right spine of a fragment."""

    deleted: Optional[NodeId] = None
    #: Hop count so far (for tracing; the paper's probes carry child counts).
    hops: int = 0
    #: Which affected RT's spine this probe walks (plan-relative index).
    rt_index: int = 0


#: Identifier words per serialized primary-root descriptor (root port,
#: representative port, leaf count, height) — see
#: :class:`repro.distributed.merge.PieceSummary`.
ROOT_DESCRIPTOR_WORDS = 4

#: Largest number of descriptors one list message may carry; bigger payloads
#: are chunked into several messages so every message stays ``O(log n)`` bits
#: (Lemma 4's message-size bound).
MAX_ROOTS_PER_MESSAGE = 12


@_message
class PrimaryRootReport(Message):
    """Primary-root descriptors flowing back up a probe path to the anchor.

    The payload is the actual piece knowledge of the reporting processor
    (``PieceSummary`` descriptors), pipelined hop-by-hop along the spine —
    the merge leader ends up knowing exactly the pieces whose descriptors
    survived the trip.
    """

    deleted: Optional[NodeId] = None
    roots: Tuple[object, ...] = ()
    #: Which affected RT's spine this report travels on (plan-relative index).
    rt_index: int = 0

    @property
    def payload_words(self) -> int:
        return 2 + ROOT_DESCRIPTOR_WORDS * len(self.roots)


@_message
class PrimaryRootList(Message):
    """An anchor ships its primary-root descriptors to its ``BT_v`` parent."""

    deleted: Optional[NodeId] = None
    roots: Tuple[object, ...] = ()

    @property
    def payload_words(self) -> int:
        # A few descriptor words per primary root plus a header.
        return 2 + ROOT_DESCRIPTOR_WORDS * len(self.roots)


@_message
class ParentUpdate(Message):
    """Tell a processor the new RT parent of one of its real or helper nodes."""

    deleted: Optional[NodeId] = None
    #: Port of the node (leaf or helper) whose parent changed.
    child_port: Optional[Port] = None
    #: Port of the new parent helper node.
    parent_port: Optional[Port] = None
    #: True when the update concerns the processor's helper node rather
    #: than its leaf.
    child_is_helper: bool = False
    #: Merge-outcome epoch (see :class:`HelperAssignment`).
    epoch: int = 0

    # deleted + child port + parent port + flag + epoch, one word each.
    payload_words = 5


@_message
class HelperAssignment(Message):
    """Instruct a processor to instantiate / rewire the helper node of one of its ports.

    ``helper_port`` identifies the helper (the processor owning that port
    simulates it); parent and children are given as ports of the virtual
    nodes they refer to, or ``None``.  ``epoch`` counts the merge leader's
    outcome recomputations within one repair: when lost summaries surface
    late, the leader re-merges and re-disseminates with a higher epoch, and
    processors ignore instructions from epochs older than the newest they
    have seen for the same repair (so a delayed stale ``create`` cannot
    overwrite a corrective update).
    """

    deleted: Optional[NodeId] = None
    helper_port: Optional[Port] = None
    parent_port: Optional[Port] = None
    left_port: Optional[Port] = None
    right_port: Optional[Port] = None
    #: False when the helper should be dropped ("marked red") instead of
    #: created.
    create: bool = True
    #: Representative leaf port of the helper's subtree (Table 1 state).
    representative_port: Optional[Port] = None
    #: Cached subtree height / leaf count (Table 1 state).
    height: int = 0
    num_leaves: int = 0
    epoch: int = 0

    # deleted + 5 ports + height + leaf count + epoch + create flag, one
    # O(log n)-bit word each.
    payload_words = 10


# --------------------------------------------------------------------------- #
# anti-entropy recovery (gossip digests)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PortDigest:
    """Compact Table 1 record summary for one port, as its owner knows it.

    The payload of a :class:`Digest` answering a :class:`DigestRequest`:
    the owner reads *only its own* edge record (and the link sources it
    itself created) and summarizes whether the requested port currently
    simulates a helper for the repair in question, with which pointers.
    The merge leader compares these against its own outcome and retransmits
    exactly the instructions the digest shows missing or superseded.
    """

    port: Port
    #: True when the owner simulates a helper *for this repair* on the port.
    helper_for_victim: bool = False
    helper_left: Optional[Port] = None
    helper_right: Optional[Port] = None
    helper_parent: Optional[Port] = None
    #: The real node's RT parent (the leaf-side pointer ParentUpdate sets).
    rt_parent: Optional[Port] = None
    #: True when the helper's child link sources exist in the owner's view.
    links_ok: bool = True
    #: The *other* repair's victim when the port already simulates a helper
    #: for a different deletion — the owner refuses assignments for a busy
    #: port, so the leader must learn the refusal is permanent.
    busy_with: Optional[NodeId] = None
    #: Content checksum set by ``__post_init__`` (``compare=False`` keeps
    #: equality/hash on the semantic fields, ``repr=False`` keeps it out of
    #: message seals).  The fault layer corrupts a digest by mutating fields
    #: and *keeping* the honest checksum — forging a matching one would mean
    #: breaking the (simulated) collision resistance.
    checksum: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "checksum", self.content_checksum())

    def content_checksum(self) -> int:
        return payload_checksum(
            "PortDigest",
            self.port,
            self.helper_for_victim,
            self.helper_left,
            self.helper_right,
            self.helper_parent,
            self.rt_parent,
            self.links_ok,
            self.busy_with,
        )

    def checksum_valid(self) -> bool:
        # Validity is immutable (frozen dataclass), so cache the verdict:
        # an honest descriptor relayed across many hops hashes once.
        cached = self.__dict__.get("_checksum_ok")
        if cached is None:
            cached = self.checksum == self.content_checksum()
            object.__setattr__(self, "_checksum_ok", cached)
        return cached


#: Identifier words per serialized :class:`PortDigest` (port + 4 pointer
#: ports + the busy-with victim id + 2 flags packed into one word).
RECORD_DESCRIPTOR_WORDS = 7

#: Largest number of ports a :class:`DigestRequest` may name; larger pulls
#: are chunked so the request stays ``O(log n)`` bits.
MAX_PORTS_PER_REQUEST = 16


@_message
class Digest(Message):
    """One participant's compact repair-state digest (anti-entropy gossip).

    Four shapes share the one message type:

    * *spine digest* (``rt_index`` set): sent to the spine predecessor —
      carries whether the probe ever arrived (``probed``), whether the local
      strip applied, and the piece descriptors this processor vouches for or
      collected from deeper hops.  An unprobed digest makes the predecessor
      resend the probe; piece payloads flow back like late report waves.
    * *anchor digest* (``rt_index`` is ``None``, ``pieces`` set): sent up the
      ``BT_v`` tree — re-offers the anchor's gathered descriptors so pieces
      lost on the way to the leader surface again (the leader re-merges and
      re-disseminates under a higher epoch when they do).
    * *record digest* (``records`` set): the reply to a
      :class:`DigestRequest` — per-port Table 1 summaries the leader diffs
      against its outcome,
    * *acknowledgement* (``ack`` set): the receiver of a digest chunk echoes
      it back, so the sender stops re-offering knowledge that provably
      arrived — later sweeps shrink to exactly what is still unconfirmed,
      and at the fixed point the protocol is silent.

    All payloads are bounded: pieces and records are chunked exactly like
    the repair's own list messages, so every digest stays ``O(log n)`` bits.
    """

    deleted: Optional[NodeId] = None
    #: Which affected RT's spine this digest describes (None otherwise).
    rt_index: Optional[int] = None
    probed: bool = True
    stripped: bool = True
    #: True when this digest echoes a received chunk back to its sender.
    ack: bool = False
    pieces: Tuple[object, ...] = ()
    records: Tuple[PortDigest, ...] = ()

    @property
    def payload_words(self) -> int:
        return (
            3
            + ROOT_DESCRIPTOR_WORDS * len(self.pieces)
            + RECORD_DESCRIPTOR_WORDS * len(self.records)
        )


@_message
class DigestRequest(Message):
    """The merge leader pulls record digests for ports it instructed.

    The named ports all come from the leader's *own* knowledge — its merge
    outcome's helper assignments and parent updates — never from another
    processor's context; the owner answers with one :class:`PortDigest` per
    port it actually owns.
    """

    deleted: Optional[NodeId] = None
    ports: Tuple[Port, ...] = ()

    @property
    def payload_words(self) -> int:
        return 2 + len(self.ports)
