"""Attack schedules: sequences of insert/delete events.

The model of Figure 1 interleaves arbitrary insertions and deletions, one per
round.  An :class:`AttackSchedule` is a reusable description of such a
sequence; :meth:`AttackSchedule.run` drives any healer (the Forgiving Graph
or a baseline) through it and returns per-step bookkeeping that the analysis
layer turns into the numbers reported in EXPERIMENTS.md.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Union

import numpy as np

from ..core.errors import ConfigurationError
from ..core.ports import NodeId, sorted_nodes
from ..core.views import g_prime_view_of
from .strategies import (
    DeletionStrategy,
    InsertionStrategy,
    RandomDeletion,
    RandomInsertion,
)

__all__ = [
    "AttackEvent",
    "AttackSchedule",
    "deletion_only_schedule",
    "churn_schedule",
    "deletion_burst_schedule",
    "insertion_burst_schedule",
]

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass
class AttackEvent:
    """One adversarial move, after it has been applied to a healer."""

    step: int
    kind: str  # "insert" | "delete" | "burst_delete"
    node: NodeId
    #: Attachment points for insertions, empty for deletions.
    attached_to: tuple = ()
    #: Degree of the victim in ``G'`` at deletion time (deletions only; the
    #: maximum over the burst for ``burst_delete``).
    victim_degree: int = 0
    #: Every victim of a ``burst_delete`` move, in deletion order (``node``
    #: is the first of them); empty for single moves.
    victims: tuple = ()


@dataclass
class AttackSchedule:
    """A bounded sequence of adversarial moves.

    Parameters
    ----------
    steps:
        Maximum number of moves to play.
    deletion_strategy / insertion_strategy:
        How victims and attachment points are chosen.
    delete_probability:
        Probability that a given step is a deletion (the rest are
        insertions).  ``1.0`` gives a pure deletion attack.
    min_survivors:
        The adversary stops deleting once this few nodes remain, so
        experiments never run the graph down to nothing.
    burst_size:
        Victims removed per deletion step.  ``1`` keeps the classic
        one-move-per-round adversary; larger values hand each deletion step
        a whole burst, played through :meth:`healer.delete_batch` when the
        healer offers one (the distributed layer's concurrent repair
        machine) and as back-to-back single deletions otherwise.
    seed:
        Seed controlling the insert/delete coin flips and burst victim
        sampling (strategies hold their own generators).
    """

    steps: int
    deletion_strategy: DeletionStrategy = field(default_factory=RandomDeletion)
    insertion_strategy: InsertionStrategy = field(default_factory=RandomInsertion)
    delete_probability: float = 1.0
    min_survivors: int = 2
    burst_size: int = 1
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigurationError("steps must be non-negative")
        if not 0.0 <= self.delete_probability <= 1.0:
            raise ConfigurationError("delete_probability must lie in [0, 1]")
        if self.min_survivors < 0:
            raise ConfigurationError("min_survivors must be non-negative")
        if self.burst_size < 1:
            raise ConfigurationError("burst_size must be at least 1")

    def play(self, healer) -> Iterator[AttackEvent]:
        """Play the schedule one move at a time, yielding each applied event.

        This is the streaming primitive underneath :meth:`run` and the
        engine's :class:`repro.engine.AttackSession`: each ``next()`` applies
        exactly one adversarial move (and the healer's repair), so consumers
        can interleave measurement, reporting or early exit without this
        module knowing what is being observed.
        """
        rng = _rng(self.seed)
        fresh_ids = self._fresh_id_source(healer)
        for step in range(1, self.steps + 1):
            do_delete = rng.random() < self.delete_probability
            event: Optional[AttackEvent] = None
            if do_delete and healer.num_alive > self.min_survivors:
                if self.burst_size > 1:
                    event = self._play_burst(step, healer, rng)
                else:
                    event = self._play_deletion(step, healer)
            if event is None:
                if self.delete_probability >= 1.0:
                    # A pure-deletion attack is over once the survivor floor
                    # is reached or the strategy gives up; falling back to
                    # insertions would silently turn it into a churn run.
                    return
                if healer.num_alive >= 1:
                    event = self._play_insertion(step, healer, fresh_ids)
            if event is None:
                return
            yield event

    def run(
        self,
        healer,
        on_event: Optional[Callable[[AttackEvent, object], None]] = None,
    ) -> List[AttackEvent]:
        """Play the whole schedule against ``healer`` and return the applied events.

        ``on_event(event, healer)`` is invoked after every move; thin wrapper
        over the streaming :meth:`play`.
        """
        events: List[AttackEvent] = []
        for event in self.play(healer):
            events.append(event)
            if on_event is not None:
                on_event(event, healer)
        return events

    # ------------------------------------------------------------------ #
    def _play_deletion(self, step: int, healer) -> Optional[AttackEvent]:
        victim = self.deletion_strategy.choose_victim(healer)
        if victim is None:
            return None
        victim_degree = healer.g_prime_degree(victim)
        healer.delete(victim)
        return AttackEvent(step=step, kind="delete", node=victim, victim_degree=victim_degree)

    def _play_burst(self, step: int, healer, rng: np.random.Generator) -> Optional[AttackEvent]:
        """Delete up to ``burst_size`` distinct victims as one adversarial move.

        Victims are sampled without replacement from the canonically sorted
        survivor list (deterministic under a fixed seed regardless of the
        healer's set iteration order).  A healer exposing ``delete_batch``
        gets the whole burst at once — the distributed layer's concurrent
        repair machine decides there how much of it runs in parallel —
        while any other healer plays it as back-to-back single deletions.
        """
        alive = sorted_nodes(healer.alive_nodes)
        k = min(self.burst_size, healer.num_alive - self.min_survivors)
        if not alive or k < 1:
            return None
        indices = rng.choice(len(alive), size=min(k, len(alive)), replace=False)
        victims = [alive[int(i)] for i in sorted(int(i) for i in indices)]
        degrees = [healer.g_prime_degree(victim) for victim in victims]
        batch = getattr(healer, "delete_batch", None)
        if batch is not None:
            batch(victims)
        else:
            for victim in victims:
                healer.delete(victim)
        return AttackEvent(
            step=step,
            kind="burst_delete",
            node=victims[0],
            victim_degree=max(degrees),
            victims=tuple(victims),
        )

    def _play_insertion(self, step: int, healer, fresh_ids: Iterator[NodeId]) -> Optional[AttackEvent]:
        attachments = self.insertion_strategy.choose_attachments(healer)
        if not attachments:
            return None
        node = next(fresh_ids)
        healer.insert(node, attach_to=attachments)
        return AttackEvent(step=step, kind="insert", node=node, attached_to=tuple(attachments))

    @staticmethod
    def _fresh_id_source(healer) -> Iterator[NodeId]:
        """Yield integer identifiers guaranteed not to collide with existing nodes."""
        existing = g_prime_view_of(healer).nodes
        numeric = [n for n in existing if isinstance(n, int)]
        start = (max(numeric) + 1) if numeric else 0
        return itertools.count(start)


# --------------------------------------------------------------------------- #
# convenience constructors
# --------------------------------------------------------------------------- #
def deletion_only_schedule(
    steps: int,
    strategy: Optional[DeletionStrategy] = None,
    min_survivors: int = 2,
    seed: SeedLike = None,
) -> AttackSchedule:
    """A pure deletion attack (the regime of Theorems 1 and 2)."""
    return AttackSchedule(
        steps=steps,
        deletion_strategy=strategy if strategy is not None else RandomDeletion(seed=seed),
        delete_probability=1.0,
        min_survivors=min_survivors,
        seed=seed,
    )


def churn_schedule(
    steps: int,
    delete_probability: float = 0.5,
    deletion_strategy: Optional[DeletionStrategy] = None,
    insertion_strategy: Optional[InsertionStrategy] = None,
    min_survivors: int = 2,
    seed: SeedLike = None,
) -> AttackSchedule:
    """Mixed insertions and deletions — the peer-to-peer churn workload (E10)."""
    return AttackSchedule(
        steps=steps,
        deletion_strategy=deletion_strategy if deletion_strategy is not None else RandomDeletion(seed=seed),
        insertion_strategy=insertion_strategy if insertion_strategy is not None else RandomInsertion(seed=seed),
        delete_probability=delete_probability,
        min_survivors=min_survivors,
        seed=seed,
    )


def deletion_burst_schedule(
    steps: int,
    burst_size: int,
    min_survivors: int = 2,
    seed: SeedLike = None,
) -> AttackSchedule:
    """Pure deletions, ``burst_size`` victims per step (concurrent-repair workload).

    Victim sampling is uniform without replacement per step; against the
    distributed healer each burst lands through ``delete_batch`` so repairs
    with disjoint footprints share the message fabric.
    """
    return AttackSchedule(
        steps=steps,
        delete_probability=1.0,
        min_survivors=min_survivors,
        burst_size=burst_size,
        seed=seed,
    )


def insertion_burst_schedule(
    steps: int,
    insertion_strategy: Optional[InsertionStrategy] = None,
    seed: SeedLike = None,
) -> AttackSchedule:
    """Pure growth: only insertions (no healing work should ever be triggered)."""
    return AttackSchedule(
        steps=steps,
        insertion_strategy=insertion_strategy if insertion_strategy is not None else RandomInsertion(seed=seed),
        delete_probability=0.0,
        seed=seed,
    )
