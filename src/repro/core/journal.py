"""Compactable append-only journals with registered consumer cursors.

The engine's incremental consumers (the adversary's survivor-degree heap)
read its degree-touch journal through *absolute positions*: each keeps a
cursor and drains ``journal[cursor:]`` after every move.  A plain list
would grow without bound for the lifetime of the engine — fine for a
10⁴-step test, a real memory leak for multi-million-step sessions.

:class:`Journal` keeps the exact same consumer contract — ``len()`` returns
the *total* number of entries ever appended and slicing uses absolute
indices — but stores only a suffix: :meth:`Journal.compact` truncates the
prefix that every *registered* cursor has already drained.  Consumers
register through :meth:`Journal.register_cursor`; cursors are tracked
weakly, so a consumer that goes away (the tracker rebinding to another
healer, a dropped strategy) stops pinning history automatically.  Reading
below the compaction point raises :class:`JournalCompactedError` — by
construction that can only happen to a reader that never registered.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, List, Sequence, TypeVar, Union

__all__ = ["Journal", "JournalCursor", "JournalCompactedError"]

T = TypeVar("T")


class JournalCompactedError(RuntimeError):
    """An unregistered reader asked for entries the journal already dropped."""


class JournalCursor:
    """One consumer's drain position (an absolute entry index).

    Create through :meth:`Journal.register_cursor`.  The consumer advances
    it with :meth:`advance_to` after each drain; :meth:`Journal.compact`
    never truncates past the slowest registered cursor.
    """

    __slots__ = ("position", "__weakref__")

    def __init__(self, position: int = 0) -> None:
        self.position = position

    def advance_to(self, position: int) -> None:
        """Mark everything before ``position`` as drained."""
        if position > self.position:
            self.position = position

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JournalCursor(position={self.position})"


class Journal(Sequence[T]):
    """Append-only sequence addressed by absolute index, with a droppable prefix."""

    __slots__ = ("_entries", "_base", "_cursors")

    def __init__(self) -> None:
        self._entries: List[T] = []
        #: Absolute index of ``_entries[0]`` — how much prefix was compacted.
        self._base = 0
        self._cursors: "weakref.WeakSet[JournalCursor]" = weakref.WeakSet()

    # ------------------------------------------------------------------ #
    # writer API (the engine)
    # ------------------------------------------------------------------ #
    def append(self, entry: T) -> None:
        self._entries.append(entry)

    def extend(self, entries: Iterable[T]) -> None:
        self._entries.extend(entries)

    # ------------------------------------------------------------------ #
    # consumer API
    # ------------------------------------------------------------------ #
    def register_cursor(self, position: int = 0) -> JournalCursor:
        """Register a consumer; entries at/after its position stay readable."""
        cursor = JournalCursor(position)
        self._cursors.add(cursor)
        return cursor

    def compact(self) -> int:
        """Drop every entry all registered consumers have drained.

        Truncates up to the slowest registered cursor — or everything when no
        consumer is registered (an engine nobody tails needs no history).
        Returns the number of entries dropped.
        """
        target = min((cursor.position for cursor in self._cursors), default=len(self))
        drop = max(target - self._base, 0)
        if drop:
            del self._entries[:drop]
            self._base += drop
        return drop

    @property
    def compacted(self) -> int:
        """Number of entries dropped so far (the absolute index of the oldest kept)."""
        return self._base

    # ------------------------------------------------------------------ #
    # Sequence protocol (absolute indices)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._base + len(self._entries)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("Journal slices must be contiguous (step 1)")
            if start < self._base and start < stop:
                raise JournalCompactedError(
                    f"entries before {self._base} were compacted away "
                    f"(requested from {start}); register a cursor to retain them"
                )
            return self._entries[start - self._base : stop - self._base]
        if index < 0:
            index += len(self)
        if index >= len(self) or index < self._base:
            if self._base <= index:
                raise IndexError(index)
            raise JournalCompactedError(
                f"entry {index} was compacted away (oldest kept: {self._base})"
            )
        return self._entries[index - self._base]

    def __iter__(self) -> Iterator[T]:
        """Iterate the *retained* suffix (compacted entries are gone)."""
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Journal(len={len(self)}, compacted={self._base}, consumers={len(self._cursors)})"
