"""In-memory spans recorded around calls into the program, from outside it.

A :class:`Tracer` replaces module functions and class methods with thin
wrappers that record one span per call: its name, start, end and the index of
the span that was open when it started (its parent).  Nothing in the program
changes on disk; :meth:`Tracer.restore` puts every original attribute back.
Counters are recorded at the same boundaries through ``after`` hooks.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: ``before(args) -> state`` and ``after(args, result, state) -> {counter: increment}``.
Before = Callable[[tuple], object]
After = Callable[[tuple, object, object], Dict[str, float]]


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent]`` per call; ``parent`` is -1 at top level.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if descriptor is not None else raw
        spans, open_spans, counters = self.spans, self._open, self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = perf_counter()
            if after is not None:
                for key, value in after(args, result, state).items():
                    counters[key] += value
            return result

        setattr(owner, attr, descriptor(traced) if descriptor is not None else traced)
        self._patches.append((owner, attr, raw, own))

    def restore(self) -> None:
        """Put back every attribute :meth:`wrap` replaced, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent in self.spans:
                out.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n"
                )


def self_times(spans: List[list]) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, self seconds)}``: each span's duration minus its children's.

    Children of one span run one after another on the single thread the
    benchmark uses, so their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, List[float]] = {}
    for (name, start, end, _parent), child in zip(spans, covered):
        row = totals.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += (end - start) - child
    return {name: (int(calls), seconds) for name, (calls, seconds) in totals.items()}
