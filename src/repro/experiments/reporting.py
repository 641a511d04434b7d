"""Plain-text tables, CSV output and streaming JSONL for experiment results.

There is intentionally no plotting dependency: every experiment reports the
series/rows the paper's claims are about as aligned text tables (rendered
into EXPERIMENTS.md) and, optionally, CSV files for downstream plotting.

For long parallel sweeps the module additionally provides *streaming* JSONL
reporting: :class:`JsonlReporter` appends one JSON object per finished task
as soon as it lands (so a killed sweep loses nothing), and doubles as the
resume checkpoint — reopening the same path skips every task whose key is
already present.  All values pass through :func:`json_safe_value`, so
non-finite floats serialize as the ``"inf"`` / ``"-inf"`` / ``"nan"`` string
sentinels and the stream is always parseable by a strict JSON reader.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

__all__ = [
    "format_table",
    "rows_to_csv",
    "write_report",
    "json_safe_value",
    "json_safe_row",
    "JsonlReporter",
    "read_jsonl",
]

Row = Dict[str, object]

#: Sentinels used for non-finite floats in JSON output (JSON has no Infinity).
_NONFINITE_SENTINELS = {float("inf"): "inf", float("-inf"): "-inf"}


def json_safe_value(value: object) -> object:
    """Return ``value`` unchanged unless it is a non-finite float.

    ``json.dumps(float("inf"))`` emits the literal ``Infinity``, which is not
    JSON and breaks strict parsers; non-finite floats therefore serialize as
    the string sentinels ``"inf"`` / ``"-inf"`` / ``"nan"``.  Numpy scalars
    are unwrapped to plain Python numbers on the way.
    """
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            value = value.item()
        except (AttributeError, ValueError):  # pragma: no cover - exotic ducks
            pass
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return _NONFINITE_SENTINELS[value]
    return value


def json_safe_row(row: Row) -> Row:
    """A copy of ``row`` with every value passed through :func:`json_safe_value`."""
    return {key: json_safe_value(value) for key, value in row.items()}


class JsonlReporter:
    """Append-only JSONL result stream doubling as a resumable checkpoint.

    Each call to :meth:`write` appends one JSON object (a flat result row)
    and flushes, so every finished task is durable immediately.  Rows may
    carry a *task key* under ``task_key``; on construction the existing file
    (if any) is scanned and :meth:`is_done` tells sweep drivers which tasks
    can be skipped on resume.

    Use as a context manager::

        with JsonlReporter(path, resume=True) as reporter:
            for task in tasks:
                if reporter.is_done(task.key):
                    continue
                reporter.write(run(task), task_key=task.key)
    """

    def __init__(self, path: Union[str, Path], resume: bool = False) -> None:
        self.path = Path(path)
        self._completed: Set[str] = set()
        #: Rows found in the file at construction time (``resume=True`` only);
        #: kept so resuming consumers do not have to re-parse the stream.
        self.existing_rows: List[Row] = []
        if resume and self.path.exists():
            self.existing_rows = read_jsonl(self.path)
            for row in self.existing_rows:
                key = row.get("task_key")
                if key is not None:
                    self._completed.add(str(key))
        elif self.path.exists():
            self.path.unlink()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a")

    def is_done(self, task_key: str) -> bool:
        """True when a row for ``task_key`` is already in the stream."""
        return task_key in self._completed

    def write(self, row: Row, task_key: Optional[str] = None) -> None:
        """Append one result row (JSON-safe, flushed immediately)."""
        payload = json_safe_row(row)
        if task_key is not None:
            payload["task_key"] = task_key
            self._completed.add(task_key)
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlReporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl(path: Union[str, Path]) -> List[Row]:
    """Parse a JSONL stream back into rows (strict JSON; sentinel-encoded infs).

    A checkpoint's *final* line may be truncated when the writing process was
    killed mid-append — exactly the scenario resume exists for — so an
    unparseable trailing line is dropped.  Corruption anywhere else still
    raises.
    """
    lines: List[str] = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                lines.append(line)
    rows: List[Row] = []
    for index, line in enumerate(lines):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break
            raise
    return rows


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.3f}".rstrip("0").rstrip(".") if value != int(value) else str(int(value))
    return str(value)


def format_table(rows: Sequence[Row], columns: Optional[Sequence[str]] = None, title: str = "") -> str:
    """Render rows as a GitHub-style markdown table.

    ``columns`` fixes the column order (defaulting to the union of keys in
    first-appearance order); missing cells render as empty strings.
    """
    if not rows:
        return f"### {title}\n\n(no rows)\n" if title else "(no rows)\n"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    table: List[List[str]] = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max((len(cells[i]) for cells in table), default=0))
        for i, col in enumerate(columns)
    ]
    header = "| " + " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns)) + " |"
    divider = "|" + "|".join("-" * (widths[i] + 2) for i in range(len(columns))) + "|"
    body = [
        "| " + " | ".join(cells[i].ljust(widths[i]) for i in range(len(columns))) + " |"
        for cells in table
    ]
    lines = ([f"### {title}", ""] if title else []) + [header, divider] + body + [""]
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Row], path: Union[str, Path], columns: Optional[Sequence[str]] = None) -> Path:
    """Write rows to a CSV file; returns the path written."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return path
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def write_report(sections: Iterable[tuple], path: Union[str, Path], title: str = "Experiment report") -> Path:
    """Write a multi-section markdown report.

    ``sections`` is an iterable of ``(section_title, rows)`` or
    ``(section_title, rows, preamble_text)`` tuples.
    """
    path = Path(path)
    parts: List[str] = [f"# {title}", ""]
    for section in sections:
        if len(section) == 3:
            section_title, rows, preamble = section
        else:
            section_title, rows = section
            preamble = ""
        parts.append(f"## {section_title}")
        parts.append("")
        if preamble:
            parts.append(preamble)
            parts.append("")
        parts.append(format_table(rows))
    path.write_text("\n".join(parts))
    return path
