"""Result tables: the rows every sweep reduces into, and their renderer.

The experiments (E1–E9), the campaign and ``repro analyze`` all build
an :class:`ExperimentResult` and render it with :func:`render_table`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from ..errors import ExperimentError


@dataclass
class ExperimentResult:
    """One experiment's table, ready for rendering and assertions."""

    exp_id: str
    title: str
    claim: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> Dict[str, Any]:
        row = dict(values)
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise ExperimentError(f"row missing columns {missing}")
        unknown = [k for k in row if k not in self.columns]
        if unknown:
            raise ExperimentError(
                f"row has unknown columns {unknown}; declared: {self.columns}"
            )
        self.rows.append(row)
        return row

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> List[Any]:
        return [row[name] for row in self.rows]

    def find_rows(self, **match: Any) -> List[Dict[str, Any]]:
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in match.items())
        ]


def fraction(flags: Iterable[bool]) -> float:
    """Share of True values (0 for empty input)."""
    flags = list(flags)
    return sum(1 for f in flags if f) / len(flags) if flags else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def render_table(result: ExperimentResult) -> str:
    """Fixed-width table with title, claim, rows, and notes."""
    header = result.columns
    body = [[_fmt(row.get(col, "")) for col in header] for row in result.rows]
    widths = [
        max(len(col), *(len(line[i]) for line in body)) if body else len(col)
        for i, col in enumerate(header)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = [
        f"== {result.exp_id}: {result.title} ==",
        f"claim: {result.claim}",
        "",
        " | ".join(col.ljust(w) for col, w in zip(header, widths)),
        sep,
    ]
    for line in body:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


__all__ = ["ExperimentResult", "fraction", "mean", "render_table"]
