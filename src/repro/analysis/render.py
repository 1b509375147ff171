"""Renderers for analysis tables: aligned text, CSV, JSON.

One :class:`~repro.runtime.tables.ExperimentResult` — the output
of :func:`~repro.analysis.query.analyze_store` — three consumers:

* ``text`` re-uses the experiment suite's fixed-width renderer
  (:func:`repro.runtime.tables.render_table`), so analysis tables
  format numbers exactly as campaign tables do and shared cells
  compare byte-for-byte;
* ``csv`` is one header plus one row per group, raw (unrounded)
  values — the spreadsheet/pandas feed;
* ``json`` is a self-describing document (sweep id, claim, columns,
  row objects, notes) for scripted consumers; CI's analyze-smoke step
  parses it.

Every renderer returns a string ending without a trailing newline;
callers decide terminal vs file framing.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Callable, Dict

from ..errors import ScenarioError
from ..runtime.tables import ExperimentResult, render_table


def render_text(result: ExperimentResult) -> str:
    """The campaign-style aligned table (title, claim, rows, notes)."""
    return render_table(result)


def render_csv(result: ExperimentResult) -> str:
    """Header + one row per group; raw values, JSON-style booleans."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_csv_cell(row.get(col)) for col in result.columns])
    return buffer.getvalue().rstrip("\n")


def _csv_cell(value: Any) -> Any:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def render_json(result: ExperimentResult) -> str:
    """A self-describing JSON document, 2-space indented, stable keys."""
    document: Dict[str, Any] = {
        # analyze_store attaches the sweep's exact id; exp_id is its
        # upper-cased display form and only a fallback.
        "sweep_id": getattr(result, "sweep_id", result.exp_id.lower()),
        "title": result.title,
        "claim": result.claim,
        "columns": result.columns,
        "rows": [
            {col: row.get(col) for col in result.columns}
            for row in result.rows
        ],
        "notes": result.notes,
    }
    return json.dumps(document, indent=2)


#: name -> renderer; the CLI's --format choices come from here.
RENDERERS: Dict[str, Callable[[ExperimentResult], str]] = {
    "text": render_text,
    "csv": render_csv,
    "json": render_json,
}


def render(result: ExperimentResult, fmt: str = "text") -> str:
    """Render ``result`` in the named format."""
    try:
        renderer = RENDERERS[fmt]
    except KeyError:
        raise ScenarioError(
            f"unknown format {fmt!r}; available: {', '.join(RENDERERS)}"
        ) from None
    return renderer(result)


__all__ = ["RENDERERS", "render", "render_csv", "render_json", "render_text"]
