"""Result tables: the uniform output format of every experiment.

A :class:`ResultTable` is an ordered list of homogeneous rows (dicts) with
helpers for aggregation, ASCII rendering (the offline stand-in for the
figures a paper would plot) and CSV export.  Experiments also attach
`paper_expectation` strings so a rendered table shows the paper's claim
(PAPER.md) next to the measured values.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ResultTable"]


def _format_cell(value: object, precision: int = 4) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.{precision}g}"
        return f"{value:.{precision}g}"
    return str(value)


@dataclass
class ResultTable:
    """An ordered, column-typed table of experiment measurements."""

    title: str
    columns: Sequence[str]
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append a row; keys must exactly match the declared columns."""
        missing = set(self.columns) - set(values)
        extra = set(values) - set(self.columns)
        if missing or extra:
            raise ValueError(
                f"row keys mismatch: missing={sorted(missing)}, extra={sorted(extra)}"
            )
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[object]:
        if name not in self.columns:
            raise KeyError(name)
        return [row[name] for row in self.rows]

    def filtered(self, predicate) -> "ResultTable":
        """New table containing only rows for which ``predicate(row)``."""
        out = ResultTable(title=self.title, columns=list(self.columns), notes=list(self.notes))
        out.rows = [dict(r) for r in self.rows if predicate(r)]
        return out

    # -- rendering ---------------------------------------------------------

    def render(self, precision: int = 4) -> str:
        """Fixed-width ASCII rendering (monospace terminal friendly)."""
        header = list(self.columns)
        body = [[_format_cell(row[c], precision) for c in header] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), 1)]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append(sep)
        for r in body:
            lines.append(" | ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.columns))
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return self.render()
