"""Result containers and plain-text rendering for the figure harness.

Every ``figN.run(...)`` returns a :class:`FigureResult`: the table the paper
prints (rows/columns), optional named series (CDFs, timelines), and notes on
parameters and expected shapes.  ``render_text()`` produces the fixed-width
report the benchmarks emit; README.md ("Results") and
``benchmarks/TRAJECTORY.json`` record the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

__all__ = ["FigureResult", "format_table"]


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_table(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width table with a header rule."""
    grid = [[_fmt(c) for c in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in grid:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                  for i, cell in enumerate(row))
        for row in grid
    ]
    return "\n".join([header, rule, *body])


@dataclass
class FigureResult:
    """One reproduced figure: table, optional series, provenance notes."""

    figure: str
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    series: dict[str, list[tuple]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        self.rows.append(list(cells))

    def add_series(self, name: str, points: Sequence[tuple]) -> None:
        self.series[name] = list(points)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def row_value(self, label: str, column: str) -> Any:
        """Look up a cell by first-column label + column name (tests)."""
        col = self.columns.index(column)
        for row in self.rows:
            if row[0] == label:
                return row[col]
        raise KeyError(label)

    def render_text(self) -> str:
        out = [f"== {self.figure}: {self.title} ==",
               format_table(self.columns, self.rows)]
        for name, points in self.series.items():
            preview = ", ".join(f"({x:.3g}, {y:.3g})" for x, y in points[:6])
            suffix = " ..." if len(points) > 6 else ""
            out.append(f"series {name}: {preview}{suffix}  [{len(points)} pts]")
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)
