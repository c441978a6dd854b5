"""Benchmark harness utilities: timing cells, the paper's table notation,
and ASCII table rendering.

Notation follows the paper's Tables II/III exactly:

* ``T.O``   — the budget was exhausted (our budget is configurable via the
  ``PUGPARA_BENCH_TIMEOUT`` environment variable; the paper used 5 minutes);
* ``*``     — the check found the kernels *not* equivalent (the paper's
  "Transpose kernels are not equivalent when n is not a perfect square");
* ``<0.1``  — sub-100ms solving;
* ``(x)``   — the paper puts the +C. time in parentheses next to the -C.
  entry for the 16/32-thread columns; we render +C. columns separately.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from ..check.result import CheckOutcome, Verdict

__all__ = ["bench_timeout", "Cell", "run_cell", "format_cell",
           "format_table", "TableAccumulator"]


def bench_timeout(default: float = 20.0) -> float:
    """The per-cell budget. ``PUGPARA_BENCH_TIMEOUT=300`` reproduces the
    paper's five-minute limit; the default keeps a full table run quick."""
    return float(os.environ.get("PUGPARA_BENCH_TIMEOUT", default))


@dataclass
class Cell:
    """One table cell: the checker outcome plus wall time."""
    outcome: CheckOutcome
    elapsed: float

    @property
    def verdict(self) -> Verdict:
        return self.outcome.verdict


def run_cell(fn: Callable[[], CheckOutcome]) -> Cell:
    start = time.monotonic()
    outcome = fn()
    return Cell(outcome=outcome, elapsed=time.monotonic() - start)


def format_cell(cell: Cell | None) -> str:
    """Render a cell in the paper's notation."""
    if cell is None:
        return "-"
    v = cell.verdict
    if v is Verdict.TIMEOUT:
        return "T.O"
    if v is Verdict.UNSUPPORTED:
        return "n/s"
    suffix = ""
    if v is Verdict.BUG:
        suffix = "*"          # the paper's 'not equivalent' marker
    elif v is Verdict.UNKNOWN:
        suffix = "?"
    t = cell.elapsed
    if t < 0.1:
        return "<0.1" + suffix
    if t < 10:
        return f"{t:.2f}{suffix}"
    return f"{t:.0f}{suffix}"


def format_table(title: str, headers: list[str],
                 rows: list[list[str]]) -> str:
    """Plain ASCII table in the style of the paper's tables."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render(cells: list[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title), render(headers), sep]
    lines += [render(r) for r in rows]
    return "\n".join(lines)


@dataclass
class TableAccumulator:
    """Collects cells across pytest-benchmark items and prints the final
    table once at the end of the module."""
    title: str
    headers: list[str]
    rows: dict[str, dict[str, str]] = field(default_factory=dict)
    row_order: list[str] = field(default_factory=list)

    def put(self, row: str, column: str, cell: Cell | str) -> None:
        if row not in self.rows:
            self.rows[row] = {}
            self.row_order.append(row)
        self.rows[row][column] = (cell if isinstance(cell, str)
                                  else format_cell(cell))

    def render(self) -> str:
        body = []
        for name in self.row_order:
            row = [name]
            for col in self.headers[1:]:
                row.append(self.rows[name].get(col, "-"))
            body.append(row)
        return format_table(self.title, self.headers, body)

    def dump(self) -> None:
        print()
        print(self.render())
