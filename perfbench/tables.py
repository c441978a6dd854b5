"""Render one benchmark run's per-cell rows as the paper's tables.

Usage (from the repository root)::

    python3 perfbench/tables.py .perfbench_runs/paper-param-seed1-trace0.json

Each entry is the cell's median host-scaled time over the run's untraced
passes, in the paper's notation: ``T.O`` for a cell stopped by its budget,
``*`` for a replay-confirmed bug (the paper's "not equivalent"), ``<0.1``
under 100 ms, and ``?`` for any other undecided verdict, formatted by
``repro.bench.harness``.  Several mutants share one Table III entry: it
shows their median time, and ``(found/total)`` when bug hunting missed some
of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from common import SRC

sys.path.insert(0, SRC)

from repro.bench.harness import (  # noqa: E402
    Cell, TableAccumulator, format_cell)
from repro.check.result import CheckOutcome, Verdict  # noqa: E402

TITLES = {
    "II": "Table II — equivalence checking, bug-free kernels",
    "III": "Table III — equivalence checking, buggy versions",
    "races": "Parameterized race checking",
}


def entry(cells: list[dict]) -> str:
    """One table entry from the cells that share it: their median time
    with the verdict they agree on, ``?`` when one is undecided."""
    bugs = sum(c["verdict"] == "bug" for c in cells)
    if all(c["verdict"] == "timeout" for c in cells):
        verdict = Verdict.TIMEOUT
    elif bugs:
        verdict = Verdict.BUG
    elif any(c["status"] != "correct" for c in cells):
        verdict = Verdict.UNKNOWN
    else:
        verdict = Verdict.VERIFIED
    text = format_cell(Cell(
        outcome=CheckOutcome(verdict=verdict),
        elapsed=statistics.median(c["time_s"] for c in cells)))
    return text if bugs in (0, len(cells)) else \
        f"{text} ({bugs}/{len(cells)})"


def typical_cells(report: dict) -> list[dict]:
    """Each cell's row with its median untraced time."""
    rows: dict[str, list[dict]] = defaultdict(list)
    for p in report["passes"]:
        if not p["traced"]:
            for row in p["rows"]:
                rows[row["id"]].append(row)
    return [dict(group[0],
                 time_s=statistics.median(r["time_s"] for r in group))
            for group in rows.values()]


def render(report: dict) -> str:
    grid: dict[str, dict[str, dict[str, list[dict]]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(list)))
    for cell in typical_cells(report):
        if cell.get("table") in TITLES:
            grid[cell["table"]][cell["row"]][cell["col"]].append(cell)
    out = [f"{report['workload']}, seed {report['seed']}: median of "
           f"{sum(not p['traced'] for p in report['passes'])} passes, "
           f"{report['cpu_count']} CPUs, Python {report['python']}, "
           f"commit {report.get('commit') or report['src_sha256']}"]
    for table in TITLES:
        if table not in grid:
            continue
        cols = sorted({c for row in grid[table].values() for c in row},
                      key=_col_key)
        acc = TableAccumulator(title=TITLES[table], headers=["Kernel", *cols])
        for row in sorted(grid[table], key=_row_key):
            for col, cells in grid[table][row].items():
                acc.put(row, col, entry(cells))
        out += ["", acc.render()]
    return "\n".join(out)


def _col_key(col: str):
    parts = col.split()
    if parts[0] == "np":
        return (0, int(parts[1].split("=")[1]), col)
    return (1, "+C" in col, col)


def _row_key(row: str):
    name, _, width = row.partition(" (")
    return (name, int(width.rstrip("b)") or 0))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", help="a run's JSON file from .perfbench_runs")
    args = parser.parse_args(argv)
    with open(args.rows, encoding="utf-8") as fh:
        report = json.load(fh)
    if report["workload"] == "serve-mixed":
        print("serve-mixed has no paper table", file=sys.stderr)
        return 2
    print(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
