"""Confirm the benchmark's expected bugs on the reference interpreter.

Usage (from the repository root)::

    python3 perfbench/oracle.py

For every cell whose expected answer is a bug, this runs the kernels
concretely (``repro.lang.interp``) on seeded random inputs at a launch the
cell covers — the cell's own launch for serialized cells, a valid launch of
the configuration family for parameterized ones — and requires a divergence:
different global outputs, a race or a fault on one side only, or (for race
cells) a race.  It prints one line per cell and exits 1 if any expected bug
does not show.  It does not touch the expected answers of ``cells.py``,
which are written by hand; it only checks them.
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import cells as catalog  # noqa: E402

from repro.lang import check_kernel, parse_kernel  # noqa: E402
from repro.lang.interp import LaunchConfig, run_kernel  # noqa: E402

TRIES = 20

#: A valid launch of each parameterized configuration family:
#: (bdim, gdim, scalars).
FAMILY_LAUNCH = {
    "Transpose": ((4, 4, 1), (2, 2), {"width": 8, "height": 8}),
    "Reduction": ((8, 1, 1), (1, 1), {}),
}


def _launch(cell: catalog.Cell):
    if cell.bdim is not None:
        return cell.bdim, cell.gdim, dict(cell.scalars or {})
    if cell.concretize and "bdim" in cell.concretize:
        return (cell.concretize["bdim"], cell.concretize["gdim"],
                dict(cell.concretize.get("scalars") or {}))
    return FAMILY_LAUNCH[cell.pair]


def _run(info, config, inputs):
    try:
        return run_kernel(info, config, inputs, check_races=True), None
    except Exception as exc:  # a fault is an observable behaviour
        return None, f"{type(exc).__name__}"


def diverges(cell: catalog.Cell, rng: random.Random) -> str | None:
    """A description of the divergence found, or None."""
    infos = [check_kernel(parse_kernel(s)) for s in cell.sources]
    bdim, gdim, scalars = _launch(cell)
    config = LaunchConfig(bdim=tuple(bdim), gdim=tuple(gdim),
                          width=cell.width)
    extent = 1
    for d in (*bdim, *gdim):
        extent *= d
    extent *= 4
    mask = (1 << cell.width) - 1
    for _ in range(TRIES):
        inputs = {**scalars, **{
            name: {i: rng.randint(0, mask) for i in range(extent)}
            for name in infos[0].global_arrays}}
        if cell.kind == "races":
            result, fault = _run(infos[0], config, inputs)
            if fault or (result is not None and result.races):
                return fault or "race"
            continue
        (r1, f1), (r2, f2) = (_run(info, config, inputs) for info in infos)
        if (f1 is None) != (f2 is None):
            return f"fault on one side ({f1 or f2})"
        if f1 is not None:
            continue
        if bool(r1.races) != bool(r2.races):
            return "race on one side"
        for name in infos[0].global_arrays:
            a, b = r1.globals[name], r2.globals.get(name, {})
            if any(a.get(k, 0) != b.get(k, 0) for k in set(a) | set(b)):
                return f"outputs differ in {name}"
    return None


def main() -> int:
    rng = random.Random(0)
    cells = catalog.paper_param_cells() + catalog.paper_nonparam_cells()
    missing = 0
    for cell in cells:
        if cell.expect != catalog.BUG:
            continue
        found = diverges(cell, rng)
        missing += found is None
        print(f"{'ok  ' if found else 'MISS'} {cell.id}: "
              f"{found or 'no divergence found'}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
