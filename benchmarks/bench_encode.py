#!/usr/bin/env python
"""Benchmark the front end: VC templates and interning.

Two columns isolate the cross-configuration template cache
(:mod:`repro.encode.templates`):

* ``cold``      — ``PUGPARA_TEMPLATES=0``: every cell pays symbolic
  execution and race-pair enumeration from scratch;
* ``templates`` — templates on, store reset at the start of each pass:
  the first cell of every (kernel, width) ladder misses, every other
  cell specializes the stored template.

The workload is the template's home turf: width ladders and
concretization sweeps over the paper's kernels, i.e. many cells per
(kernel, check, width) key.  Per-cell the report records wall time, the
front-end's own ``stats["encode"]`` block (symexec seconds, hit/miss),
and the verdict; verdicts must be identical across columns — template
reuse is exact, not approximate — and any mismatch fails the run.

The headline number is ``encode_speedup``: summed symexec seconds in the
``cold`` column over the ``templates`` column, across the ladder cells,
each cell's symexec time being its minimum over the repeated passes.
``--check-regression`` fails the run if it drops below 2x — a ladder of
``k`` cells should approach ``k``x, so 2x holds comfortably and still
catches a broken cache.

Usage::

    PYTHONPATH=src python benchmarks/bench_encode.py [--smoke]
        [--repeats N] [--check-regression] [-o OUT.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.races import check_races
from repro.encode.templates import TemplateStore, set_default_template_store
from repro.kernels import load
from repro.smt import SolveConfig
from repro.smt.terms import intern_stats

TIMEOUT = 300.0

REDUCE_CONCS = [
    {"bdim": (8, 1, 1), "gdim": (1, 1)},
    {"bdim": (4, 1, 1), "gdim": (1, 1)},
    {"bdim": (16, 1, 1), "gdim": (1, 1)},
]
TRANSPOSE_CONCS = [
    {"bdim": (2, 2, 1), "gdim": (2, 2), "scalars": {"width": 4,
                                                    "height": 4}},
    {"bdim": (2, 2, 1), "gdim": (1, 1), "scalars": {"width": 2,
                                                    "height": 2}},
]

#: The template gate: summed cold symexec over summed warm symexec
#: across the ladder cells must stay above this.
ENCODE_SPEEDUP_FLOOR = 2.0


def _suite(smoke: bool):
    """Ladder cells: (name, callable()) in ladder order — several cells
    per (kernel, width) so the template cache has something to share."""
    _, naive_t = load("naiveTranspose")
    _, opt_r = load("optimizedReduce")
    _, naive_r = load("naiveReduce")

    def races(info, width, builder, conc):
        return lambda: check_races(
            info, width, assumption_builder=builder, concretize=conc,
            timeout=TIMEOUT, solve=SolveConfig(cache=False))

    cells = []
    for i, conc in enumerate(REDUCE_CONCS):
        cells.append((f"races/optimizedReduce/w8/c{i}",
                      races(opt_r, 8, reduction_assumptions, conc)))
    for i, conc in enumerate(TRANSPOSE_CONCS):
        cells.append((f"races/naiveTranspose/w8/c{i}",
                      races(naive_t, 8, transpose_assumptions, conc)))
    if not smoke:
        for i, conc in enumerate(REDUCE_CONCS):
            cells.append((f"races/optimizedReduce/w16/c{i}",
                          races(opt_r, 16, reduction_assumptions, conc)))
        for i, conc in enumerate(REDUCE_CONCS[:2]):
            cells.append((f"races/naiveReduce/w8/c{i}",
                          races(naive_r, 8, reduction_assumptions, conc)))
    return cells


def _run_pass(cells, env: dict):
    """One full suite pass under ``env``; fresh template store, so the
    pass sees exactly one miss per (kernel, width) ladder."""
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    set_default_template_store(TemplateStore())
    out = {}
    try:
        for name, fn in cells:
            start = time.monotonic()
            outcome = fn()
            elapsed = time.monotonic() - start
            enc = outcome.stats.get("encode", {})
            out[name] = {
                "verdict": outcome.verdict.name,
                "elapsed": round(elapsed, 4),
                "symexec_s": enc.get("symexec_time", 0.0),
                "template_hits": enc.get("template_hits", 0),
                "template_misses": enc.get("template_misses", 0),
            }
    finally:
        set_default_template_store(None)
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return out


def _min_pass(cells, env, repeats):
    """``repeats`` passes, each cell keeping its own minimum wall time
    and minimum symexec seconds.  The symexec times are milliseconds, so
    they stay unrounded: one slow pass or a rounded-away hit would swing
    the ratio of their sums."""
    kept = _run_pass(cells, env)
    for _ in range(repeats - 1):
        for name, cell in _run_pass(cells, env).items():
            for key in ("elapsed", "symexec_s"):
                kept[name][key] = min(kept[name][key], cell[key])
    return kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output",
                        default=os.path.join(os.path.dirname(__file__), "..",
                                             "BENCH_encode.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="small cell set for CI")
    parser.add_argument("--repeats", type=int, default=2,
                        help="suite passes per column; each cell keeps "
                             "its fastest time")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail below the 2x encode speedup floor")
    args = parser.parse_args(argv)

    cells = _suite(args.smoke)
    print(f"{len(cells)} ladder cells, {args.repeats} pass(es) per column",
          flush=True)
    cold = _min_pass(cells, {"PUGPARA_TEMPLATES": "0"}, args.repeats)
    warm = _min_pass(cells, {"PUGPARA_TEMPLATES": "1"}, args.repeats)

    report = {"smoke": args.smoke, "repeats": args.repeats,
              "cells": {}, "interning": intern_stats()}
    mismatch = False
    for name, _ in cells:
        report["cells"][name] = {"cold": cold[name],
                                 "templates": warm[name]}
        if cold[name]["verdict"] != warm[name]["verdict"]:
            print(f"VERDICT MISMATCH at {name}: "
                  f"cold={cold[name]['verdict']} "
                  f"templates={warm[name]['verdict']}", file=sys.stderr)
            mismatch = True
    if mismatch:
        return 1

    cold_sym = sum(c["symexec_s"] for c in cold.values())
    warm_sym = sum(c["symexec_s"] for c in warm.values())
    hits = sum(c["template_hits"] for c in warm.values())
    report["cold_symexec_s"] = round(cold_sym, 4)
    report["templates_symexec_s"] = round(warm_sym, 4)
    report["template_hits"] = hits
    report["encode_speedup"] = round(cold_sym / warm_sym, 3) \
        if warm_sym else None
    report["cold_elapsed_s"] = round(
        sum(c["elapsed"] for c in cold.values()), 4)
    report["templates_elapsed_s"] = round(
        sum(c["elapsed"] for c in warm.values()), 4)

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"cold symexec      {cold_sym:8.3f}s")
    print(f"templates symexec {warm_sym:8.3f}s  ({hits} hits)")
    print(f"encode speedup    x{report['encode_speedup']}")
    print(f"wrote {os.path.abspath(args.output)}")

    if args.check_regression and \
            (report["encode_speedup"] or 0) < ENCODE_SPEEDUP_FLOOR:
        print(f"REGRESSION: encode speedup "
              f"x{report['encode_speedup']} below the "
              f"x{ENCODE_SPEEDUP_FLOOR} floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
