#!/usr/bin/env python
"""Benchmark proof certification overhead.

Runs a suite of race and equivalence checks twice —

* ``plain``     — ``certify=False``: the solver's word is final;
* ``certified`` — ``certify=True``: every UNSAT verdict must carry a
  DRAT-style proof the independent checker accepts;

both at ``jobs=1`` with caching off, so the columns isolate the checker's
cost from cache and fan-out effects.  Each cell is run ``--repeats``
times and the minimum wall time is kept (the suite is deterministic; the
minimum is the least noisy estimator on a shared machine).

Writes ``BENCH_certify.json`` with per-cell times, verdicts and
certification counters (proofs checked/rejected, derivations logged and
re-derived, checker seconds), plus whole-suite totals and the headline
``overhead_certified`` ratio.

Verdicts must be identical across both modes (certification must never
*change* an answer, only refuse to trust a wrong one) and no cell may
reject a proof; either failure fails the run.  ``--check-regression``
additionally fails if the certified column exceeds
``RATIO * plain + SLACK`` on any cell — the gate CI uses to keep the
checker's cost honest.

Usage::

    PYTHONPATH=src python benchmarks/bench_certify.py [--smoke]
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
from repro.check.equivalence import check_equivalence
from repro.check.races import check_races
from repro.kernels import load
from repro.lang import LaunchConfig
from repro.smt import SolveConfig

TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}
REDUCE_CONC = {"bdim": (8, 1, 1), "gdim": (1, 1)}
TIMEOUT = 300.0

MODES = (
    ("plain", {"solve": SolveConfig(cache=False)}),
    ("certified", {"solve": SolveConfig(cache=False, certify=True)}),
)

#: Regression gate: certified must not exceed ``RATIO * plain + SLACK``
#: seconds on any cell.  The ISSUE's acceptance bar is 1.5x; the absolute
#: slack keeps sub-second cells (where fixed checker setup dominates) from
#: tripping the ratio on noise.
REGRESSION_RATIO = 1.5
REGRESSION_SLACK = 0.3


def _suite(smoke: bool):
    """(name, callable(**mode_kwargs)) pairs — the benchmark workload.

    VERIFIED-heavy cells on purpose: certification only spends time on
    UNSAT verdicts, so race-free kernels and equivalent pairs are where
    the overhead actually shows.
    """
    _, naive_t = load("naiveTranspose")
    _, opt_t = load("optimizedTranspose")
    _, naive_r = load("naiveReduce")
    _, opt_r = load("optimizedReduce")

    def races(info, width, builder, conc):
        return lambda **kw: check_races(
            info, width, assumption_builder=builder, concretize=conc,
            timeout=TIMEOUT, **kw)

    def equiv_param(src, tgt, width, builder, conc):
        return lambda **kw: check_equivalence(
            src, tgt, method="param", width=width,
            assumption_builder=builder, concretize=conc,
            timeout=TIMEOUT, **kw)

    def equiv_nonparam(src, tgt, config, scalars):
        return lambda **kw: check_equivalence(
            src, tgt, method="nonparam", config=config,
            scalar_values=scalars, timeout=TIMEOUT, **kw)

    cells = [
        ("races/optimizedTranspose/w8",
         races(opt_t, 8, transpose_assumptions, TRANSPOSE_CONC)),
        ("races/optimizedReduce/w16",
         races(opt_r, 16, reduction_assumptions, REDUCE_CONC)),
        ("races/naiveReduce/w16",
         races(naive_r, 16, reduction_assumptions, REDUCE_CONC)),
        ("equiv-param/Reduce/w8",
         equiv_param(naive_r, opt_r, 8, reduction_assumptions,
                     REDUCE_CONC)),
    ]
    if not smoke:
        cells += [
            ("races/optimizedTranspose/w16",
             races(opt_t, 16, transpose_assumptions, TRANSPOSE_CONC)),
            ("races/optimizedReduce/w32",
             races(opt_r, 32, reduction_assumptions, REDUCE_CONC)),
            ("equiv-param/Transpose/w8",
             equiv_param(naive_t, opt_t, 8, transpose_assumptions,
                         TRANSPOSE_CONC)),
            ("equiv-nonparam/Transpose4",
             equiv_nonparam(naive_t, opt_t,
                            LaunchConfig(bdim=(2, 2, 1), gdim=(2, 2),
                                         width=8),
                            {"width": 4, "height": 4})),
        ]
    return cells


def _run_cell(fn, kwargs, repeats: int):
    best = None
    outcome = None
    for _ in range(repeats):
        start = time.monotonic()
        outcome = fn(**kwargs)
        elapsed = time.monotonic() - start
        best = elapsed if best is None else min(best, elapsed)
    solver = outcome.stats.get("solver", {})
    cert = outcome.stats.get("certify", {})
    return {"verdict": outcome.verdict.name, "elapsed": round(best, 4),
            "queries": solver.get("queries", 0),
            "conflicts": int(solver.get("conflicts", 0)),
            "certify": {
                "checked": int(cert.get("checked", 0)),
                "rejected": int(cert.get("rejected", 0)),
                "trivial": int(cert.get("trivial", 0)),
                "steps": int(cert.get("steps", 0)),
                "verified": int(cert.get("verified", 0)),
                "time": round(float(cert.get("time", 0.0)), 4),
            }}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output",
                        default=os.path.join(os.path.dirname(__file__), "..",
                                             "BENCH_certify.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="small cell set for CI")
    parser.add_argument("--repeats", type=int, default=2,
                        help="runs per cell; minimum wall time is kept")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail if certified exceeds "
                             f"{REGRESSION_RATIO}x plain + "
                             f"{REGRESSION_SLACK}s on any cell")
    args = parser.parse_args(argv)

    suite = _suite(args.smoke)
    report = {"smoke": args.smoke, "repeats": args.repeats,
              "suite_size": len(suite), "cells": {}}
    totals = {mode: 0.0 for mode, _ in MODES}
    check_time = 0.0
    proofs = rejected = 0

    for name, fn in suite:
        cell = {}
        for mode, kwargs in MODES:
            print(f"{name} [{mode}] ...", flush=True)
            cell[mode] = _run_cell(fn, kwargs, args.repeats)
            totals[mode] += cell[mode]["elapsed"]
        if cell["plain"]["verdict"] != cell["certified"]["verdict"]:
            print(f"VERDICT MISMATCH at {name}: "
                  f"plain={cell['plain']['verdict']} "
                  f"certified={cell['certified']['verdict']}",
                  file=sys.stderr)
            return 1
        cert = cell["certified"]["certify"]
        if cert["rejected"]:
            print(f"PROOF REJECTED at {name}: {cert['rejected']} of "
                  f"{cert['checked']} proofs failed the checker",
                  file=sys.stderr)
            return 1
        check_time += cert["time"]
        proofs += cert["checked"]
        rejected += cert["rejected"]
        report["cells"][name] = cell

    report["totals"] = {m: round(t, 4) for m, t in totals.items()}
    report["proofs_checked"] = proofs
    report["proofs_rejected"] = rejected
    report["checker_seconds"] = round(check_time, 4)
    report["overhead_certified"] = round(
        totals["certified"] / totals["plain"], 3) if totals["plain"] \
        else None

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for mode, _ in MODES:
        print(f"{mode:12s} {totals[mode]:8.2f}s")
    print(f"proofs checked  {proofs} (rejected: {rejected}, "
          f"checker {check_time:.2f}s)")
    print(f"certified overhead x{report['overhead_certified']}")
    print(f"wrote {os.path.abspath(args.output)}")

    if args.check_regression:
        failed = False
        for name, cell in report["cells"].items():
            limit = (REGRESSION_RATIO * cell["plain"]["elapsed"]
                     + REGRESSION_SLACK)
            got = cell["certified"]["elapsed"]
            if got > limit:
                print(f"REGRESSION at {name}: certified {got:.2f}s > "
                      f"{limit:.2f}s ({REGRESSION_RATIO}x plain + slack)",
                      file=sys.stderr)
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
