#!/usr/bin/env python
"""Benchmark the dispatch layer: parallel fan-out and the query cache.

Runs a small suite of race and equivalence checks three ways —

* ``serial``   — ``jobs=1``, caching off (the pre-dispatch baseline);
* ``parallel`` — ``jobs=cpu_count()``, caching off;
* ``warm``     — ``jobs=1`` against a pre-populated disk cache;

and writes ``BENCH_dispatch.json`` next to the repo root with per-check and
aggregate wall times plus the two headline speedups.  The machine's CPU
count is recorded because the parallel number is only meaningful relative
to it — on a single-core container the parallel column measures dispatch
overhead, not speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_dispatch.py [-o OUT.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.check.configs import reduction_assumptions, transpose_assumptions
from repro.check.equivalence import check_equivalence
from repro.check.races import check_races
from repro.kernels import load
from repro.lang import LaunchConfig
from repro.smt import SolveConfig
from repro.smt.qcache import QueryCache

TRANSPOSE_CONC = {"bdim": (2, 2, 1), "gdim": (2, 2),
                  "scalars": {"width": 4, "height": 4}}
REDUCE_CONC = {"bdim": (8, 1, 1), "gdim": (1, 1)}
TIMEOUT = 300.0


def _suite():
    """(name, callable(solve)) pairs — the benchmark workload."""
    _, naive_t = load("naiveTranspose")
    _, opt_t = load("optimizedTranspose")
    _, naive_r = load("naiveReduce")
    _, opt_r = load("optimizedReduce")

    def races(info, builder, conc):
        return lambda solve: check_races(
            info, 8, assumption_builder=builder, concretize=conc,
            timeout=TIMEOUT, solve=solve)

    def equiv_nonparam(src, tgt, scalars, gdim=(1, 1)):
        config = LaunchConfig(bdim=(2, 2, 1), gdim=gdim, width=8)
        return lambda solve: check_equivalence(
            src, tgt, method="nonparam", config=config,
            scalar_values=scalars, timeout=TIMEOUT, solve=solve)

    def equiv_param(src, tgt, builder, conc):
        return lambda solve: check_equivalence(
            src, tgt, method="param", width=8, assumption_builder=builder,
            concretize=conc, timeout=TIMEOUT, solve=solve)

    return [
        ("races/naiveTranspose",
         races(naive_t, transpose_assumptions, TRANSPOSE_CONC)),
        ("races/optimizedTranspose",
         races(opt_t, transpose_assumptions, TRANSPOSE_CONC)),
        ("races/optimizedReduce",
         races(opt_r, reduction_assumptions, REDUCE_CONC)),
        ("equiv-nonparam/Transpose2",
         equiv_nonparam(naive_t, opt_t, {"width": 2, "height": 2})),
        ("equiv-nonparam/Transpose4",
         equiv_nonparam(naive_t, opt_t, {"width": 4, "height": 4},
                        gdim=(2, 2))),
        ("equiv-param/Reduce",
         equiv_param(naive_r, opt_r, reduction_assumptions, REDUCE_CONC)),
        ("equiv-param/Transpose",
         equiv_param(naive_t, opt_t, transpose_assumptions, TRANSPOSE_CONC)),
    ]


def _run(suite, solve: SolveConfig):
    cells = {}
    total = 0.0
    for name, fn in suite:
        start = time.monotonic()
        outcome = fn(solve)
        elapsed = time.monotonic() - start
        total += elapsed
        cells[name] = {"verdict": outcome.verdict.name,
                       "elapsed": round(elapsed, 4)}
    return cells, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output",
                        default=os.path.join(os.path.dirname(__file__), "..",
                                             "BENCH_dispatch.json"))
    parser.add_argument("--jobs", type=int,
                        default=max(4, os.cpu_count() or 1),
                        help="worker count for the parallel pass "
                             "(default: max(4, cpu_count))")
    args = parser.parse_args(argv)

    suite = _suite()
    report = {"cpu_count": os.cpu_count(), "parallel_jobs": args.jobs,
              "suite_size": len(suite)}

    print(f"serial pass (jobs=1, no cache) ...", flush=True)
    serial_cells, serial_total = _run(suite, SolveConfig(cache=False))

    print(f"parallel pass (jobs={args.jobs}, no cache) ...", flush=True)
    parallel_cells, parallel_total = _run(
        suite, SolveConfig(jobs=args.jobs, cache=False))

    cache_dir = tempfile.mkdtemp(prefix="pugpara_bench_cache_")
    try:
        print("cold pass (jobs=1, populating disk cache) ...", flush=True)
        _, cold_total = _run(
            suite, SolveConfig(cache=QueryCache(disk_dir=cache_dir)))
        print("warm pass (jobs=1, fresh process-level cache, disk warm) ...",
              flush=True)
        warm_cells, warm_total = _run(
            suite, SolveConfig(cache=QueryCache(disk_dir=cache_dir)))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    for (name, _), s, p, w in zip(suite, serial_cells.values(),
                                  parallel_cells.values(),
                                  warm_cells.values()):
        if not (s["verdict"] == p["verdict"] == w["verdict"]):
            print(f"VERDICT MISMATCH at {name}: {s} vs {p} vs {w}",
                  file=sys.stderr)
            return 1

    report["serial"] = {"total": round(serial_total, 4),
                        "cells": serial_cells}
    report["parallel"] = {"total": round(parallel_total, 4),
                          "cells": parallel_cells}
    report["cold"] = {"total": round(cold_total, 4)}
    report["warm"] = {"total": round(warm_total, 4), "cells": warm_cells}
    report["speedup_parallel"] = round(serial_total / parallel_total, 3) \
        if parallel_total else None
    report["speedup_warm"] = round(cold_total / warm_total, 3) \
        if warm_total else None

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"serial   {serial_total:8.2f}s")
    print(f"parallel {parallel_total:8.2f}s  "
          f"(x{report['speedup_parallel']} at jobs={args.jobs})")
    print(f"cold     {cold_total:8.2f}s")
    print(f"warm     {warm_total:8.2f}s  (x{report['speedup_warm']})")
    print(f"wrote {os.path.abspath(args.output)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
