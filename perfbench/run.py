"""The repository's benchmark: the paper's tables and a serving mix, by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-param --seed 1 --seconds 30 --trace 0

Workloads:

* ``paper-param`` — every parameterized cell of Tables II/III, the
  parameterized race checks, and Transpose 8b param -C under a fixed budget;
* ``paper-nonparam`` — the serialized n-columns of Tables II/III and the
  Reduction n-ladder up to n = 128;
* ``serve-mixed`` — one closed-loop client sending a seeded stream of race
  and equivalence requests to ``python -m repro.serve --stdio --workers 1``
  with a fresh cache directory per pass.

A *pass* runs every cell (or request) of the workload once, in an order drawn
from ``--seed``; passes replay that order until ``--seconds`` have elapsed,
and each cell's time is its median over the passes, scaled to a reference
host speed measured between cells (see ``common.host_probe``).  Paper cells
call the public checker entry points with the program's defaults, each in a
child forked after the imports (``paper.run_cell``), so every cell starts
from the state a fresh command-line check has, whatever ran before it.

Every verdict is checked against the hand-written answer in ``cells.py``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``; per-layer metrics from spans with ``--trace 1``).  Per-cell
rows and run details go to ``.perfbench_runs/`` in the repository root;
``python3 perfbench/tables.py ROWS.json`` renders them as the paper's tables.
The exit code is 1 when any cell failed, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from functools import partial

from common import HOST_PROBE_REF_S, OUT_DIR, ROOT, SRC, host_probe, \
    pass_summary
from layers import LAYER_UNITS

#: Passes every run makes at least, so every cell has a repeat to compare.
MIN_PASSES = 2
#: Set-up samples taken after each untraced pass, spread over the run.
SETUP_PER_PASS = 2

WORKLOADS = ("paper-param", "paper-nonparam", "serve-mixed")


def run_info() -> dict:
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


# ------------------------------------------------------------ the passes


def run_passes(workload, setup_probe, order: list, seconds: float,
               trace: bool) -> list[dict]:
    """Replay ``order`` pass after pass while another pass is expected to
    end within ``seconds`` of the start (and at least :data:`MIN_PASSES`
    times).  With tracing, passes alternate untraced/traced so both the
    per-layer numbers and the tracing overhead come from one run; without,
    set-up samples follow every pass."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        result = workload.run_pass(order, traced)
        result["traced"] = traced
        if not trace:
            for _ in range(SETUP_PER_PASS):
                before = host_probe()
                setup_seconds = setup_probe()
                speed = (before + host_probe()) / 2
                result.setdefault("setup", []).append(
                    setup_seconds * HOST_PROBE_REF_S / speed)
        passes.append(result)
        print(f"pass {len(passes)}{' traced' if traced else ''}: "
              f"{result['summary']['pass_s']:.3f}s, "
              f"{len(result['rows'])} verdicts", flush=True)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def typical_pass(passes: list[dict]) -> dict:
    """Statistics of a pass in which every cell takes its median time over
    ``passes``; every pass replays the same inputs."""
    times: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for row in p["rows"]:
            times[row["id"]].append(row["time_s"])
    return pass_summary([statistics.median(v) for v in times.values()])


def end_to_end(passes: list[dict], setup: list[float],
               peak_rss_mb: float) -> dict:
    rows = [r for p in passes for r in p["rows"]]
    typical = typical_pass(passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (typical["pass_s"], "s"),
        "verdict_p50_s": (typical["verdict_p50_s"], "s"),
        "verdict_tail_s": (typical["verdict_tail_s"], "s"),
        "verdict_geomean_s": (typical["verdict_geomean_s"], "s"),
        "decided_share": (sum(r["status"] == "correct" for r in rows)
                          / len(rows), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = [r for p in passes for r in p["rows"]]
    layers = [p["layers"] for p in traced]
    out = {name: (statistics.median(lay[name] for lay in layers), unit)
           for name, unit in LAYER_UNITS.items()}
    out["failed_share"] = (sum(r["status"] == "failed" for r in rows)
                           / len(rows), "ratio")
    out["trace_overhead"] = (typical_pass(traced)["pass_s"]
                             / typical_pass(untraced)["pass_s"], "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("PUGPARA_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)

    if args.workload == "serve-mixed":
        import serve_mix as workload
        items = workload.build()
        setup_probe = workload.setup_probe
    else:
        import paper as workload
        items = workload.build(args.workload)
        setup_probe = partial(workload.setup_probe, args.workload)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    info = run_info()
    order = workload.arrange(items, random.Random(args.seed))
    passes = run_passes(workload, setup_probe, order, args.seconds,
                        bool(args.trace))
    setup = [s for p in passes for s in p.get("setup", [])]
    peak = workload.peak_rss_mb(passes)

    rows = [r for p in passes for r in p["rows"]]
    failed = [r for r in rows if r["status"] == "failed"]
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setup, peak)
    first = passes[0]["summary"]
    print(f"{args.workload}: {len(passes)} passes, {len(rows)} verdicts, "
          f"tail = p{first['tail_percentile']:.1f} of "
          f"{first['samples']} per pass, {len(setup)} set-up samples, "
          f"{len(failed)} failed", flush=True)
    for r in failed:
        print(f"FAILED {r['id']}: {r['verdict']} ({r['detail']})",
              file=sys.stderr)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **info,
              "peak_rss_mb": peak,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "passes": passes}
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": not failed, "attempted": len(rows), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
