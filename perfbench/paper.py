"""The paper workloads: every cell is one call of the checker entry point a
user calls, made in a fresh process forked after the imports."""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from functools import partial

import cells as catalog
from cells import judge
from common import (PERFBENCH, host_probe, pass_summary, scale_rows, stop,
                    time_until_line)
from layers import layer_values
from tracing import Tracer

import repro.check.configs as configs
import repro.check.equivalence as nonparam_mod
import repro.check.races as races_mod
import repro.lang as lang
import repro.param.equivalence as param_mod
from repro.check.replay import replay_equivalence
from repro.lang.interp import LaunchConfig, run_kernel


def build(workload: str) -> list[catalog.Cell]:
    if workload == "paper-param":
        return catalog.paper_param_cells()
    return catalog.paper_nonparam_cells()


def setup_probe(workload: str) -> float:
    """Process start until the first cell can be timed, for a fresh
    process that runs the benchmark's set-up and stops."""
    elapsed, proc = time_until_line(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         workload, "--setup-only"], "ready")
    stop(proc)
    return elapsed


def peak_rss_mb(passes: list[dict]) -> float:
    """The largest resident set of a check process, each cell taken at its
    median over the passes.  Cells stopped by their budget are left out:
    how much memory they reach depends on the clock."""
    sizes: dict[str, list[float]] = {}
    for p in passes:
        for row in p["rows"]:
            if row["verdict"] not in ("timeout", "unknown"):
                sizes.setdefault(row["id"], []).append(row["rss_mb"])
    return max(statistics.median(v) for v in sizes.values())


def _builder(cell: catalog.Cell):
    if cell.pair == "Transpose" and not cell.square:
        return partial(configs.transpose_assumptions, square=False)
    return configs.suite_assumptions(cell.pair) if cell.pair else None


def _check(cell: catalog.Cell, infos: list):
    """One user-level check, with the program's defaults."""
    if cell.kind == "races":
        return races_mod.check_races(
            infos[0], cell.width, assumption_builder=_builder(cell),
            concretize=cell.concretize, timeout=cell.budget)
    if cell.kind == "equiv-param":
        return param_mod.check_equivalence_param(
            infos[0], infos[1], cell.width,
            assumption_builder=_builder(cell), concretize=cell.concretize,
            options=param_mod.ParamOptions(timeout=cell.budget,
                                           bughunt=cell.bughunt))
    return nonparam_mod.check_equivalence_nonparam(
        infos[0], infos[1],
        LaunchConfig(bdim=cell.bdim, gdim=cell.gdim, width=cell.width),
        scalar_values=cell.scalars, concretize_extent=cell.concretize_extent,
        timeout=cell.budget)


def confirms(kind: str, infos: list, cex, width: int) -> bool:
    """Does the counterexample replay on the reference interpreter?"""
    if kind == "races":
        config = LaunchConfig(bdim=tuple(cex.bdim), gdim=tuple(cex.gdim),
                              width=width)
        result = run_kernel(infos[0], config, {**cex.scalars, **cex.arrays},
                            check_races=True)
        return bool(result.races)
    return replay_equivalence(infos[0], infos[1], cex, width).confirmed


def run_check(cell: catalog.Cell, tracer: Tracer | None) -> dict:
    """Run one cell and judge it; returns the cell's row."""
    infos: list = []
    outcome = error = None
    if tracer is not None:
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        infos = [lang.check_kernel(lang.parse_kernel(s))
                 for s in cell.sources]
        outcome = _check(cell, infos)
    except Exception as exc:  # a crashing cell is a failed cell
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    row = {"id": cell.id, "table": cell.table, "row": cell.row,
           "col": cell.col, "expect": cell.expect, "time_s": elapsed,
           "cpu_s": time.process_time() - cpu_start}
    if tracer is not None:
        row["self_s"] = dict(tracer.self_s)
        row["counts"] = dict(tracer.counts)
    if outcome is None:
        row.update(verdict="error", status="failed", detail=error)
        return row
    verdict = outcome.verdict.value
    status, detail = judge(
        cell.expect, verdict, outcome.complete,
        lambda: outcome.counterexample is not None and confirms(
            cell.kind, infos, outcome.counterexample, cell.width))
    solver = outcome.stats.get("solver", {})
    row.update(verdict=verdict, complete=outcome.complete, status=status,
               detail=detail or outcome.reason, vcs=outcome.vcs_checked,
               **{k: int(solver.get(k, 0)) for k in (
                   "queries", "cache_hits", "conflicts", "decisions",
                   "propagations", "clauses", "sat_vars")})
    return row


def run_cell(cell: catalog.Cell, traced: bool) -> dict:
    """Run one cell in a child forked from this process after its imports:
    every check starts from the state a fresh command-line check has, so a
    cell's time and counts do not depend on the cells before it."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: run, report, and leave without cleanup
        os.close(read_fd)
        code = 0
        try:
            data = json.dumps(run_check(cell, Tracer() if traced else None))
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(data)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if data:
        row = json.loads(data)
    else:
        row = {"id": cell.id, "table": cell.table, "row": cell.row,
               "col": cell.col, "expect": cell.expect, "time_s": 0.0,
               "verdict": "error", "status": "failed",
               "detail": f"check process died (wait status {status})"}
    row["rss_mb"] = usage.ru_maxrss / 1024.0
    return row


def arrange(cells: list[catalog.Cell], rng) -> list[catalog.Cell]:
    """The seeded cell order every pass of a run replays."""
    order = list(cells)
    rng.shuffle(order)
    return order


def run_pass(order: list[catalog.Cell], traced: bool) -> dict:
    """Run every cell of ``order`` once, each in its own child."""
    # Frozen objects are never scanned by a child's collector, so the
    # children do not copy the parent's pages just to traverse them.
    gc.collect()
    gc.freeze()
    probes, rows = [], []
    for cell in order:
        probes.append(host_probe())
        rows.append(run_cell(cell, traced))
    scale_rows(rows, probes)
    result = {"rows": rows,
              "summary": pass_summary([r["time_s"] for r in rows])}
    if traced:
        result["layers"] = layer_values(rows)
    return result
