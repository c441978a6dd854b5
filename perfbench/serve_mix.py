"""The serve workload: one closed-loop client, one request in flight, talking
JSONL to ``python -m repro.serve --stdio --workers 1``.

Every pass starts a fresh server on a fresh cache directory and sends the
whole seeded stream: request families interleaved at random, each family in
its fixed order (first submission, neighbours, exact and alpha-renamed
resubmissions).  The solving happens in the server's worker process, so the
per-layer numbers come from the stats each response carries.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import cells as catalog
import paper
from cells import judge
from common import (OUT_DIR, host_probe, pass_summary, scale_rows, stop,
                    time_until_line)
from layers import LAYER_UNITS, share

from repro.check.result import Counterexample
from repro.lang import check_kernel, parse_kernel


def build() -> list[list[catalog.Request]]:
    return catalog.serve_families()


def _server_argv(cache_dir: str) -> list[str]:
    return [sys.executable, "-m", "repro.serve", "--stdio", "--workers", "1",
            "--cache-dir", cache_dir]


def _fresh_cache_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="serve-cache-", dir=OUT_DIR)


def setup_probe() -> float:
    """Server start until its ready line, for a server stopped at once."""
    cache_dir = _fresh_cache_dir()
    try:
        elapsed, proc = time_until_line(_server_argv(cache_dir),
                                        "pugpara-serve ready",
                                        stdin=subprocess.PIPE)
        stop(proc)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return elapsed


def peak_rss_mb(passes: list[dict]) -> float:
    """The largest resident set among the passes' servers and workers."""
    return max(p["rss_mb"] for p in passes)


def arrange(families: list[list[catalog.Request]],
            rng) -> list[catalog.Request]:
    """The seeded request stream every pass of a run replays: a uniformly
    random interleaving of the families that keeps each family's order."""
    slots = [i for i, fam in enumerate(families) for _ in fam]
    rng.shuffle(slots)
    queues = [list(fam) for fam in families]
    return [queues[i].pop(0) for i in slots]


def _cex(blob: dict) -> Counterexample:
    return Counterexample(
        bdim=tuple(blob["bdim"]), gdim=tuple(blob["gdim"]),
        scalars=dict(blob.get("scalars") or {}),
        arrays={name: {int(i): v for i, v in cells.items()}
                for name, cells in (blob.get("arrays") or {}).items()})


def confirms(payload: dict, blob: dict | None) -> bool:
    """Does the response's counterexample replay on the interpreter?"""
    if not blob:
        return False
    infos = [check_kernel(parse_kernel(s))
             for s in catalog.request_sources(payload)]
    return paper.confirms(payload["command"], infos, _cex(blob),
                          payload["width"])


def _row(req: catalog.Request, latency: float, body: dict | None) -> dict:
    row = {"id": req.id, "role": req.role, "expect": req.expect,
           "time_s": latency}
    if not body or body.get("status") != "ok":
        row.update(verdict="error", status="failed",
                   detail=(body or {}).get("error", "no response"))
        return row
    verdict = body["verdict"]
    status, detail = judge(req.expect, verdict, body.get("complete", True),
                           lambda: confirms(req.payload,
                                            body.get("counterexample")))
    stats = body.get("stats") or {}
    solver = stats.get("solver") or {}
    enc = stats.get("encode") or {}
    row.update(verdict=verdict, status=status,
               detail=detail or body.get("reason", ""),
               elapsed=float(body.get("elapsed", 0.0)),
               solver_s=float(body.get("solver_time", 0.0)),
               nonparam=req.payload.get("method") == "nonparam",
               symexec_s=float(enc.get("symexec_time", 0.0)),
               template_hits=int(enc.get("template_hits", 0)),
               template_misses=int(enc.get("template_misses", 0)),
               **{k: solver.get(k, 0) for k in (
                   "queries", "cache_hits", "conflicts", "decisions",
                   "propagations", "clauses", "sat_vars", "simplify_time",
                   "array_time", "blast_time", "sat_time")})
    return row


def _phase_split(row: dict) -> dict[str, float]:
    """A response's solver time split over term rewriting, bit-blasting and
    SAT.  A cache hit costs no solver time but reports the phase times of
    the solve that wrote it, so the reported phases only give the shares."""
    phases = {"smt.term.self_s": row["simplify_time"] + row["array_time"],
              "smt.blast.self_s": row["blast_time"],
              "smt.sat.self_s": row["sat_time"]}
    scale = share(row["solver_s"], sum(phases.values()))
    return {name: value * scale for name, value in phases.items()}


def layer_values(rows: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the worker-reported stats.  The
    counts are the responses' own, so they include the work a cache hit
    recorded when it was first solved."""
    ok = [r for r in rows if "elapsed" in r]
    total = sum(r.get("wall_s", 0.0) for r in rows)

    def tot(key: str, subset=None) -> float:
        return sum(r.get(key, 0) for r in (ok if subset is None else subset))

    phases = [_phase_split(r) for r in ok]

    out = {name: 0.0 for name in LAYER_UNITS}
    out.update({
        "serve.overhead_s": total - tot("elapsed"),
        "encode.self_s": tot("symexec_s", [r for r in ok if r["nonparam"]]),
        "param.self_s": tot("symexec_s",
                            [r for r in ok if not r["nonparam"]]),
        "encode.template_hit_share": share(
            tot("template_hits"),
            tot("template_hits") + tot("template_misses")),
        **{name: sum(p[name] for p in phases) for name in (
            "smt.term.self_s", "smt.blast.self_s", "smt.sat.self_s")},
        "smt.blast.clauses": tot("clauses"),
        "smt.blast.sat_vars": tot("sat_vars"),
        "smt.sat.conflicts": tot("conflicts"),
        "smt.sat.propagations": tot("propagations"),
        "smt.sat.decisions": tot("decisions"),
        "smt.dispatch.queries": tot("queries"),
        "smt.qcache.hit_share": share(tot("cache_hits"), tot("queries")),
    })
    attributed = out["serve.overhead_s"] + tot("symexec_s") + tot("solver_s")
    out["unattributed_share"] = share(total - attributed, total)
    return out


def run_pass(stream: list[catalog.Request], traced: bool) -> dict:
    """Send the whole stream to a fresh server on a fresh cache directory."""
    cache_dir = _fresh_cache_dir()
    sent: list[tuple[catalog.Request, float, dict | None]] = []
    probes: list[float] = []
    try:
        _, proc = time_until_line(
            _server_argv(cache_dir), "pugpara-serve ready",
            stdin=subprocess.PIPE)
        try:
            for req in stream:
                line = json.dumps({**req.payload, "id": req.id}) + "\n"
                probes.append(host_probe())
                start = time.perf_counter()
                proc.stdin.write(line)
                proc.stdin.flush()
                reply = proc.stdout.readline()
                latency = time.perf_counter() - start
                sent.append((req, latency,
                             json.loads(reply) if reply else None))
                if not reply:
                    break
        finally:
            stop(proc)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    rows = [_row(req, latency, body) for req, latency, body in sent]
    scale_rows(rows, probes)
    rows += [_row(req, 0.0, None) for req in stream[len(sent):]]
    result = {"rows": rows,
              "summary": pass_summary([r["time_s"] for r in rows]),
              "rss_mb": resource.getrusage(
                  resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if traced:
        result["layers"] = layer_values(rows)
    return result
