"""Paths, environment hygiene and statistics shared by the workloads."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import time

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")

#: :func:`host_probe`'s time on a quiet host; every reported time is scaled
#: to the host speed at which the probe takes exactly this long.
HOST_PROBE_REF_S = 0.010
#: Probes on each side of a timed item that set its host speed.
PROBE_WINDOW = 2


def clean_env() -> dict[str, str]:
    """This process's environment without any ``PUGPARA_*`` knob, with the
    sources on the import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PUGPARA_")}
    env["PYTHONPATH"] = SRC
    return env


def host_probe() -> float:
    """Time a fixed pure-Python integer loop to gauge how fast the host runs
    right now.  Other tenants of a shared machine slow it and the program
    alike, for minutes at a time.  A loop that touches no memory tracks the
    program: on a 2-vCPU host whose speed swung 1.8x, the checker's time
    moved as this probe's time to the power 0.95, but only as the power 0.67
    of a loop over a 40k-entry dict, which contention slows more."""
    start = time.perf_counter()
    x = 1
    for i in range(90000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def host_scaled(times: list[float], probes: list[float]) -> list[float]:
    """Scale each time to the reference host speed, using the median of the
    probes taken around it (``probes[i]`` ran just before ``times[i]``)."""
    out = []
    for i, seconds in enumerate(times):
        near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append(seconds * HOST_PROBE_REF_S / statistics.median(near))
    return out


def scale_rows(rows: list[dict], probes: list[float]) -> None:
    """Keep each row's measured ``wall_s`` and report ``time_s`` at the
    reference host speed — except for a check stopped by its budget, whose
    wall time is clock time however fast the host runs."""
    scaled = host_scaled([r["time_s"] for r in rows], probes)
    for row, probe, seconds in zip(rows, probes, scaled):
        if row["verdict"] in ("timeout", "unknown"):
            seconds = row["time_s"]  # its budget ran out: the clock's time
        row.update(wall_s=row["time_s"], probe_s=probe, time_s=seconds)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile)``; with ten samples or fewer, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def geomean(samples: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(max(s, 1e-6))
                                     for s in samples))


def pass_summary(times: list[float]) -> dict:
    """One pass's verdict-time statistics."""
    value, pct = tail(times)
    return {"pass_s": sum(times), "verdict_p50_s": statistics.median(times),
            "verdict_tail_s": value, "tail_percentile": pct,
            "verdict_geomean_s": geomean(times), "samples": len(times)}


def time_until_line(argv: list[str], expect: str,
                    stdin=subprocess.DEVNULL) -> tuple[float,
                                                       subprocess.Popen]:
    """Start ``argv`` and time it until its first output line starts with
    ``expect``; returns the time and the still-running process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            env=clean_env(), cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if not line.startswith(expect):
        stop(proc)
        raise RuntimeError(f"{argv[1:3]} did not print {expect!r}")
    return elapsed, proc


def stop(proc: subprocess.Popen, grace: float = 60.0) -> None:
    """Let ``proc`` exit (its input closed), killing it after ``grace``."""
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            try:
                pipe.close()
            except OSError:
                pass
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
