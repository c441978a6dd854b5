#!/usr/bin/env python
"""Benchmark the verification server: cold vs warm vs in-flight-deduped.

Starts a real server subprocess (HTTP transport, one warm worker, a
sharded disk cache) and measures three request regimes —

* ``cold``  — the first submission ever: full parse/encode/solve;
* ``warm``  — identical resubmissions: answered from the shared cache by
  an already-warm worker (requests/sec, p50/p95);
* ``dedup`` — N identical requests fired concurrently at a fresh server:
  one solve, N-1 in-flight joins.

Then proves the shared-cache story: two server processes pointing at ONE
cache directory answer the same request set with bit-identical verdicts
and leave zero corrupt or quarantined entries behind, in the query cache
and in the template tree alike.

Writes ``BENCH_serve.json`` next to the repo root.  Exits nonzero when
the warm speedup drops below 5x or any shared-cache entry is damaged.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [-o OUT.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.kernels import KERNELS
from repro.serve.session import stores_of

#: Heavy enough (a fully symbolic 16-bit race check) that the cold solve,
#: not the fixed per-request serve overhead, dominates the cold latency.
REQUEST = {
    "command": "races",
    "source": KERNELS["optimizedReduce"].source,
    "width": 16, "pair": "Reduction", "timeout": 300,
}


def _post(base: str, payload: dict) -> tuple[float, dict]:
    req = urllib.request.Request(
        f"{base}/v1/check", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    start = time.monotonic()
    try:
        with urllib.request.urlopen(req, timeout=600) as resp:
            body = json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = json.loads(exc.read())
    return time.monotonic() - start, body


class _Server:
    def __init__(self, cache_dir: str, workers: int = 1) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve", "--port", "0",
             "--workers", str(workers), "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(
                os.path.dirname(__file__), "..", "src")})
        ready = self.proc.stdout.readline().strip()
        port = int(ready.split("http=127.0.0.1:")[1].split()[0])
        self.base = f"http://127.0.0.1:{port}"

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self.proc.kill()
            self.proc.wait(timeout=10)


def _percentiles(samples: list[float]) -> dict:
    ordered = sorted(samples)
    return {
        "p50": round(statistics.median(ordered), 4),
        "p95": round(ordered[min(len(ordered) - 1,
                                 int(0.95 * len(ordered)))], 4),
        "mean": round(statistics.fmean(ordered), 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output",
                        default=os.path.join(os.path.dirname(__file__),
                                             "..", "BENCH_serve.json"))
    parser.add_argument("--warm-requests", type=int, default=10)
    parser.add_argument("--dedup-requests", type=int, default=6)
    args = parser.parse_args(argv)
    report: dict = {"request": "races/optimizedReduce (16b, -C, Reduction "
                               "pair)", "cpu_count": os.cpu_count()}

    # ---- cold vs warm on one server, one fresh cache -------------------
    cache_dir = tempfile.mkdtemp(prefix="pugpara_bench_serve_")
    try:
        print("cold + warm pass (1 server, 1 warm worker) ...", flush=True)
        server = _Server(cache_dir)
        try:
            cold_s, cold_body = _post(server.base, REQUEST)
            assert cold_body.get("verdict"), cold_body
            warm_samples = []
            for _ in range(args.warm_requests):
                elapsed, body = _post(server.base, REQUEST)
                assert body["verdict"] == cold_body["verdict"], body
                warm_samples.append(elapsed)
        finally:
            server.stop()
        warm = _percentiles(warm_samples)
        warm["n"] = len(warm_samples)
        warm["rps"] = round(len(warm_samples) / sum(warm_samples), 2)
        speedup = cold_s / statistics.median(warm_samples)
        report["cold"] = {"seconds": round(cold_s, 4),
                          "verdict": cold_body["verdict"]}
        report["warm"] = warm
        report["speedup_warm_vs_cold"] = round(speedup, 2)
        print(f"  cold {cold_s:.3f}s, warm p50 {warm['p50']}s "
              f"-> {speedup:.1f}x", flush=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # ---- in-flight dedup on a fresh server + fresh cache ---------------
    cache_dir = tempfile.mkdtemp(prefix="pugpara_bench_serve_")
    try:
        print(f"dedup pass ({args.dedup_requests} concurrent identical "
              "requests) ...", flush=True)
        server = _Server(cache_dir)
        try:
            with ThreadPoolExecutor(args.dedup_requests) as tpe:
                futures = [tpe.submit(_post, server.base, REQUEST)
                           for _ in range(args.dedup_requests)]
                results = [f.result() for f in futures]
        finally:
            server.stop()
        latencies = [elapsed for elapsed, _ in results]
        verdicts = {body["verdict"] for _, body in results}
        deduped = sum(1 for _, body in results if body.get("deduped"))
        dedup = _percentiles(latencies)
        dedup.update({"n": len(results), "deduped": deduped,
                      "verdicts": sorted(verdicts)})
        report["dedup"] = dedup
        print(f"  {deduped}/{len(results) - 1} followers joined in "
              f"flight, p95 {dedup['p95']}s", flush=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # ---- two servers, ONE shared cache directory -----------------------
    cache_dir = tempfile.mkdtemp(prefix="pugpara_bench_serve_shared_")
    try:
        print("shared-cache pass (2 server processes, 1 directory) ...",
              flush=True)
        a = _Server(cache_dir)
        b = _Server(cache_dir)
        try:
            with ThreadPoolExecutor(2) as tpe:
                fa = tpe.submit(_post, a.base, REQUEST)
                fb = tpe.submit(_post, b.base, REQUEST)
                _, body_a = fa.result()
                _, body_b = fb.result()
            # and a second round, now warm through the shared store
            _, again_a = _post(a.base, REQUEST)
            _, again_b = _post(b.base, REQUEST)
        finally:
            a.stop()
            b.stop()
        identical = (body_a["verdict"] == body_b["verdict"]
                     == again_a["verdict"] == again_b["verdict"]
                     and body_a["key"] == body_b["key"])
        # Audit both stores on the directory: solved queries and the
        # VC templates in its templates/ tree.
        stores = stores_of(cache_dir)
        inventories = [store.inventory() for store in stores]
        report["shared_cache"] = {
            "servers": 2, "verdicts_identical": identical,
            "verdict": body_a["verdict"],
            "entries": inventories[0]["entries"],
            "template_entries": inventories[1]["entries"],
            "corrupt": sum(inv["corrupt"] for inv in inventories),
            "bad": sum(store.audit()["bad"] for store in stores),
        }
        sc = report["shared_cache"]
        print(f"  identical={identical}, entries={sc['entries']}, "
              f"templates={sc['template_entries']}, "
              f"corrupt={sc['corrupt']}, bad={sc['bad']}", flush=True)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.output)}")

    failures = []
    if report["speedup_warm_vs_cold"] < 5.0:
        failures.append("warm resubmission is not >=5x faster than cold")
    sc = report["shared_cache"]
    if not sc["verdicts_identical"]:
        failures.append("shared-cache servers disagreed")
    if sc["corrupt"] or sc["bad"]:
        failures.append("shared cache holds damaged entries")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
