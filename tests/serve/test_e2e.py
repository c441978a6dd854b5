"""End-to-end smoke: a real server subprocess serving HTTP and JSONL.

The same kernel is checked twice over HTTP and once over JSONL; all
three answers must agree, the repeats must hit the warm shared cache,
and shutdown must be clean — exit 0 and every worker process reaped."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.kernels import KERNELS

SRC = KERNELS["optimizedTranspose"].source

REQUEST = {"command": "races", "source": SRC, "width": 8,
           "pair": "Transpose", "cbdim": [2, 2, 1], "cgdim": [2, 2],
           "scalars": {"width": 4, "height": 4}, "timeout": 120}


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _children_of(pid):
    """PIDs whose parent is ``pid`` (Linux /proc scan)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().split()
            if int(fields[3]) == pid:
                kids.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return kids


@pytest.mark.slow
class TestServeSmoke:
    def test_http_and_jsonl_agree_and_shutdown_clean(self, tmp_path):
        cache_dir = tmp_path / "qc"
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve",
             "--port", "0", "--stdio", "--workers", "1",
             "--cache-dir", str(cache_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(
                     p for p in ("src", os.environ.get("PYTHONPATH", ""))
                     if p)},
            cwd=os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))))
        try:
            ready = proc.stdout.readline().strip()
            assert ready.startswith("pugpara-serve ready"), ready
            port = int(ready.split("http=127.0.0.1:")[1].split()[0])
            base = f"http://127.0.0.1:{port}"

            status, health = _post_health = None, None
            with urllib.request.urlopen(f"{base}/v1/health",
                                        timeout=30) as resp:
                health = json.loads(resp.read())
            assert health["status"] == "ok"

            s1, cold = _post(f"{base}/v1/check", REQUEST)
            s2, warm = _post(f"{base}/v1/check", REQUEST)
            assert s1 == s2 == 200
            assert cold["verdict"] == warm["verdict"] == "verified"
            assert cold["exit_code"] == warm["exit_code"] == 0
            assert warm["stats"]["solver"]["cache_hits"] > 0

            # same check over JSONL: identical verdict, still warm
            proc.stdin.write(json.dumps({**REQUEST, "id": 7}) + "\n")
            proc.stdin.flush()
            jsonl = json.loads(proc.stdout.readline())
            assert jsonl["id"] == 7
            assert jsonl["verdict"] == cold["verdict"] == "verified"
            assert jsonl["http_status"] == 200
            assert jsonl["key"] == cold["key"]
            assert jsonl["stats"]["solver"]["cache_hits"] > 0

            # `tenant` is an unknown field over both transports
            status, bad = _post(f"{base}/v1/check",
                                {**REQUEST, "tenant": "a"})
            assert status == 422 and "tenant" in bad["error"]
            proc.stdin.write(json.dumps({**REQUEST, "tenant": "a"}) + "\n")
            proc.stdin.flush()
            bad = json.loads(proc.stdout.readline())
            assert bad["http_status"] == 422 and "tenant" in bad["error"]

            # the bundled CLI client against the live server
            from repro.cli import main as cli_main
            req_file = tmp_path / "req.json"
            req_file.write_text(json.dumps(REQUEST))
            assert cli_main(["client", base, str(req_file)]) == 0

            # the warm pool exists; remember its worker pids
            workers = _children_of(proc.pid)

            # stats endpoint sees the traffic and the sharded store
            with urllib.request.urlopen(f"{base}/v1/stats",
                                        timeout=30) as resp:
                stats = json.loads(resp.read())
            assert stats["requests"] >= 6
            assert "rejected" not in stats
            assert stats["cache"]["entries"] > 0
            assert stats["cache"]["corrupt"] == 0

            # EOF on stdin is the shutdown signal: exit 0, workers reaped
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                alive = [pid for pid in workers
                         if os.path.exists(f"/proc/{pid}")
                         and "Z" not in _state(pid)]
                if not alive:
                    break
                time.sleep(0.1)
            assert not alive, f"orphaned workers: {alive}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


@pytest.mark.slow
def test_workers_exit_when_the_server_is_killed(tmp_path):
    """A SIGKILLed server runs no teardown; its workers must notice the
    lost parent and exit on their own instead of lingering as orphans."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.serve", "--stdio",
         "--workers", "1", "--cache-dir", str(tmp_path / "qc")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 p for p in ("src", os.environ.get("PYTHONPATH", ""))
                 if p)},
        cwd=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
    try:
        assert proc.stdout.readline().startswith("pugpara-serve ready")
        proc.stdin.write(json.dumps({**REQUEST, "id": 1}) + "\n")
        proc.stdin.flush()
        assert json.loads(proc.stdout.readline())["verdict"] == "verified"
        workers = _children_of(proc.pid)
        assert workers
        proc.kill()
        proc.wait(timeout=10)
        time.sleep(5)
        alive = [pid for pid in workers
                 if os.path.exists(f"/proc/{pid}") and "Z" not in _state(pid)]
        for pid in alive:  # leave no survivor behind the test
            os.kill(pid, signal.SIGKILL)
        assert not alive, f"workers outlived the killed server: {alive}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _state(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split()[2]
    except (OSError, IndexError):
        return "Z"
