"""The long-lived verification server: ``python -m repro.serve``.

Two transports answer the same protocol (:mod:`repro.serve.protocol`):

* **HTTP/1.1** — ``POST /v1/check`` with a JSON body, plus ``GET
  /v1/health`` and ``GET /v1/stats``.  The HTTP layer is hand-rolled on
  ``asyncio.start_server`` (the environment bakes in no web framework,
  and the protocol needs exactly one verb); every response closes the
  connection, which keeps the parser honest and tiny.
* **JSONL** — one request object per line over stdin/stdout (``--stdio``)
  or a unix socket (``--socket PATH``); one response object per line,
  each echoing the request's ``id`` when it carries one.

Each request climbs the admission ladder:

1. **validate** — malformed requests answer 422 before touching quota or
   workers;
2. **admit** — the tenant's worst-case escalated budget is reserved
   (:mod:`repro.serve.quotas`); over quota answers 429 with
   ``Retry-After``, never a verdict, never a cache entry;
3. **dedup** — an in-flight check with the same alpha-invariant key
   (:func:`~repro.serve.protocol.canonical_request_key`) is joined, not
   re-solved: the follower awaits the leader's future and gets the
   leader's verdict with the counterexample translated back into its own
   identifier spelling;
4. **solve** — a warm worker runs the check (:mod:`repro.serve.session`);
5. **settle** — the reservation is refunded down to actual spend.

Shutdown (SIGTERM/SIGINT or EOF on stdio) is a *graceful drain*:
in-flight checks run to completion under a configurable deadline
(``--drain-seconds`` / ``PUGPARA_DRAIN_SECONDS``, default 5s) while any
request arriving after the signal answers 503 with a ``draining`` body.
When the last in-flight check settles — or the deadline expires, whichever
comes first — the listeners close, the pool dies through the dispatcher's
no-orphan teardown funnel, and the process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any

from ..smt.dispatch import SolveConfig
from ..smt.resilience import ESCALATIONS, RetryPolicy
from .protocol import (
    HTTP_INTERNAL, HTTP_OVERLOAD, HTTP_USAGE, ProtocolError,
    canonical_request_key, parse_request, translate_counterexample,
    verdict_exit_code, verdict_http_status,
)
from .quotas import QuotaExceeded, QuotaLedger
from .session import Session
from .shards import ensure_layout, scan_shards

__all__ = ["Server", "main"]

#: Emitted once the server is ready to accept work — e2e harnesses and
#: the CI smoke job block on this exact prefix.
READY_PREFIX = "pugpara-serve ready"


def _status_of(body: dict) -> int:
    status = body.get("status")
    if status == "usage":
        return HTTP_USAGE
    if status == "internal":
        return HTTP_INTERNAL
    return verdict_http_status(body.get("verdict", "unknown"))


def _conflicts_of(body: dict) -> int:
    solver = body.get("stats") or {}
    if isinstance(solver, dict):
        solver = solver.get("solver") or {}
    try:
        return int(solver.get("conflicts", 0) or 0)
    except (TypeError, ValueError, AttributeError):
        return 0


class Server:
    """Transport-independent request processing plus the two listeners."""

    def __init__(self, session: Session, ledger: QuotaLedger) -> None:
        self.session = session
        self.ledger = ledger
        # Admission charges for every attempt of the policy the session's
        # checks run under.
        self.policy = session.solve.policy
        self._inflight: dict[str, tuple[asyncio.Future, list]] = {}
        self.stats: dict[str, Any] = {
            "requests": 0, "deduped": 0, "rejected": 0, "usage_errors": 0,
            "internal_errors": 0, "drain_rejected": 0, "certified": 0,
            "verdicts": {},
        }
        self.closing = asyncio.Event()
        self._active = 0                # requests inside the ladder
        self._idle = asyncio.Event()   # set whenever _active == 0
        self._idle.set()

    # ------------------------------------------------- the admission ladder

    async def handle(self, payload: Any) -> tuple[int, dict]:
        """One request through the full ladder; returns (http_status,
        body).  The body always carries ``status`` and, when a check was
        solved, the verdict plus the same stats blocks ``--stats`` prints.
        """
        self.stats["requests"] += 1
        if self.closing.is_set():
            # Draining: in-flight checks finish, new work is turned away
            # (retryable — the client re-sends to the replacement server).
            self.stats["drain_rejected"] += 1
            return 503, {"status": "draining",
                         "error": "server is shutting down", "exit_code": 3}
        try:
            req = parse_request(payload)
        except ProtocolError as exc:
            self.stats["usage_errors"] += 1
            return HTTP_USAGE, {"status": "usage", "error": str(exc),
                                "exit_code": 2}
        self._active += 1
        self._idle.clear()
        try:
            return await self._admit_and_solve(req)
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()

    async def _admit_and_solve(self, req) -> tuple[int, dict]:
        try:
            charge = self.ledger.admit(req.tenant, req.timeout, None,
                                       self.policy)
        except QuotaExceeded as exc:
            # Overload is honest degradation: inconclusive, never wrong,
            # never cached — the client retries after the window turns.
            self.stats["rejected"] += 1
            return HTTP_OVERLOAD, {
                "status": "overload", "error": str(exc),
                "retry_after": round(exc.retry_after, 3), "exit_code": 3}
        try:
            key, names = canonical_request_key(req)
            leader = self._inflight.get(key)
            if leader is not None:
                future, leader_names = leader
                self.stats["deduped"] += 1
                body = dict(await asyncio.shield(future))
                body["deduped"] = True
                if body.get("counterexample"):
                    body["counterexample"] = translate_counterexample(
                        body["counterexample"], leader_names, names)
                return self._finish(key, body)
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = (future, names)
            try:
                body = await self.session.run(req)
            except asyncio.CancelledError:
                future.cancel()
                raise
            except Exception as exc:  # the server must answer
                body = {"status": "internal",
                        "error": f"{type(exc).__name__}: {exc}"}
            finally:
                self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_result(body)
            return self._finish(key, dict(body))
        finally:
            # Settle down to actual spend (followers spend nothing).
            self.ledger.settle(charge)

    def _finish(self, key: str, body: dict) -> tuple[int, dict]:
        status = _status_of(body)
        body.setdefault("status", "ok")
        body["key"] = key
        if body["status"] == "ok":
            body["exit_code"] = verdict_exit_code(body.get("verdict", ""))
            verdict = body.get("verdict", "?")
            counts = self.stats["verdicts"]
            counts[verdict] = counts.get(verdict, 0) + 1
            if body.get("certified"):
                self.stats["certified"] += 1
            self._note_encode(body)
        elif body["status"] == "usage":
            body["exit_code"] = 2
            self.stats["usage_errors"] += 1
        else:
            body["exit_code"] = 4
            self.stats["internal_errors"] += 1
        return status, body

    def _note_encode(self, body: dict) -> None:
        """Fold one response's ``stats.encode`` block into the server-wide
        ``/v1/stats`` counters (template hit rate, symexec spend) — the
        serving-level view of how much front-end work the shared VC
        template store is absorbing across tenants."""
        stats = body.get("stats")
        enc = stats.get("encode") if isinstance(stats, dict) else None
        if not isinstance(enc, dict):
            return
        agg = self.stats.setdefault(
            "encode", {"template_hits": 0, "template_misses": 0,
                       "symexec_time": 0.0})
        try:
            agg["template_hits"] += int(enc.get("template_hits", 0) or 0)
            agg["template_misses"] += int(enc.get("template_misses", 0)
                                          or 0)
            agg["symexec_time"] += float(enc.get("symexec_time", 0.0)
                                         or 0.0)
        except (TypeError, ValueError):
            pass

    @property
    def active(self) -> int:
        """Requests currently inside the admission ladder."""
        return self._active

    async def drained(self) -> None:
        """Resolves once no request is inside the ladder."""
        await self._idle.wait()

    def snapshot(self) -> dict:
        info = dict(self.stats)
        info["inflight"] = len(self._inflight)
        info["workers"] = self.session.workers
        info["draining"] = self.closing.is_set()
        if self.session.cache_dir:
            # ``corrupt`` counts quarantined (``.corrupt``) files found on
            # disk right now — damage set aside by any worker or server
            # sharing this directory, not just this process.
            info["cache"] = scan_shards(self.session.cache_dir)
            from .session import template_dir_of
            info["templates"] = scan_shards(
                template_dir_of(self.session.cache_dir))
        return info

    # ------------------------------------------------------ HTTP transport

    async def serve_http(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        try:
            status, body = await self._http_once(reader)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            writer.close()
            return
        except Exception as exc:  # a broken parse must not kill the loop
            status, body = HTTP_INTERNAL, {
                "status": "internal",
                "error": f"{type(exc).__name__}: {exc}", "exit_code": 4}
        data = json.dumps(body).encode("utf-8")
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 408: "Request Timeout",
                   422: "Unprocessable Entity", 429: "Too Many Requests",
                   500: "Internal Server Error",
                   503: "Service Unavailable"}
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'Status')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n")
        if status == HTTP_OVERLOAD and "retry_after" in body:
            head += f"Retry-After: {max(1, int(body['retry_after']))}\r\n"
        head += "Connection: close\r\n\r\n"
        try:
            writer.write(head.encode("ascii") + data)
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()

    async def _http_once(self, reader: asyncio.StreamReader
                         ) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("ascii",
                                                        "replace").strip()
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"status": "usage", "error": "malformed request "
                         "line", "exit_code": 2}
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("ascii",
                                                    "replace").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if method == "GET" and path == "/v1/health":
            return 200, {"status": "ok", "workers": self.session.workers}
        if method == "GET" and path == "/v1/stats":
            return 200, self.snapshot()
        if path != "/v1/check":
            return 404, {"status": "usage", "error": f"no route {path!r}",
                         "exit_code": 2}
        if method != "POST":
            return 405, {"status": "usage",
                         "error": "use POST /v1/check", "exit_code": 2}
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if not (0 < length <= 16 * 1024 * 1024):
            return HTTP_USAGE, {"status": "usage", "error":
                                "a JSON body with Content-Length "
                                "(at most 16MiB) is required",
                                "exit_code": 2}
        raw = await reader.readexactly(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return HTTP_USAGE, {"status": "usage",
                                "error": "body is not valid JSON",
                                "exit_code": 2}
        return await self.handle(payload)

    # ----------------------------------------------------- JSONL transport

    async def serve_jsonl(self, reader: asyncio.StreamReader,
                          write_line) -> None:
        """One JSONL peer: a request object per line, a response per
        line.  ``id`` round-trips so a pipelining client can correlate."""
        while not self.closing.is_set():
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", "replace").strip()
            if not text:
                continue
            req_id = None
            try:
                payload = json.loads(text)
                if isinstance(payload, dict):
                    req_id = payload.pop("id", None)
                status, body = await self.handle(payload)
            except ValueError:
                status, body = HTTP_USAGE, {
                    "status": "usage", "error": "line is not valid JSON",
                    "exit_code": 2}
            except Exception as exc:  # pragma: no cover - belt and braces
                status, body = HTTP_INTERNAL, {
                    "status": "internal",
                    "error": f"{type(exc).__name__}: {exc}",
                    "exit_code": 4}
            body["http_status"] = status
            if req_id is not None:
                body["id"] = req_id
            await write_line(json.dumps(body) + "\n")


async def _stdio_loop(server: Server) -> None:
    """JSONL over this process's stdin/stdout."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)

    async def write_line(text: str) -> None:
        sys.stdout.write(text)
        sys.stdout.flush()

    await server.serve_jsonl(reader, write_line)


def default_drain_seconds() -> float:
    """The drain deadline from ``PUGPARA_DRAIN_SECONDS`` (default 5s).

    A malformed or negative value degrades to the default — shutdown
    behavior must never crash on a bad environment variable.
    """
    raw = os.environ.get("PUGPARA_DRAIN_SECONDS")
    if raw is None or not raw.strip():
        return 5.0
    try:
        value = float(raw)
    except ValueError:
        return 5.0
    return value if value >= 0 else 5.0


async def _amain(args, solve: SolveConfig) -> int:
    if args.cache_dir:
        ensure_layout(args.cache_dir)
    session = Session(workers=args.workers, cache_dir=args.cache_dir,
                      rlimit_mb=args.rlimit_mb, solve=solve)
    ledger = QuotaLedger(seconds_per_window=args.quota_seconds,
                         conflicts_per_window=args.quota_conflicts,
                         window=args.quota_window,
                         max_inflight=args.max_inflight)
    server = Server(session, ledger)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, server.closing.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    listeners = []
    endpoints = []
    if args.port is not None:
        http_srv = await asyncio.start_server(
            server.serve_http, host=args.host, port=args.port)
        listeners.append(http_srv)
        port = http_srv.sockets[0].getsockname()[1]
        endpoints.append(f"http={args.host}:{port}")
    if args.socket:
        async def jsonl_peer(reader, writer):
            async def write_line(text: str) -> None:
                writer.write(text.encode("utf-8"))
                await writer.drain()
            try:
                await server.serve_jsonl(reader, write_line)
            finally:
                writer.close()
        sock_srv = await asyncio.start_unix_server(jsonl_peer,
                                                   path=args.socket)
        listeners.append(sock_srv)
        endpoints.append(f"socket={args.socket}")
    if args.stdio:
        endpoints.append("stdio")

    print(f"{READY_PREFIX} {' '.join(endpoints)}", flush=True)
    try:
        if args.stdio:
            # Stdio is the lifetime: EOF on stdin is the shutdown signal.
            await _stdio_loop(server)
        else:
            await server.closing.wait()
    finally:
        server.closing.set()
        # Graceful drain: listeners stay open (late arrivals answer 503
        # with a ``draining`` body) while in-flight checks finish, up to
        # the deadline; then the hard teardown proceeds as before.
        drain = (args.drain_seconds if args.drain_seconds is not None
                 else default_drain_seconds())
        if drain > 0 and server.active:
            try:
                await asyncio.wait_for(server.drained(), timeout=drain)
            except asyncio.TimeoutError:
                print(f"drain deadline ({drain:g}s) expired with "
                      f"{server.active} check(s) still in flight",
                      file=sys.stderr)
        for listener in listeners:
            listener.close()
            await listener.wait_closed()
        session.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-lived verification server: warm workers, a "
                    "shared sharded query cache, in-flight dedup, and "
                    "per-tenant admission control.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None, metavar="N",
                        help="serve HTTP on this port (0 = ephemeral; "
                             "the bound port is printed on the ready "
                             "line)")
    parser.add_argument("--stdio", action="store_true",
                        help="serve JSONL over stdin/stdout; EOF shuts "
                             "the server down")
    parser.add_argument("--socket", metavar="PATH",
                        help="serve JSONL over a unix socket at PATH")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="warm worker processes (0 = solve "
                             "in-process; default 1)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="sharded on-disk query cache shared by all "
                             "workers (and by other server processes "
                             "pointing at the same DIR)")
    parser.add_argument("--rlimit-mb", type=int, default=None,
                        metavar="MB",
                        help="per-worker address-space cap")
    parser.add_argument("--quota-seconds", type=float, default=None,
                        metavar="S", help="per-tenant wall-clock budget "
                        "per window (worst-case escalated charge)")
    parser.add_argument("--quota-conflicts", type=int, default=None,
                        metavar="N",
                        help="per-tenant conflict budget per window")
    parser.add_argument("--quota-window", type=float, default=60.0,
                        metavar="S", help="quota window length "
                        "(default 60)")
    parser.add_argument("--max-inflight", type=int, default=None,
                        metavar="N",
                        help="per-tenant concurrent request cap")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry UNKNOWN verdicts up to N times under "
                             "escalated budgets (default 0)")
    parser.add_argument("--escalation", choices=ESCALATIONS,
                        default="geometric")
    parser.add_argument("--drain-seconds", type=float, default=None,
                        metavar="S",
                        help="on shutdown, let in-flight checks finish "
                             "for up to S seconds while new requests "
                             "answer 503 (default: "
                             "PUGPARA_DRAIN_SECONDS or 5; 0 drains "
                             "nothing)")
    args = parser.parse_args(argv)
    if args.port is None and not args.stdio and not args.socket:
        parser.error("pick at least one transport: --port, --stdio, "
                     "or --socket")
    try:
        solve = SolveConfig.from_env(policy=RetryPolicy(
            retries=args.retries, escalation=args.escalation))
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return asyncio.run(_amain(args, solve))
    except KeyboardInterrupt:  # pragma: no cover
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
