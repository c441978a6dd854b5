"""The serving session: warm workers executing checks against one cache.

A session owns a long-lived :class:`~concurrent.futures.ProcessPoolExecutor`
whose workers are warmed once at creation and reused for every request —
that reuse is the point of serving.  Three layers stay warm per worker:

* the **query cache and the VC template store** — the initializer
  installs process-wide defaults over the server's sharded disk directory
  (:func:`stores_of`: solved queries at its root, templates in
  ``templates/``), so every checker call reads and warms the same stores,
  and N server processes on one cache directory share results through
  the shard locks;
* the **interned term table** — a module global of the term layer, warm
  across requests automatically;
* the **parsed-module state** — imports, keywords, the works.

Workers inherit the dispatcher's hygiene (:func:`worker_init`: SIGINT
ignored, exit when the parent is gone, optional address-space rlimit)
and die through its no-orphan teardown funnel (:func:`teardown_pool`).
``workers=0`` solves in-process — the degraded mode, and the mode the
in-process tests use.

A failed check never escapes as an exception: parse/type errors come back
as ``usage`` (the client's fault, HTTP 422), anything else as
``internal`` (HTTP 500), both shaped like a normal response body.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict

from ..check.request import USAGE_ERRORS, CheckRequest, run_check
from ..check.result import outcome_to_json
from ..encode.templates import (
    TemplateStore, set_default_template_store, template_dir,
)
from ..smt.dispatch import (
    SolveConfig, set_default_cache, teardown_pool, worker_init,
)
from ..smt.qcache import QueryCache

__all__ = ["Session", "execute_check", "serve_worker_init", "stores_of"]


def stores_of(cache_dir: str) -> tuple[QueryCache, TemplateStore]:
    """The server's two stores over one directory: the canonical query
    cache at its root, the VC template store in its ``templates/`` tree."""
    return (QueryCache(disk_dir=cache_dir),
            TemplateStore(disk_dir=template_dir(cache_dir)))


def _use_stores(cache_dir: str | None) -> None:
    """Point this process's default stores at ``cache_dir`` (``None``
    resets both), so every worker of every server process on one
    directory shares solved queries *and* front-end encodings."""
    cache, templates = stores_of(cache_dir) if cache_dir else (None, None)
    set_default_cache(cache)
    set_default_template_store(templates)


def serve_worker_init(rlimit_mb: int | None,
                      cache_dir: str | None) -> None:
    """Warm one worker: dispatcher hygiene plus the shared stores."""
    worker_init(rlimit_mb)
    _use_stores(cache_dir)


def execute_check(fields: dict, solve: SolveConfig | None = None) -> dict:
    """Run one request to a response body under the server's ``solve``
    settings (default: :meth:`SolveConfig.from_env`; the request's own
    ``certify`` replaces the setting's).  Executes inside a worker process
    (or in-process at ``workers=0``); must stay picklable end-to-end,
    hence the plain-dict request and response."""
    req = CheckRequest(**fields)
    start = time.monotonic()
    try:
        outcome = run_check(req, solve or SolveConfig.from_env())
    except USAGE_ERRORS as exc:
        return {"status": "usage",
                "error": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:  # contained: the server must answer
        return {"status": "internal",
                "error": f"{type(exc).__name__}: {exc}"}
    body = outcome_to_json(outcome)
    body["status"] = "ok"
    if req.certify and body.get("verdict") == "verified":
        # Under certify a rejected proof degrades the query to UNKNOWN,
        # so a surviving VERIFIED is proof-checked by construction.
        body["certified"] = True
    body.setdefault("elapsed", time.monotonic() - start)
    return body


class Session:
    """The warm execution backend behind both transports.

    ``workers >= 1`` keeps that many warmed processes alive for the
    server's lifetime; ``workers=0`` runs checks on the event loop's
    default thread executor (in-process — the solver releases no GIL, so
    this mode is for tests and tiny deployments).  Every check runs under
    ``solve`` (default: :meth:`SolveConfig.from_env`).  Its ``cache`` must
    stay ``None``: the workers' default cache is the server's shared store.
    """

    def __init__(self, workers: int = 1, cache_dir: str | None = None,
                 rlimit_mb: int | None = None,
                 solve: SolveConfig | None = None) -> None:
        self.workers = max(0, int(workers))
        self.cache_dir = cache_dir
        self.solve = solve or SolveConfig.from_env()
        self._pool: ProcessPoolExecutor | None = None
        self._rlimit = rlimit_mb
        if self.workers:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=serve_worker_init,
                initargs=(rlimit_mb, cache_dir))
        elif cache_dir:
            _use_stores(cache_dir)

    async def run(self, req: CheckRequest) -> dict:
        """Solve one request on a warm worker; a dead pool is rebuilt
        once, then the request degrades to an in-process solve."""
        fields = asdict(req)
        loop = asyncio.get_running_loop()
        if self._pool is not None:
            try:
                return await loop.run_in_executor(
                    self._pool, execute_check, fields, self.solve)
            except BrokenExecutor:
                teardown_pool(self._pool)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=serve_worker_init,
                    initargs=(self._rlimit, self.cache_dir))
        return await loop.run_in_executor(None, execute_check, fields,
                                          self.solve)

    def close(self) -> None:
        """Tear the pool down through the no-orphan funnel."""
        if self._pool is not None:
            teardown_pool(self._pool)
            self._pool = None
        _use_stores(None)
