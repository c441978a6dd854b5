"""The serving session: warm workers executing checks against one cache.

A session owns a long-lived :class:`~concurrent.futures.ProcessPoolExecutor`
whose workers are warmed once at creation and reused for every request —
that reuse is the point of serving.  Three layers stay warm per worker:

* the **query cache** — the initializer installs a process-wide default
  :class:`~repro.smt.qcache.QueryCache` over the server's sharded disk
  directory (:func:`~repro.smt.dispatch.set_default_cache`), so every
  checker call reads and warms the same store, and N server processes on
  one cache directory share results through the shard locks;
* the **interned term table** — a module global of the term layer, warm
  across requests automatically;
* the **parsed-module state** — imports, keywords, the works.

Workers inherit the dispatcher's hygiene (:func:`worker_init`: SIGINT
ignored, optional address-space rlimit) and die through its no-orphan
teardown funnel (:func:`teardown_pool`).  ``workers=0`` solves in-process
— the degraded mode, and the mode the in-process tests use.

A failed check never escapes as an exception: parse/type errors come back
as ``usage`` (the client's fault, HTTP 422), anything else as
``internal`` (HTTP 500), both shaped like a normal response body.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict, replace

import os

from ..check import (
    check_equivalence, check_functional, check_races, suite_assumptions,
)
from ..check.result import outcome_to_json
from ..encode.templates import TemplateStore, set_default_template_store
from ..errors import ParseError, ReproError, SortError, TypeCheckError
from ..lang import LaunchConfig, check_kernel, parse_kernel
from ..param.equivalence import ParamOptions
from ..smt.dispatch import (
    SolveConfig, set_default_cache, teardown_pool, worker_init,
)
from ..smt.qcache import QueryCache
from .protocol import CheckRequest

__all__ = ["Session", "execute_check", "serve_worker_init",
           "template_dir_of"]


def template_dir_of(cache_dir: str) -> str:
    """The VC-template shard tree nested inside the server's cache
    directory.  The name is not two hex characters, so the query-cache
    shard scanner never looks inside it."""
    return os.path.join(cache_dir, "templates")


def serve_worker_init(rlimit_mb: int | None,
                      cache_dir: str | None) -> None:
    """Warm one worker: dispatcher hygiene plus the shared caches.

    Both long-lived stores point at the server's sharded directory — the
    canonical query cache at its root, the VC template store at its
    ``templates/`` subtree — so every worker of every server process on
    one directory shares solved queries *and* front-end encodings."""
    worker_init(rlimit_mb)
    if cache_dir:
        set_default_cache(QueryCache(disk_dir=cache_dir))
        set_default_template_store(
            TemplateStore(disk_dir=template_dir_of(cache_dir)))


def _concretize(req: CheckRequest) -> dict | None:
    out: dict = {}
    if req.cbdim:
        out["bdim"] = req.cbdim
    if req.cgdim:
        out["gdim"] = req.cgdim
    if req.scalars:
        out["scalars"] = dict(req.scalars)
    return out or None


def _run_check(req: CheckRequest, solve: SolveConfig):
    builder = suite_assumptions(req.pair) if req.pair else None
    solve = replace(solve, certify=req.certify)
    common = dict(timeout=req.timeout, validate=req.validate, solve=solve)
    if req.command == "races":
        info = check_kernel(parse_kernel(req.source))
        return check_races(info, req.width, assumption_builder=builder,
                           concretize=_concretize(req), **common)
    if req.command == "func":
        info = check_kernel(parse_kernel(req.source))
        if req.method == "param":
            return check_functional(
                info, method="param", width=req.width,
                assumption_builder=builder,
                concretize=_concretize(req), **common)
        config = LaunchConfig(bdim=req.bdim, gdim=req.gdim or (1, 1),
                              width=req.width)
        return check_functional(
            info, method="nonparam", config=config,
            scalar_values=dict(req.scalars) or None, **common)
    # equiv
    src = check_kernel(parse_kernel(req.source))
    tgt = check_kernel(parse_kernel(req.target))
    if req.method == "param":
        return check_equivalence(
            src, tgt, method="param", width=req.width,
            assumption_builder=builder, concretize=_concretize(req),
            options=ParamOptions(timeout=req.timeout,
                                 bughunt=req.bughunt,
                                 validate=req.validate, solve=solve))
    config = LaunchConfig(bdim=req.bdim, gdim=req.gdim or (1, 1),
                          width=req.width)
    return check_equivalence(
        src, tgt, method="nonparam", config=config,
        scalar_values=dict(req.scalars) or None, **common)


def execute_check(fields: dict, solve: SolveConfig | None = None) -> dict:
    """Run one request to a response body under the server's ``solve``
    settings (default: :meth:`SolveConfig.from_env`; the request's own
    ``certify`` replaces the setting's).  Executes inside a worker process
    (or in-process at ``workers=0``); must stay picklable end-to-end,
    hence the plain-dict request and response."""
    req = CheckRequest(**fields)
    start = time.monotonic()
    try:
        outcome = _run_check(req, solve or SolveConfig.from_env())
    except (ParseError, SortError, TypeCheckError) as exc:
        return {"status": "usage",
                "error": f"{type(exc).__name__}: {exc}"}
    except ReproError as exc:
        return {"status": "internal",
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
    ``solve`` (default: :meth:`SolveConfig.from_env`), whose retry policy
    is also the one the server charges quota for.  Its ``cache`` must stay
    ``None``: the workers' default cache is the server's shared store.
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
            set_default_cache(QueryCache(disk_dir=cache_dir))
            set_default_template_store(
                TemplateStore(disk_dir=template_dir_of(cache_dir)))

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
        set_default_cache(None)
        set_default_template_store(None)
