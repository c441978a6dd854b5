"""Parallel dispatch of independent SMT queries — the resilient runtime.

Every verification condition the checkers emit is an independent ``check()``
— there is no shared solver state to protect.  This module turns that
independence into throughput:

* :func:`solve_query` — solve one query through the canonical cache;
* :func:`solve_all` — solve a batch: dedup structurally identical queries
  (canonical key), satisfy what it can from the cache, and fan the rest out
  to ``jobs`` worker processes;
* :func:`solve_stream` — the same, pulled from a producer chunk by chunk:
  the one consumer loop of the race and functional checkers.

All three take one :class:`SolveConfig` — worker count, query cache,
certification — that a caller builds once and hands down unchanged;
``None`` means :meth:`SolveConfig.from_env`, the only reader of
``PUGPARA_JOBS`` and ``PUGPARA_CERTIFY``.

Every query is simplified once, while it is prepared: the simplified
assertions give the canonical cache key, and a leader is solved from them
one-shot — a fresh :class:`~repro.smt.solver.Solver` eliminates arrays,
blasts and searches it alone, in-process or on a worker.

Both sides call one solve function, :func:`_solve`.  Workers receive
queries as flat term blobs (:mod:`repro.smt.qcache`'s encoding — hash-consed
terms do not pickle), decode them, and return the verdict, a name-keyed
model projection, and the solver's stats record, which becomes the
:class:`QueryResult`'s.

Pool lifetime: each public call owns at most one worker pool, built
lazily by the first wave with more than one leader — a ``solve_all`` call
one, a ``solve_stream`` iteration one that every chunk shares.  It is
rebuilt only after a worker dies, and torn down when the call returns or
the stream is exhausted, closed or collected.  At
``jobs=1``, and for any wave of a single leader, no pool is built and no
term is encoded.

Each query is solved once, under its own budget: the wall-clock timeout
and conflict budget it carries ride inside the ``Solver`` and surface as
``UNKNOWN`` on expiry — the paper's ``T.O`` — never as a wrong verdict.
The caller sets that budget (a check gives each query the time it has
left); the dispatcher never raises it.

Beyond throughput, the dispatcher is a *resilient runtime* — it degrades,
it never reports what it cannot defend:

* **Worker-crash recovery.** A dead worker (``BrokenProcessPool``) requeues
  its in-flight queries, the pool is rebuilt under capped exponential
  backoff (from :data:`POOL_BACKOFF`), and after :data:`POOL_RETRIES`
  consecutive pool failures the remaining queries of the call degrade to
  in-process serial solving — logged, never fatal.  ``PUGPARA_WORKER_RLIMIT_MB``
  optionally caps each worker's address space so one OOM query cannot
  take the run down; workers ignore SIGINT so Ctrl-C tears the pool down
  cleanly from the parent.
* **Exception containment.** A solver failure (genuine or injected via
  :mod:`repro.smt.faults`) becomes ``UNKNOWN`` with the error text in
  ``QueryResult.error`` and counted in ``stats["resilience"]`` — never an
  unhandled exception, never a fabricated verdict.  The solver is
  deterministic, so the query is not re-asked: it would raise again.

Determinism: the CDCL core is deterministic, so a batch solved at ``jobs=8``
returns bit-identical verdicts (and models) to a serial run; only wall-clock
changes.  Faults preserve this one-sidedly: a faulted or
budget-starved run answers the fault-free verdict or ``UNKNOWN``.

Pools are torn down hermetically: every path — normal completion, SIGINT,
exception, hung worker — funnels through :func:`teardown_pool`, which
terminates and reaps every worker process, so no orphans survive the
dispatcher no matter how a solve ends.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import faults
from .faults import FaultPlan
from .model import Model
from .qcache import (
    QueryCache, canonicalize, decode_terms, encode_terms,
    model_from_canonical, model_to_canonical,
)
from .simplify import simplify_all
from .solver import CheckResult, Solver
from .terms import Term
from ..errors import SolverError

__all__ = ["Query", "QueryResult", "SolveConfig", "solve_query", "solve_all",
           "solve_stream", "default_cache", "resolve_cache",
           "set_default_cache", "teardown_pool", "worker_init"]

log = logging.getLogger("repro.smt.dispatch")


@dataclass
class Query:
    """One self-contained satisfiability question."""
    assertions: Sequence[Term]
    timeout: float | None = None
    conflict_budget: int | None = None
    do_simplify: bool = True
    tag: Any = None  # caller correlation handle, passed through untouched


def _one_query() -> dict:
    return {"solver": {"queries": 1}}


@dataclass
class QueryResult:
    """Verdict, stats, and (on SAT) the satisfying assignment.

    ``stats`` is the query's record of additive numbers, grouped by the
    layer that counted them (``solver``, ``certify``, ``resilience``; see
    :mod:`repro.check.result`).  ``error`` is the text of the exception
    that made the solve UNKNOWN, or ``None``.
    """
    verdict: CheckResult
    stats: dict[str, dict] = field(default_factory=_one_query)
    error: str | None = None
    cached: bool = False
    tag: Any = None
    _model: Model | None = None

    def model(self) -> Model:
        if self._model is None:
            raise SolverError("model() requires a SAT result")
        return self._model

    @property
    def solver_time(self) -> float:
        return float(self.stats["solver"].get("time", 0.0))


# ------------------------------------------------------------- settings

#: Consecutive pool failures tolerated before degrading to serial solving.
POOL_RETRIES = 3
#: Base seconds of the capped (1 s) exponential pool-rebuild backoff.
POOL_BACKOFF = 0.05
#: Seconds between a worker's checks that its parent is still alive.
PARENT_POLL = 0.5


@dataclass(frozen=True)
class SolveConfig:
    """How a batch is solved: the one settings value every checker, the CLI
    and the server hand down to :func:`solve_all`.

    ``jobs`` worker processes solve the cache misses (1 = in-process).
    ``cache`` is the canonical query cache: ``None`` the process-wide
    default, ``False`` off, or a :class:`QueryCache`.  ``certify`` requires
    every UNSAT verdict to carry a checked DRAT proof.
    """
    jobs: int = 1
    cache: QueryCache | bool | None = None
    certify: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(
                f"jobs must be a positive worker count, got {self.jobs!r}")

    @classmethod
    def from_env(cls, **fields: Any) -> "SolveConfig":
        """The environment's settings, with ``fields`` set on top.

        ``PUGPARA_JOBS`` gives ``jobs`` (default 1) and ``PUGPARA_CERTIFY``
        gives ``certify`` (default off).  A non-numeric or non-positive
        ``PUGPARA_JOBS`` warns and falls back to 1: a misconfigured
        environment degrades to serial solving, it does not crash or spin
        up a bad pool.
        """
        if "jobs" not in fields:
            raw = os.environ.get("PUGPARA_JOBS", "1")
            try:
                jobs = int(raw)
            except ValueError:
                jobs = 0
            if jobs < 1:
                warnings.warn(f"PUGPARA_JOBS={raw!r} is not a positive "
                              "worker count; falling back to 1",
                              RuntimeWarning, stacklevel=2)
                jobs = 1
            fields["jobs"] = jobs
        if "certify" not in fields:
            fields["certify"] = _env_flag("PUGPARA_CERTIFY", False)
        return cls(**fields)


_default_cache: QueryCache | None = None


def default_cache() -> QueryCache:
    """The process-wide cache (created on first use).

    ``PUGPARA_CACHE_DIR`` enables its on-disk layer.
    """
    global _default_cache
    if _default_cache is None:
        _default_cache = QueryCache(
            disk_dir=os.environ.get("PUGPARA_CACHE_DIR") or None)
    return _default_cache


def set_default_cache(cache: QueryCache | None) -> None:
    """Install (or reset, with ``None``) the process-wide default cache.

    Long-lived processes — the ``repro.serve`` workers — point the default
    at a shared sharded disk directory once at startup, so every checker
    invocation whose :class:`SolveConfig` has ``cache=None`` reads and
    warms the same store.
    """
    global _default_cache
    _default_cache = cache


def resolve_cache(cache: QueryCache | bool | None) -> QueryCache | None:
    """Map a :attr:`SolveConfig.cache` value onto an actual cache.

    ``None`` -> the shared default cache, ``False`` -> caching off, a
    :class:`QueryCache` -> itself.
    """
    if cache is None:
        return default_cache()
    if cache is False:
        return None
    assert isinstance(cache, QueryCache)
    return cache


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no")


def _worker_rlimit_mb() -> int | None:
    """Optional per-worker address-space cap (``PUGPARA_WORKER_RLIMIT_MB``)."""
    raw = os.environ.get("PUGPARA_WORKER_RLIMIT_MB")
    if not raw:
        return None
    try:
        mb = int(raw)
    except ValueError:
        return None
    return mb if mb > 0 else None


def _exit_with_parent(parent: int) -> None:
    """Poll until this process is re-parented, then exit at once."""
    while os.getppid() == parent:
        time.sleep(PARENT_POLL)
    os._exit(1)


def worker_init(rlimit_mb: int | None) -> None:
    """Worker-process initializer.

    SIGINT is ignored so a Ctrl-C in the parent interrupts only the parent,
    which then shuts the pool down cleanly instead of every worker spewing
    a KeyboardInterrupt traceback.  SIGTERM kills outright: a worker forked
    from an asyncio server would otherwise signal the server's wakeup fd
    and shut the server down.  A worker exits when its parent is gone: a
    SIGKILLed parent runs no teardown, and its idle workers would block on
    the call queue forever.  A polling thread watches the parent rather
    than ``PR_SET_PDEATHSIG``, which fires when the forking *thread* exits
    (serve at ``--workers 0`` builds pools from executor threads).  The
    optional address-space rlimit turns a runaway query's OOM into a
    contained MemoryError/worker death the dispatcher already recovers
    from.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    if multiprocessing.parent_process() is not None:
        threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                         name="parent-watch", daemon=True).start()
    if rlimit_mb:
        try:
            import resource
            limit = rlimit_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):  # pragma: no cover
            pass  # best-effort: platforms without RLIMIT_AS solve uncapped


def teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Dismantle a worker pool with no survivors.

    ``shutdown(wait=False)`` alone leaves hung workers running (they never
    pick up the sentinel), so every worker is terminated and reaped
    explicitly, escalating from SIGTERM to SIGKILL.  This is the single
    funnel all dispatcher exits use — normal completion, SIGINT,
    exception or a hung worker — which is what makes the no-orphan
    guarantee unconditional.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown must never block exit
        pass
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:  # pragma: no cover
            pass
    deadline = time.monotonic() + 2.0
    if manager is not None:
        # The pool's manager thread reaps the workers as well; a worker it
        # reaps first would still look alive to this thread.
        manager.join(2.0)
    for proc in procs:
        try:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        except Exception:  # pragma: no cover
            pass


class _Pool:
    """The worker pool of one public dispatch call.

    It is built on first use, rebuilt after a worker dies, and torn down by
    :meth:`close`.  ``failures`` counts consecutive broken rounds; at
    :data:`POOL_RETRIES` the pool is ``degraded`` and the rest of the call
    solves in-process.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.executor: ProcessPoolExecutor | None = None
        self.failures = 0
        self.degraded = False

    def submit(self, payload: tuple) -> Future:
        """Send one payload to :func:`_worker_solve`, building the pool on
        first use.  A pool that has already broken answers with a future
        that raises, so the query is requeued like the in-flight ones."""
        if self.executor is None:
            self.executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=worker_init,
                initargs=(_worker_rlimit_mb(),))
        try:
            return self.executor.submit(_worker_solve, payload)
        except BrokenExecutor as exc:
            future: Future = Future()
            future.set_exception(exc)
            return future

    def broke(self, requeued: int, events: dict) -> None:
        """A worker died: tear the pool down, then back off before the
        rebuild, or degrade after :data:`POOL_RETRIES` failures in a row."""
        self.close()
        self.failures += 1
        events["worker_restarts"] = events.get("worker_restarts", 0) + 1
        if self.failures >= POOL_RETRIES:
            # Bottom of the degradation ladder.  Crash faults cannot fire
            # in-process (no worker), so this rung always terminates.
            self.degraded = True
            events["degraded"] = 1
            log.warning("worker pool failed %d times in a row; degrading "
                        "%d queries to in-process serial solving",
                        self.failures, requeued)
            return
        sleep = min(1.0, POOL_BACKOFF * (2 ** (self.failures - 1)))
        log.warning("worker pool broke (%d in-flight queries requeued); "
                    "rebuilding after %.2fs backoff (failure %d/%d)",
                    requeued, sleep, self.failures, POOL_RETRIES)
        time.sleep(sleep)

    def close(self) -> None:
        if self.executor is not None:
            teardown_pool(self.executor)
            self.executor = None


# ------------------------------------------------------------ internals


@dataclass
class _Prepared:
    index: int
    query: Query
    work: list[Term]          # simplified assertion set
    key: str
    varmap: dict[Term, int]
    simplify_time: float      # seconds spent simplifying ``work``


def _prepare(index: int, query: Query) -> _Prepared:
    start = time.monotonic()
    work = list(query.assertions)
    if query.do_simplify:
        work = simplify_all(work)
    simplify_time = time.monotonic() - start
    key, varmap = canonicalize(work)
    return _Prepared(index=index, query=query, work=work, key=key,
                     varmap=varmap, simplify_time=simplify_time)


#: One solve's outcome: (verdict, model, stats record, error text).
_Outcome = tuple[CheckResult, Model | None, dict, str | None]


def _failed(error: BaseException, elapsed: float = 0.0) -> tuple:
    """The UNKNOWN of a solve that raised: the error is recorded and
    counted, never propagated and never turned into a verdict."""
    text = ("memory exhausted" if isinstance(error, MemoryError)
            else f"{type(error).__name__}: {error}")
    return (CheckResult.UNKNOWN, None,
            {"solver": {"time": elapsed}, "resilience": {"errors": 1}}, text)


def _solve(work: list[Term], key: str, timeout: float | None,
           conflict_budget: int | None, do_simplify: bool,
           plan: FaultPlan | None, salt: int, certify: bool,
           site: str = "local") -> _Outcome:
    """Solve prepared assertions one-shot, in-process or on a worker
    (``site``); any failure degrades to UNKNOWN with the error recorded —
    the parent process must survive every query."""
    start = time.monotonic()
    try:
        if site == "worker":
            # A crash kills this worker abruptly: the parent sees
            # BrokenProcessPool and requeues the query.
            faults.maybe_crash(plan, key, salt)
        faults.maybe_delay(plan, site, key, salt)
        faults.maybe_raise(plan, site, key, salt)
        solver = Solver(timeout=timeout, conflict_budget=conflict_budget,
                        do_simplify=do_simplify, certify=certify)
        verdict = solver.check(simplified=work)
        model = solver.model() if verdict is CheckResult.SAT else None
        return verdict, model, solver.stats, None
    except Exception as exc:  # MemoryError (the worker rlimit) included
        return _failed(exc, time.monotonic() - start)


def _project_model(model: Model) -> dict:
    """Project a model onto picklable name-keyed blobs for the wire."""
    scalars: dict[str, int | bool] = {}
    arrays: dict[str, dict[int, int]] = {}
    for var in model.variables():
        if not var.is_var():
            continue  # pragma: no cover - defensive
        value = model[var]
        if isinstance(value, dict):
            arrays[var.name] = {int(k): int(v) for k, v in value.items()}
        else:
            scalars[var.name] = value  # type: ignore[assignment]
    return {"scalars": scalars, "arrays": arrays}


def _worker_solve(payload: tuple) -> tuple:
    """Executed in a worker process: decode the prepared assertions, solve
    them, project the model."""
    blob, key, timeout, conflict_budget, do_simplify, spec, salt, certify \
        = payload
    plan = FaultPlan.from_spec(spec) if spec else None
    verdict, model, stats, error = _solve(
        decode_terms(blob), key, timeout, conflict_budget, do_simplify,
        plan, salt, certify, site="worker")
    return (verdict, _project_model(model) if model is not None else None,
            stats, error)


def _model_from_names(blob: dict | None,
                      varmap: dict[Term, int]) -> Model | None:
    """Rebind a worker's name-keyed model to this query's variable terms."""
    if blob is None:
        return None
    by_name = {var.name: var for var in varmap}
    scalars: dict[Term, object] = {}
    arrays: dict[Term, dict[int, int]] = {}
    for name, value in blob.get("scalars", {}).items():
        var = by_name.get(name)
        if var is not None:
            scalars[var] = value
    for name, content in blob.get("arrays", {}).items():
        var = by_name.get(name)
        if var is not None:
            arrays[var] = dict(content)
    return Model(scalars, arrays)


def _cache_entry(verdict: CheckResult, model: Model | None,
                 varmap: dict[Term, int], counts: dict,
                 certified: bool = False) -> dict:
    """A cache entry: the verdict, the canonical model and the solve's
    ``solver`` counters."""
    entry = {
        "verdict": verdict.value,
        "model": (model_to_canonical(model, varmap)
                  if model is not None else None),
        "stats": dict(counts),
    }
    if certified:
        entry["certified"] = True
    return entry


def _hit_record(counts: dict, certified: bool = False) -> dict:
    """The record of a query answered without solving: the ``solver``
    counters of the solve that answered it, at no solver time now."""
    record = {"solver": {**counts, "time": 0.0, "queries": 1,
                         "cache_hits": 1}}
    if certified:
        # The entry's UNSAT proof was checked when the entry was written.
        record["certify"] = {"cached": 1}
    return record


def _result_from_entry(entry: dict, varmap: dict[Term, int],
                       tag: Any) -> QueryResult:
    verdict = CheckResult(entry["verdict"])
    model = None
    if verdict is CheckResult.SAT and entry.get("model") is not None:
        model = model_from_canonical(entry["model"], varmap)
    return QueryResult(verdict=verdict,
                       stats=_hit_record(entry.get("stats") or {},
                                         bool(entry.get("certified"))),
                       cached=True, tag=tag, _model=model)


# ----------------------------------------------------- the solving waves


def _solve_batch(leaders: list[_Prepared], certify: bool,
                 plan: FaultPlan | None, pool: _Pool) -> dict[str, _Outcome]:
    """Solve every leader once, under its query's own budget: each
    leader's outcome.

    One loop over pending ``(leader, requeue)`` items: each round solves
    them all, on ``pool`` when there are several, else in-process.  A
    query whose worker died comes back with its requeue count bumped; the
    count is the fault salt, so the re-dispatch draws a fresh fault
    decision.
    """
    spec = plan.to_spec() if plan is not None else None
    events: dict[str, int] = {}
    outcomes: dict[str, _Outcome] = {}
    pending = [(p, 0) for p in leaders]
    while pending:
        wave, pending = pending, []
        futures = None
        if pool.jobs > 1 and len(wave) > 1 and not pool.degraded:
            futures = [pool.submit((
                encode_terms(p.work), p.key, p.query.timeout,
                p.query.conflict_budget, p.query.do_simplify, spec, requeue,
                certify)) for p, requeue in wave]
        requeued = 0
        for i, (p, requeue) in enumerate(wave):
            if futures is None:
                outcome = _solve(p.work, p.key, p.query.timeout,
                                 p.query.conflict_budget, p.query.do_simplify,
                                 plan, requeue, certify)
            else:
                try:
                    verdict, blob, stats, error = futures[i].result()
                except BrokenExecutor:
                    # The worker died mid-query (crash, OOM kill).
                    pending.append((p, requeue + 1))
                    requeued += 1
                    continue
                except Exception as exc:
                    # Contained as UNKNOWN, never propagated to the caller.
                    outcome = _failed(exc)
                else:
                    outcome = (verdict, _model_from_names(blob, p.varmap),
                               stats, error)
            outcomes[p.key] = outcome
        if requeued:
            pool.broke(requeued, events)
        elif futures is not None:
            pool.failures = 0

    # The pool's events (worker restarts, degradation) are the batch's,
    # counted once on its first leader.
    if events:
        stats = outcomes[leaders[0].key][2]
        stats.setdefault("resilience", {}).update(events)
    return outcomes


# -------------------------------------------------------------- public


def solve_query(query: Query,
                config: SolveConfig | None = None) -> QueryResult:
    """Solve one query in-process, through the canonical cache."""
    return solve_all([query], config=config)[0]


def solve_all(queries: Sequence[Query], *,
              config: SolveConfig | None = None,
              pool: _Pool | None = None) -> list[QueryResult]:
    """Solve every query; results come back in input order.

    ``config`` (default: :meth:`SolveConfig.from_env`) says how.
    ``jobs > 1`` fans cache misses out to that many worker processes, on
    ``pool`` when the caller owns one (:func:`solve_stream` passes its
    own), else on a pool of this call's.
    Structurally identical queries (canonical-key equal) are solved once per
    batch; the followers receive the leader's verdict and a model rebound to
    their own variables.

    ``certify`` requires every UNSAT verdict to carry a checked DRAT
    proof; a rejected proof surfaces as UNKNOWN with
    ``stats["certify"]["rejected"]`` set and — like every UNKNOWN — is
    never cached.  Certified runs also refuse *uncertified* cached UNSAT
    entries (treated as misses and re-proved), so a certified answer is
    never laundered through an uncertified cache line.
    """
    if config is None:
        config = SolveConfig.from_env()
    certify = config.certify
    cache_obj = resolve_cache(config.cache)
    plan = faults.active()
    results: list[QueryResult | None] = [None] * len(queries)

    # Phase 1: canonicalize, consult the cache, group duplicates.
    groups: dict[str, list[_Prepared]] = {}
    order: list[str] = []
    for i, query in enumerate(queries):
        prep = _prepare(i, query)
        entry = cache_obj.lookup(prep.key) if cache_obj is not None else None
        if (entry is not None
                and entry["verdict"] != CheckResult.UNKNOWN.value
                and (not certify
                     or entry["verdict"] != CheckResult.UNSAT.value
                     or entry.get("certified"))):
            results[i] = _result_from_entry(entry, prep.varmap, query.tag)
            continue
        if prep.key not in groups:
            groups[prep.key] = []
            order.append(prep.key)
        groups[prep.key].append(prep)

    # Phase 2: solve each group's leader once through the resilient
    # runtime (worker pool with crash recovery, or in-process).
    own = pool is None
    if own:
        pool = _Pool(config.jobs)
    try:
        solved = _solve_batch([groups[key][0] for key in order], certify,
                              plan, pool)
    finally:
        if own:
            pool.close()

    # Phase 3: populate the cache and fan results back out.
    for key in order:
        leader, *duplicates = groups[key]
        verdict, model, stats, error = solved[key]
        counts = stats["solver"]
        # The solver started from the prepared assertions: the time spent
        # simplifying them belongs to this query.
        counts["simplify_time"] = leader.simplify_time
        counts["time"] = counts.get("time", 0.0) + leader.simplify_time
        if cache_obj is not None and verdict is not CheckResult.UNKNOWN:
            # UNKNOWN is budget-dependent, never cacheable — which also
            # covers certify-rejected verdicts (they arrive here as
            # UNKNOWN, so a failed proof can never poison the cache).
            # Under certify every UNSAT that reaches this point carries a
            # checked (or trivially certified) proof: record that, so
            # later certified runs can trust the hit.
            certified = bool(certify and verdict is CheckResult.UNSAT)
            cache_obj.store(key, _cache_entry(
                verdict, model, leader.varmap, counts, certified=certified))
        counts.update(queries=1, cache_hits=0)
        results[leader.index] = QueryResult(
            verdict=verdict, stats=stats, error=error,
            tag=leader.query.tag, _model=model)
        for prep in duplicates:
            # A structural duplicate within the batch: translate the
            # leader's model through the canonical numbering.
            dup_model = None
            if model is not None:
                dup_model = model_from_canonical(
                    model_to_canonical(model, leader.varmap), prep.varmap)
            results[prep.index] = QueryResult(
                verdict=verdict, stats=_hit_record({}), error=error,
                cached=True, tag=prep.query.tag, _model=dup_model)

    return [r for r in results if r is not None]


def solve_stream(queries, *, config: SolveConfig | None = None,
                 chunk: int | None = None,
                 latency: dict | None = None):
    """Producer/consumer variant of :func:`solve_all`: results stream
    back in input order while later queries are still being produced.

    ``queries`` may be any iterable (typically a generator that *encodes*
    each VC on demand); it is pulled ``chunk`` queries at a time (default
    ``max(4, 2 * jobs)``: enough work to feed every worker twice), each
    chunk solved through the full :func:`solve_all` machinery — canonical
    cache, duplicate folding — on one worker pool that
    every chunk shares, and yielded before the next chunk is even pulled.
    Two consequences:

    * **time-to-first-verdict drops** from "encode everything, then
      solve everything" to one chunk's worth of work, which is what a
      serving deployment feels;
    * **abandoning the iterator cancels the tail**: a consumer that
      stops on its first SAT (every checker does) never encodes or
      solves the queries it no longer needs, and closing the iterator
      tears the pool down.

    Per-query verdicts, models, and stats are identical to handing the
    whole list to :func:`solve_all`: chunking only changes *which*
    queries share a batch, and batch composition affects wall-clock
    only (deduplication across chunks still happens through the
    canonical cache; UNKNOWNs are never cached, so they simply re-solve).

    ``latency`` (optional dict) receives the streaming telemetry:
    ``first_verdict_s`` — seconds from the first pull to the first
    yielded result — and ``chunks``.
    """
    if config is None:
        config = SolveConfig.from_env()
    if chunk is None:
        chunk = max(4, 2 * config.jobs)
    start = time.monotonic()
    first = True
    chunks = 0
    it = iter(queries)
    pool = _Pool(config.jobs)
    try:
        while True:
            block: list[Query] = []
            for query in it:
                block.append(query)
                if len(block) >= chunk:
                    break
            if not block:
                break
            chunks += 1
            if latency is not None:
                latency["chunks"] = chunks
            for result in solve_all(block, config=config, pool=pool):
                if first:
                    first = False
                    if latency is not None:
                        latency["first_verdict_s"] = time.monotonic() - start
                yield result
    finally:
        # Exhausted, closed by the consumer, or collected.
        pool.close()
