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

All three take one :class:`SolveConfig` — worker count, query cache, retry
policy, certification — that a caller builds once and hands down unchanged;
``None`` means :meth:`SolveConfig.from_env`, the only reader of
``PUGPARA_JOBS`` and ``PUGPARA_CERTIFY``.

Every query is simplified once, while it is prepared: the simplified
assertions give the canonical cache key, and a leader is solved from them
one-shot — a fresh :class:`~repro.smt.solver.Solver` eliminates arrays,
blasts and searches it alone, in-process or on a worker.

Workers receive queries as flat term blobs (:mod:`repro.smt.qcache`'s
encoding — hash-consed terms do not pickle) and return the verdict, a
name-keyed model projection, and the per-query ``Solver.stats``, which the
parent merges back into each :class:`QueryResult`.

Per-query wall-clock budgets ride inside the worker's ``Solver`` and surface
as ``UNKNOWN`` on expiry — the paper's ``T.O`` — never as a wrong verdict.

Beyond throughput, the dispatcher is a *resilient runtime* — it degrades,
it never reports what it cannot defend:

* **UNKNOWN retries.** A :class:`~repro.smt.resilience.RetryPolicy` re-asks
  budget-exhausted queries under escalated budgets (geometric or Luby); the
  per-attempt record travels back in ``stats["resilience"]``.
* **Worker-crash recovery.** A dead worker (``BrokenProcessPool``) requeues
  its in-flight queries, the pool is rebuilt under capped exponential
  backoff (from :data:`POOL_BACKOFF`), and after :data:`POOL_RETRIES`
  consecutive pool failures the remaining queries degrade to in-process
  serial solving — logged, never fatal.  ``PUGPARA_WORKER_RLIMIT_MB``
  optionally caps each worker's address space so one OOM query cannot
  take the run down; workers ignore SIGINT so Ctrl-C tears the pool down
  cleanly from the parent.
* **Exception containment.** A solver failure (genuine or injected via
  :mod:`repro.smt.faults`) becomes ``UNKNOWN`` with the error recorded —
  never an unhandled exception, never a fabricated verdict.

Determinism: the CDCL core is deterministic, so a batch solved at ``jobs=8``
returns bit-identical verdicts (and models) to a serial run; only wall-clock
changes.  Faults and retries preserve this one-sidedly: a faulted or
budget-starved run answers the fault-free verdict or ``UNKNOWN``.

Pools are torn down hermetically: every path — normal completion, SIGINT,
exception, hung worker — funnels through :func:`_teardown_pool`, which
terminates and reaps every worker process, so no orphans survive the
dispatcher no matter how a solve ends.
"""

from __future__ import annotations

import logging
import os
import signal
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from . import faults
from .faults import FaultPlan
from .model import Model
from .qcache import (
    QueryCache, canonicalize, decode_terms, encode_terms,
    model_from_canonical, model_to_canonical,
)
from .resilience import RetryPolicy
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
    validate_models: bool = False
    tag: Any = None  # caller correlation handle, passed through untouched


@dataclass
class QueryResult:
    """Verdict, stats, and (on SAT) the satisfying assignment."""
    verdict: CheckResult
    stats: dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    tag: Any = None
    _model: Model | None = None

    def model(self) -> Model:
        if self._model is None:
            raise SolverError("model() requires a SAT result")
        return self._model

    @property
    def solver_time(self) -> float:
        return float(self.stats.get("time", 0.0))


# ------------------------------------------------------------- settings

#: Consecutive pool failures tolerated before degrading to serial solving.
POOL_RETRIES = 3
#: Base seconds of the capped (1 s) exponential pool-rebuild backoff.
POOL_BACKOFF = 0.05


@dataclass(frozen=True)
class SolveConfig:
    """How a batch is solved: the one settings value every checker, the CLI
    and the server hand down to :func:`solve_all`.

    ``jobs`` worker processes solve the cache misses (1 = in-process).
    ``cache`` is the canonical query cache: ``None`` the process-wide
    default, ``False`` off, or a :class:`QueryCache`.  ``policy`` retries
    UNKNOWN verdicts under escalated budgets.  ``certify`` requires every
    UNSAT verdict to carry a checked DRAT proof.
    """
    jobs: int = 1
    cache: QueryCache | bool | None = None
    policy: RetryPolicy = RetryPolicy()
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


def _worker_init(rlimit_mb: int | None) -> None:
    """Worker-process initializer.

    SIGINT is ignored so a Ctrl-C in the parent interrupts only the parent,
    which then shuts the pool down cleanly instead of every worker spewing
    a KeyboardInterrupt traceback.  The optional address-space rlimit turns
    a runaway query's OOM into a contained MemoryError/worker death the
    dispatcher already recovers from.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if rlimit_mb:
        try:
            import resource
            limit = rlimit_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):  # pragma: no cover
            pass  # best-effort: platforms without RLIMIT_AS solve uncapped


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Dismantle a worker pool with no survivors.

    ``shutdown(wait=False)`` alone leaves hung workers running (they never
    pick up the sentinel), so every worker is terminated and reaped
    explicitly, escalating from SIGTERM to SIGKILL.  This is the single
    funnel all dispatcher exits use — normal completion, SIGINT,
    exception or a hung worker — which is what makes the no-orphan
    guarantee unconditional.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
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
    for proc in procs:
        try:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        except Exception:  # pragma: no cover
            pass


#: Public aliases for long-lived embedders (``repro.serve``): the worker
#: initializer (SIGINT hygiene + optional rlimit) and the no-orphan pool
#: teardown funnel, so external pools share the dispatcher's guarantees.
worker_init = _worker_init
teardown_pool = _teardown_pool


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


#: One leader's outcome: (verdict, model, stats).
_Outcome = tuple[CheckResult, Model | None, dict]


def _solve_local_guarded(prep: _Prepared, timeout: float | None,
                         conflict_budget: int | None,
                         plan: FaultPlan | None,
                         salt: int, certify: bool = False) -> _Outcome:
    """Solve in-process; any failure degrades to UNKNOWN with the error
    recorded — the parent process must survive every query."""
    start = time.monotonic()
    query, key = prep.query, prep.key
    try:
        faults.maybe_delay(plan, "local", key, salt)
        faults.maybe_raise(plan, "local", key, salt)
        solver = Solver(timeout=timeout, conflict_budget=conflict_budget,
                        do_simplify=query.do_simplify,
                        validate_models=query.validate_models,
                        certify=certify)
        solver.add(*query.assertions)
        verdict = solver.check(simplified=prep.work)
        model = solver.model() if verdict is CheckResult.SAT else None
        return verdict, model, dict(solver.stats)
    except MemoryError:
        return CheckResult.UNKNOWN, None, {
            "error": "memory exhausted", "time": time.monotonic() - start}
    except Exception as exc:
        return CheckResult.UNKNOWN, None, {
            "error": f"{type(exc).__name__}: {exc}",
            "time": time.monotonic() - start}


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


def _worker_solve(payload: tuple) -> tuple[str, dict | None, dict]:
    """Executed in a worker process: decode, solve, project the model.

    ``blob`` holds the prepared (already simplified) assertions;
    ``original_blob`` the query's own assertions when the model is to be
    validated against them, else ``None``.
    """
    (blob, original_blob, timeout, conflict_budget, do_simplify,
     validate_models, key, fault_spec, salt, certify) = payload
    plan = FaultPlan.from_spec(fault_spec) if fault_spec else None
    # Injection points: a crash kills this worker abruptly (the parent sees
    # BrokenProcessPool); a raised fault propagates through the future (the
    # parent contains it as UNKNOWN).
    faults.maybe_crash(plan, key, salt)
    faults.maybe_delay(plan, "worker", key, salt)
    faults.maybe_raise(plan, "worker", key, salt)
    try:
        terms = decode_terms(blob)
        solver = Solver(timeout=timeout, conflict_budget=conflict_budget,
                        do_simplify=do_simplify,
                        validate_models=validate_models,
                        certify=certify)
        solver.add(*(decode_terms(original_blob)
                     if original_blob is not None else terms))
        verdict = solver.check(simplified=terms)
    except MemoryError:
        # The rlimit fired: report a contained budget failure instead of
        # letting the allocator kill the process.
        return CheckResult.UNKNOWN.value, None, {"error": "memory exhausted"}
    model_blob: dict | None = None
    if verdict is CheckResult.SAT:
        model_blob = _project_model(solver.model())
    return verdict.value, model_blob, dict(solver.stats)


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
                 varmap: dict[Term, int], stats: dict,
                 certified: bool = False) -> dict:
    entry = {
        "verdict": verdict.value,
        "model": (model_to_canonical(model, varmap)
                  if model is not None else None),
        "stats": {k: v for k, v in stats.items()
                  if isinstance(v, (int, float))},
    }
    if certified:
        entry["certified"] = True
    return entry


def _result_from_entry(entry: dict, varmap: dict[Term, int],
                       tag: Any) -> QueryResult:
    verdict = CheckResult(entry["verdict"])
    model = None
    if verdict is CheckResult.SAT and entry.get("model") is not None:
        model = model_from_canonical(entry["model"], varmap)
    stats = dict(entry.get("stats") or {})
    stats["cache_hit"] = True
    stats["time"] = 0.0  # a hit costs no solver time *now*
    if entry.get("certified"):
        stats["certified"] = True
    return QueryResult(verdict=verdict, stats=stats, cached=True, tag=tag,
                       _model=model)


# ----------------------------------------------------- the solving waves


def _attempt_salt(attempt: int, requeue: int) -> int:
    """Fold the retry attempt and pool-requeue count into one fault salt, so
    every re-dispatch of a query draws a fresh deterministic decision."""
    return attempt * 1024 + requeue


def _solve_wave_pool(wave: list[_Prepared],
                     budgets: dict[str, tuple[float | None, int | None]],
                     jobs: int, plan: FaultPlan | None, events: dict,
                     attempt: int, certify: bool) -> dict[str, _Outcome]:
    """Solve one wave of leaders on worker processes, surviving crashes.

    A broken pool requeues the unfinished queries and is rebuilt under
    capped exponential backoff; after :data:`POOL_RETRIES` consecutive
    failures the survivors degrade to in-process serial solving.
    """
    results: dict[str, _Outcome] = {}
    pending: list[tuple[_Prepared, int]] = [(p, 0) for p in wave]
    spec = plan.to_spec() if plan is not None else None
    failures = 0
    rlimit = _worker_rlimit_mb()

    while pending:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            initializer=_worker_init, initargs=(rlimit,))
        requeued: list[tuple[_Prepared, int]] = []
        try:
            futures = {}
            for prep, requeue in pending:
                timeout, conflicts = budgets[prep.key]
                validate = prep.query.validate_models
                payload = (encode_terms(prep.work),
                           (encode_terms(prep.query.assertions)
                            if validate else None),
                           timeout, conflicts, prep.query.do_simplify,
                           validate,
                           prep.key, spec, _attempt_salt(attempt, requeue),
                           certify)
                futures[pool.submit(_worker_solve, payload)] = (prep,
                                                                requeue)
            for future, (prep, requeue) in futures.items():
                try:
                    verdict_str, model_blob, stats = future.result()
                except BrokenExecutor:
                    # The worker died mid-query (crash, OOM kill): requeue
                    # with a bumped salt so the retry draws a fresh fault
                    # decision.
                    requeued.append((prep, requeue + 1))
                    continue
                except Exception as exc:
                    # A worker raised (injected fault, decode failure...):
                    # contained as UNKNOWN, never propagated to the caller.
                    results[prep.key] = (CheckResult.UNKNOWN, None, {
                        "error": f"{type(exc).__name__}: {exc}",
                        "time": 0.0})
                    continue
                results[prep.key] = (
                    CheckResult(verdict_str),
                    _model_from_names(model_blob, prep.varmap), stats)
        finally:
            # Unconditional: SIGINT or an exception mid-wave must not
            # leave worker processes behind.
            _teardown_pool(pool)
        if not requeued:
            break
        failures += 1
        events["worker_restarts"] = events.get("worker_restarts", 0) + 1
        if failures >= POOL_RETRIES:
            # Bottom of the degradation ladder: solve the survivors
            # serially in-process.  Crash faults cannot fire here (no
            # worker), so this rung always terminates.
            events["degraded"] = True
            log.warning(
                "worker pool failed %d times in a row; degrading %d "
                "queries to in-process serial solving",
                failures, len(requeued))
            for prep, requeue in requeued:
                timeout, conflicts = budgets[prep.key]
                results[prep.key] = _solve_local_guarded(
                    prep, timeout, conflicts, plan,
                    _attempt_salt(attempt, requeue), certify)
            break
        sleep = min(1.0, POOL_BACKOFF * (2 ** (failures - 1)))
        log.warning(
            "worker pool broke (%d in-flight queries requeued); "
            "rebuilding after %.2fs backoff (failure %d/%d)",
            len(requeued), sleep, failures, POOL_RETRIES)
        if sleep > 0:
            time.sleep(sleep)
        pending = requeued
    return results


def _attempt_record(attempt: int, timeout: float | None,
                    conflicts: int | None, verdict: CheckResult,
                    stats: dict) -> dict:
    record: dict[str, Any] = {"attempt": attempt, "verdict": verdict.value}
    if timeout is not None:
        record["timeout"] = timeout
    if conflicts is not None:
        record["conflict_budget"] = conflicts
    if stats.get("error"):
        record["error"] = stats["error"]
    if stats.get("budget_axis"):
        # Which budget axis (wall-clock vs conflicts) actually expired on
        # this attempt — lets --stats attribute escalations correctly.
        record["budget_axis"] = stats["budget_axis"]
    return record


def _solve_batch(leaders: list[_Prepared], config: SolveConfig,
                 plan: FaultPlan | None,
                 events: dict) -> dict[str, _Outcome]:
    """Solve every leader, retrying UNKNOWNs under escalated budgets."""
    jobs, policy, certify = config.jobs, config.policy, config.certify
    outcomes: dict[str, _Outcome] = {}
    records: dict[str, list[dict]] = {p.key: [] for p in leaders}
    wave = list(leaders)
    attempt = 0
    while wave:
        budgets = {
            p.key: policy.budgets(p.query.timeout, p.query.conflict_budget,
                                  attempt)
            for p in wave}
        if jobs > 1 and len(wave) > 1 and not events.get("degraded"):
            solved = _solve_wave_pool(wave, budgets, jobs, plan, events,
                                      attempt, certify)
        else:
            solved = {
                p.key: _solve_local_guarded(
                    p, *budgets[p.key], plan,
                    _attempt_salt(attempt, 0), certify)
                for p in wave}
        retry: list[_Prepared] = []
        for p in wave:
            verdict, model, stats = solved[p.key]
            records[p.key].append(_attempt_record(
                attempt, *budgets[p.key], verdict, stats))
            outcomes[p.key] = (verdict, model, stats)
            if verdict is CheckResult.UNKNOWN and attempt < policy.retries:
                retry.append(p)
        if retry:
            log.info("retrying %d UNKNOWN queries at escalation attempt %d",
                     len(retry), attempt + 1)
        wave = retry
        attempt += 1

    # Surface the per-attempt story where there is one to tell: a retry, a
    # contained error, or pool-level events.
    for i, p in enumerate(leaders):
        recs = records[p.key]
        verdict, model, stats = outcomes[p.key]
        noteworthy = len(recs) > 1 or any(r.get("error") for r in recs)
        pool_events = i == 0 and (events.get("worker_restarts")
                                  or events.get("degraded"))
        if not (noteworthy or pool_events):
            continue
        stats = dict(stats)
        stats["resilience"] = {
            "attempts": recs,
            "recovered": (len(recs) > 1
                          and verdict is not CheckResult.UNKNOWN),
        }
        if pool_events:
            stats["resilience"]["pool"] = {
                "worker_restarts": events.get("worker_restarts", 0),
                "degraded": bool(events.get("degraded")),
            }
        outcomes[p.key] = (verdict, model, stats)
    return outcomes


# -------------------------------------------------------------- public


def solve_query(query: Query,
                config: SolveConfig | None = None) -> QueryResult:
    """Solve one query in-process, through the canonical cache."""
    return solve_all([query], config=config)[0]


def solve_all(queries: Sequence[Query], *,
              config: SolveConfig | None = None) -> list[QueryResult]:
    """Solve every query; results come back in input order.

    ``config`` (default: :meth:`SolveConfig.from_env`) says how.
    ``jobs > 1`` fans cache misses out to that many worker processes.
    Structurally identical queries (canonical-key equal) are solved once per
    batch; the followers receive the leader's verdict and a model rebound to
    their own variables.  ``policy`` retries UNKNOWN verdicts under
    escalated budgets.

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

    leaders = [groups[key][0] for key in order]

    # Phase 2: solve each group's leader through the resilient runtime
    # (worker pool with crash recovery, or in-process), retrying UNKNOWNs
    # under the policy's escalation schedule.
    events: dict = {}
    solved = _solve_batch(leaders, config, plan, events)
    entries: dict[str, dict] = {}
    leader_models: dict[str, Model | None] = {}
    for prep in leaders:
        verdict, model, stats = solved[prep.key]
        # The solver started from the prepared assertions: the time spent
        # simplifying them belongs to this query.
        stats = {**stats, "simplify_time": prep.simplify_time,
                 "time": stats.get("time", 0.0) + prep.simplify_time}
        entry = _cache_entry(verdict, model, prep.varmap, stats)
        entry["stats"] = stats  # keep the full stat set
        entries[prep.key] = entry
        leader_models[prep.key] = model

    # Phase 3: populate the cache and fan results back out.
    for key in order:
        entry = entries[key]
        verdict = CheckResult(entry["verdict"])
        if cache_obj is not None and verdict is not CheckResult.UNKNOWN:
            # UNKNOWN is budget-dependent, never cacheable — which also
            # covers certify-rejected verdicts (they arrive here as
            # UNKNOWN, so a failed proof can never poison the cache).
            # Under certify every UNSAT that reaches this point carries a
            # checked (or trivially certified) proof: record that, so
            # later certified runs can trust the hit.
            certified = bool(certify and verdict is CheckResult.UNSAT)
            cache_obj.store(key, _cache_entry(
                verdict, leader_models[key],
                groups[key][0].varmap, entry["stats"],
                certified=certified))
        for rank, prep in enumerate(groups[key]):
            if rank == 0:
                results[prep.index] = QueryResult(
                    verdict=verdict, stats=dict(entry["stats"]),
                    cached=False, tag=prep.query.tag,
                    _model=leader_models[key])
            else:
                # A structural duplicate within the batch: translate the
                # leader's model through the canonical numbering.
                model = None
                if verdict is CheckResult.SAT and \
                        leader_models[key] is not None:
                    model = model_from_canonical(
                        model_to_canonical(leader_models[key],
                                           groups[key][0].varmap),
                        prep.varmap)
                stats = {"cache_hit": True, "time": 0.0}
                results[prep.index] = QueryResult(
                    verdict=verdict, stats=stats, cached=True,
                    tag=prep.query.tag, _model=model)

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
    cache, duplicate folding, retry policy, worker pool — and yielded
    before the next chunk is even pulled.  Two consequences:

    * **time-to-first-verdict drops** from "encode everything, then
      solve everything" to one chunk's worth of work, which is what a
      serving deployment feels;
    * **abandoning the iterator cancels the tail**: a consumer that
      stops on its first SAT (every checker does) never encodes or
      solves the queries it no longer needs.

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
        for result in solve_all(block, config=config):
            if first:
                first = False
                if latency is not None:
                    latency["first_verdict_s"] = time.monotonic() - start
            yield result
