"""Parameterized race checking.

Table I lists PUGpara as parameterized "for both Race and Equiv. Check": the
PUG-style two-thread race check becomes parameterized simply by making both
thread ids symbolic (the paper notes "the techniques used in PUG can easily
accommodate the use of symbolic thread identifiers").

For every barrier interval and every pair of conditional assignments (and
every write/read pair), we ask the solver for two *distinct* valid threads
of the same block whose accesses collide:

    write-write:  t1 != t2, g1(t1), g2(t2), addr1(t1) == addr2(t2)
    read-write:   t1 != t2, g1(t1), g2(t2), waddr(t1) == raddr(t2)

Races on global arrays across blocks are also checked (no same-block
restriction there).  Loop intervals are checked for one symbolic iteration.
Candidates are replayed on the interpreter's dynamic race detector before
being reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..encode.templates import (
    VCTemplate, resolve_template_store, template_key,
)
from ..errors import EncodingError
from ..lang.typecheck import KernelInfo
from ..param.ca import CA, KernelModel, LoopModel, PlainModel, Read, extract_model
from ..param.geometry import Geometry, ThreadInstance
from ..param.resolve import instantiate
from ..smt import (
    And, ArrayVar, BVVar, CheckResult, Eq, Ne, Not, Or, Query, QueryResult,
    SolveConfig, Term, fresh_scoped, solve_stream,
)
from ..smt import solve_all  # noqa: F401 -- the name perfbench tracing wraps
from ..lang.interp import LaunchConfig, run_kernel
from .replay import MAX_REPLAY_THREADS, extract_launch
from .result import CheckOutcome, Counterexample, Verdict, record_encode_stats

__all__ = ["check_races"]


def _distinct(t1: ThreadInstance, t2: ThreadInstance, same_block: bool) -> Term:
    """The two threads are different (and in the same block when asked)."""
    diff = [Ne(t1.tid[a], t2.tid[a]) for a in ("x", "y", "z")]
    if not same_block:
        diff += [Ne(t1.bid[a], t2.bid[a]) for a in ("x", "y")]
    return Or(*diff)


@dataclass
class _RaceQuery:
    kind: str
    line_a: int
    line_b: int
    array: str
    terms: list[Term]


def _interval_queries(model: KernelModel, plain: PlainModel,
                      geometry: Geometry, info: KernelInfo,
                      extra: list[Term]) -> list[_RaceQuery]:
    queries: list[_RaceQuery] = []
    cas = plain.cas
    reads_by_ca: dict[int, list[Read]] = {}

    def accesses(ca: CA, thread: ThreadInstance):
        inst = instantiate(ca, model, thread)
        return inst

    for i, ca1 in enumerate(cas):
        for ca2 in cas[i:]:
            if ca1.array != ca2.array:
                continue
            shared = info.arrays[ca1.array].shared
            t1 = ThreadInstance.fresh(geometry, "r1")
            t2 = ThreadInstance.fresh(geometry, "r2",
                                      bid=t1.bid if shared else None)
            i1 = accesses(ca1, t1)
            i2 = accesses(ca2, t2)
            # write-write
            queries.append(_RaceQuery(
                kind="write-write", line_a=ca1.line, line_b=ca2.line,
                array=ca1.array,
                terms=[*extra, t1.validity(), t2.validity(),
                       _distinct(t1, t2, shared), i1.guard, i2.guard,
                       *[Eq(a, b) for a, b in zip(i1.address, i2.address)]]))
            # read(ca2's reads) vs write(ca1)
            for inst, other in ((i1, i2), (i2, i1)):
                for read in other.reads:
                    if read.array != inst.ca.array:
                        continue
                    queries.append(_RaceQuery(
                        kind="read-write", line_a=inst.ca.line,
                        line_b=other.ca.line, array=read.array,
                        terms=[*extra, t1.validity(), t2.validity(),
                               _distinct(t1, t2, shared),
                               inst.guard, other.guard,
                               *[Eq(a, b) for a, b in
                                 zip(inst.address, read.address)]]))
    return queries


@fresh_scoped
def check_races(info: KernelInfo, width: int = 16, *,
                assumption_builder=None,
                concretize: dict | None = None,
                timeout: float | None = None,
                validate: bool = True,
                solve: SolveConfig | None = None) -> CheckOutcome:
    """Check the kernel race-free for any thread count.

    A ``VERIFIED`` verdict means no two distinct threads can conflict on any
    shared or global cell within any barrier interval, for any configuration
    satisfying the assumptions.

    All interval-pair queries are independent; they are streamed through
    :func:`repro.smt.dispatch.solve_stream` under ``solve`` (default:
    :meth:`~repro.smt.dispatch.SolveConfig.from_env`).  Results are
    consumed in generation order, so verdicts are identical to a serial
    run.
    """
    if solve is None:
        solve = SolveConfig.from_env()
    start = time.monotonic()
    outcome = CheckOutcome(verdict=Verdict.UNKNOWN)
    geometry = Geometry.create(width)
    inputs = {n: BVVar(f"in.{n}", width) for n in info.scalar_params}
    input_arrays = {n: ArrayVar(f"arr.{n}", width, width)
                    for n in info.global_arrays}

    # The symexec product — base assumptions and race-pair VCs — depends
    # only on (kernel, width), never on the per-cell assumptions appended
    # below, so it is shared through the VC template store.  fresh_scope
    # restarts the fresh-name counter per check, so a template's interned
    # terms ARE the terms a re-run would mint: a hit changes nothing but
    # wall-clock (the differential CI job pins this).
    store = resolve_template_store()
    tkey = template_key(info, "races", width) if store is not None else None
    template = store.lookup(tkey) if store is not None else None

    queries: list[_RaceQuery] = []
    if template is not None:
        record_encode_stats(outcome, symexec_time=0.0, template="hit")
        if template.unsupported is not None:
            outcome.verdict = Verdict.UNSUPPORTED
            outcome.reason = template.unsupported
            outcome.elapsed = time.monotonic() - start
            return outcome
        base = list(template.base)
        queries = [_RaceQuery(kind=k, line_a=la, line_b=lb, array=ar,
                              terms=list(ts))
                   for k, la, lb, ar, ts in template.queries]
    else:
        enc_start = time.monotonic()
        try:
            model = extract_model(info, geometry, inputs, hint="rc")
        except EncodingError as exc:
            if store is not None:
                store.store(tkey, VCTemplate(check="races", width=width,
                                             unsupported=str(exc)))
            record_encode_stats(
                outcome, symexec_time=time.monotonic() - enc_start,
                template="miss" if store is not None else "off")
            outcome.verdict = Verdict.UNSUPPORTED
            outcome.reason = str(exc)
            outcome.elapsed = time.monotonic() - start
            return outcome

        base = geometry.base_assumptions() + model.assumes

        def walk(segments):
            for seg in segments:
                if isinstance(seg, PlainModel):
                    queries.extend(
                        _interval_queries(model, seg, geometry, info, []))
                else:
                    assert isinstance(seg, LoopModel)
                    constraint = seg.space.constraint(seg.loop_var)
                    for body_seg in seg.body:
                        assert isinstance(body_seg, PlainModel)
                        queries.extend(_interval_queries(
                            model, body_seg, geometry, info, [constraint]))

        walk(model.segments)
        record_encode_stats(
            outcome, symexec_time=time.monotonic() - enc_start,
            template="miss" if store is not None else "off")
        if store is not None:
            store.store(tkey, VCTemplate(
                check="races", width=width, base=list(base),
                queries=[(q.kind, q.line_a, q.line_b, q.array,
                          list(q.terms)) for q in queries]))
    record_encode_stats(outcome, queries_built=len(queries))

    assumptions = list(base)
    if assumption_builder is not None:
        assumptions += list(assumption_builder(geometry, inputs))
    assumptions += geometry.concretize(concretize, inputs)

    deadline = start + timeout if timeout else None

    # 4^5 = 1024 threads max: comfortably within the replay budget
    small = min(4, (1 << width) - 1)
    bounds = [v.ule(small) for v in (*geometry.bdim.values(),
                                     *geometry.gdim.values())]

    def budget() -> float | None:
        if deadline is None:
            return None
        return max(deadline - time.monotonic(), 0.01)

    def account(res) -> None:
        outcome.vcs_checked += 1
        outcome.solver_time += res.solver_time
        outcome.merge_solver_stats(res.stats)

    # Prefer a small (replayable) counterexample per query; fall back to the
    # unbounded query so verification stays complete.  Each round is a
    # producer/consumer pipeline: VCs enter the worker pool chunk by chunk
    # as they are encoded, the first verdicts arrive while the tail is
    # still being produced, and abandoning the stream on a conclusive
    # result cancels the unsolved tail.
    lat: dict = {}
    bounded = []
    for res in solve_stream(
            (Query([*assumptions, *q.terms, *bounds], timeout=budget())
             for q in queries), config=solve, latency=lat):
        bounded.append(res)
        if res.verdict is CheckResult.SAT:
            # Conclusive: consumption below can never pass this index,
            # so the remaining bounded VCs are never even encoded.
            break
    if "first_verdict_s" in lat:
        record_encode_stats(outcome, first_verdict_s=lat["first_verdict_s"])
    need_full = [i for i, r in enumerate(bounded)
                 if r.verdict is not CheckResult.SAT]
    full_iter = zip(need_full, solve_stream(
        (Query([*assumptions, *queries[i].terms], timeout=budget())
         for i in need_full), config=solve))
    full: dict[int, QueryResult] = {}

    def full_result(i: int) -> QueryResult:
        """Pull the unbounded stream just far enough for index ``i``."""
        while i not in full:
            j, r = next(full_iter)
            full[j] = r
        return full[i]

    for i in range(len(bounded)):
        q = queries[i]
        account(bounded[i])
        effective = bounded[i]
        if effective.verdict is not CheckResult.SAT:
            effective = full_result(i)
            account(effective)
        result = effective.verdict
        if result is CheckResult.UNSAT:
            continue
        if result is CheckResult.UNKNOWN:
            outcome.verdict = Verdict.TIMEOUT
            outcome.reason = "budget exhausted (the paper's T.O)"
            outcome.elapsed = time.monotonic() - start
            return outcome
        cex = extract_launch(effective.model(), geometry, inputs,
                             input_arrays)
        cex.detail = (f"{q.kind} race on {q.array!r} between lines "
                      f"{q.line_a} and {q.line_b}")
        if validate:
            confirmed = _replay_race(info, cex, width)
            if confirmed:
                outcome.verdict = Verdict.BUG
                outcome.counterexample = cex
                outcome.elapsed = time.monotonic() - start
                return outcome
            outcome.verdict = Verdict.UNKNOWN
            outcome.reason = (f"{cex.detail}: candidate race did not replay")
            outcome.elapsed = time.monotonic() - start
            return outcome
        outcome.verdict = Verdict.BUG
        outcome.counterexample = cex
        outcome.elapsed = time.monotonic() - start
        return outcome

    outcome.verdict = Verdict.VERIFIED
    outcome.elapsed = time.monotonic() - start
    return outcome


def _replay_race(info: KernelInfo, cex: Counterexample, width: int) -> bool:
    bx, by, bz = cex.bdim
    gx, gy = cex.gdim
    if bx * by * bz * gx * gy > MAX_REPLAY_THREADS:
        return False
    config = LaunchConfig(bdim=cex.bdim, gdim=cex.gdim, width=width)
    inputs = {**cex.scalars, **cex.arrays}
    try:
        result = run_kernel(info, config, inputs, check_races=True)
    except Exception:
        return False
    return bool(result.races)
