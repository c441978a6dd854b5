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
being reported (:func:`repro.check.replay.replay_race`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..encode.templates import (
    VCTemplate, resolve_template_store, template_key,
)
from ..errors import EncodingError
from ..lang.typecheck import KernelInfo
from ..param.ca import KernelModel, LoopModel, PlainModel, extract_model
from ..param.geometry import Geometry, ThreadInstance
from ..param.resolve import instantiate
from ..smt import (
    ArrayVar, BVVar, Eq, Ne, Or, SolveConfig, Term, fresh_scoped,
)
# Bound here for perfbench's span tracing, which wraps these names.
from ..smt import solve_all, solve_stream  # noqa: F401
from .replay import extract_launch
from .replay import replay_race as _replay_race
from .result import CheckOutcome, add_counters
from .vcs import VC, Refutation, launch_bounds

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
    for i, ca1 in enumerate(cas):
        for ca2 in cas[i:]:
            if ca1.array != ca2.array:
                continue
            shared = info.arrays[ca1.array].shared
            t1 = ThreadInstance.fresh(geometry, "r1")
            t2 = ThreadInstance.fresh(geometry, "r2",
                                      bid=t1.bid if shared else None)
            i1 = instantiate(ca1, model, t1)
            i2 = instantiate(ca2, model, t2)
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
                solve: SolveConfig | None = None) -> CheckOutcome:
    """Check the kernel race-free for any thread count.

    A ``VERIFIED`` verdict means no two distinct threads can conflict on any
    shared or global cell within any barrier interval, for any configuration
    satisfying the assumptions.

    The interval-pair queries are independent; :class:`~.vcs.Refutation`
    streams them under ``solve`` (default:
    :meth:`~repro.smt.dispatch.SolveConfig.from_env`), one query per
    race-free pair, re-solves a candidate whose launch exceeds the launch
    bounds once with them, and replays each candidate on the interpreter.
    """
    with Refutation(timeout, solve) as check:
        geometry = Geometry.create(width)
        inputs = {n: BVVar(f"in.{n}", width) for n in info.scalar_params}
        input_arrays = {n: ArrayVar(f"arr.{n}", width, width)
                        for n in info.global_arrays}
        base, queries = _race_queries(info, width, geometry, inputs,
                                      check.outcome)
        check.assumptions = list(base)
        if assumption_builder is not None:
            check.assumptions += list(assumption_builder(geometry, inputs))
        check.assumptions += geometry.concretize(concretize, inputs)
        check.bounds = launch_bounds(geometry, concretize)

        def confirm(q: _RaceQuery, model):
            cex = extract_launch(model, geometry, inputs, input_arrays)
            cex.detail = (f"{q.kind} race on {q.array!r} between lines "
                          f"{q.line_a} and {q.line_b}")
            return cex, _replay_race(info, cex, width)

        check.refute((VC(q.terms, q) for q in queries), confirm)
    return check.outcome


def _race_queries(info: KernelInfo, width: int, geometry: Geometry,
                  inputs: dict[str, Term], outcome: CheckOutcome
                  ) -> tuple[list[Term], list[_RaceQuery]]:
    """The base assumptions and race-pair VCs of ``info``.

    They depend only on (kernel, width), never on the per-cell
    assumptions, so they are shared through the VC template store.
    fresh_scope restarts the fresh-name counter per check, so a
    template's interned terms ARE the terms a re-run would mint: a hit
    changes nothing but wall-clock (the differential CI job pins this).
    """
    store = resolve_template_store()
    tkey = template_key(info, "races", width) if store is not None else None
    template = store.lookup(tkey) if store is not None else None
    if template is not None:
        add_counters(outcome.stats, {"encode": {"symexec_time": 0.0,
                                                "template_hits": 1}})
        if template.unsupported is not None:
            raise EncodingError(template.unsupported)
        queries = [_RaceQuery(kind=k, line_a=la, line_b=lb, array=ar,
                              terms=list(ts))
                   for k, la, lb, ar, ts in template.queries]
        add_counters(outcome.stats,
                     {"encode": {"queries_built": len(queries)}})
        return list(template.base), queries

    enc_start = time.monotonic()
    misses = int(store is not None)
    try:
        model = extract_model(info, geometry, inputs, hint="rc")
    except EncodingError as exc:
        if store is not None:
            store.store(tkey, VCTemplate(check="races", width=width,
                                         unsupported=str(exc)))
        add_counters(outcome.stats, {"encode": {
            "template_misses": misses,
            "symexec_time": time.monotonic() - enc_start}})
        raise
    base = geometry.base_assumptions() + model.assumes
    queries: list[_RaceQuery] = []
    for seg in model.segments:
        if isinstance(seg, PlainModel):
            queries.extend(_interval_queries(model, seg, geometry, info, []))
        else:
            assert isinstance(seg, LoopModel)
            constraint = seg.space.constraint(seg.loop_var)
            for body_seg in seg.body:
                assert isinstance(body_seg, PlainModel)
                queries.extend(_interval_queries(
                    model, body_seg, geometry, info, [constraint]))
    add_counters(outcome.stats, {"encode": {
        "template_misses": misses, "queries_built": len(queries),
        "symexec_time": time.monotonic() - enc_start}})
    if store is not None:
        store.store(tkey, VCTemplate(
            check="races", width=width, base=list(base),
            queries=[(q.kind, q.line_a, q.line_b, q.array, list(q.terms))
                     for q in queries]))
    return base, queries
