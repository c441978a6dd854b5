"""The parameterized equivalence checker (Sections IV-B through IV-E).

Given two kernels (the "source" and its optimized "target"), this checker
proves — for **any** number of threads and fully symbolic inputs — that both
produce the same outputs, or finds a replay-confirmed counterexample.

Method outline:

1. extract each kernel's CA model over one symbolic thread;
2. align their barrier-interval structure: runs of plain intervals form
   *groups*, barrier-synchronized loops must pair up with equal iteration
   spaces (loop bodies are verified once, for a shared symbolic iteration
   variable — the induction step);
3. per group and per compared array, generate quantifier-free verification
   conditions:

   * **match VCs** — a source writer and a target writer hitting the same
     cell (fresh thread instances + address-equality matching constraints,
     Figure 2) must store equal values, with reads resolved through earlier
     CAs of the group or the group's pre-state;
   * **coverage VCs** — every cell written by one kernel is written by the
     other (existentials discharged by witness derivation, replacing the
     paper's monotone-g construction with a constructive equivalent);

4. solve each VC's negation; a satisfying assignment is converted into a
   concrete configuration and *replayed on the interpreter* — only
   confirmed divergences are reported as bugs (the paper's no-false-alarms
   guarantee).

``bughunt=True`` reproduces the paper's "Fast Bug Hunting": coverage VCs and
coverage proofs are skipped, checking only matched writes — much faster,
still no false alarms, but bugs hiding in frames may be missed.  A run that
skipped any obligation and found no bug therefore reports UNKNOWN with
``complete=False``, never VERIFIED.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..errors import AlignmentError, EncodingError
from ..lang.typecheck import KernelInfo
from ..smt import (
    And, ArrayVar, BVVar, CheckResult, Eq, FALSE, Not, Query, QueryResult,
    SolveConfig, Term, fresh_scope, solve_all, solve_query, substitute,
)
from ..check.replay import extract_launch, replay_equivalence
from ..check.result import (
    CheckOutcome, Counterexample, Verdict, record_encode_stats,
)
from .ca import KernelModel, LoopModel, PlainModel, extract_model
from .geometry import Geometry, ThreadInstance
from .loops import align as align_spaces
from .resolve import (
    Case, GroupContext, PrestateStore, instantiate, resolve_value,
)
from .witness import solve_addr_match

__all__ = ["ParamOptions", "check_equivalence_param"]


@dataclass
class ParamOptions:
    """Knobs of the parameterized checker (paper flags in parentheses)."""
    timeout: float | None = None        # total wall budget -> T.O
    bughunt: bool = False               # skip frames ("Fast Bug Hunting")
    allow_reorder: bool = False         # opposite-direction loop alignment
    minimize: bool = True               # prefer small counterexamples
    simplify: bool = True               # term-level simplification ablation
    solve: SolveConfig | None = None    # how VCs are solved (None = env)


@dataclass
class _Run:
    """Mutable state of one equivalence check."""
    geometry: Geometry
    assumptions: list[Term]
    options: ParamOptions
    deadline: float | None
    inputs: dict[str, Term]
    input_arrays: dict[str, Term]
    outcome: CheckOutcome
    incomplete: list[str] = field(default_factory=list)
    unconfirmed: list[str] = field(default_factory=list)

    def budget(self) -> float | None:
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.01)

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def account(self, response: QueryResult) -> None:
        """Count a solved VC on the outcome as it lands, so a run that
        ends in BUG or TIMEOUT reports the work it did."""
        self.outcome.solver_time += response.solver_time
        self.outcome.vcs_checked += 1
        self.outcome.merge_solver_stats(response.stats)

    def solve(self, terms: list[Term]) -> tuple[CheckResult, QueryResult]:
        response = solve_query(
            Query(terms, timeout=self.budget(),
                  do_simplify=self.options.simplify),
            self.options.solve)
        self.account(response)
        return response.verdict, response

    def prove(self, premises: list[Term], obligations: list[Term]) -> bool:
        """premises |= /\\ obligations ?"""
        result, _ = self.solve(
            [*self.assumptions, *premises, Not(And(*obligations))])
        return result is CheckResult.UNSAT


class _Inequivalent(Exception):
    def __init__(self, cex: Counterexample):
        self.cex = cex


class _Timeout(Exception):
    pass


def _split_alternating(model: KernelModel) -> list[tuple[str, object]]:
    """[('plains', [PlainModel...]), ('loop', LoopModel), ...]"""
    items: list[tuple[str, object]] = []
    run: list[PlainModel] = []
    for seg in model.segments:
        if isinstance(seg, PlainModel):
            run.append(seg)
        else:
            items.append(("plains", run))
            run = []
            items.append(("loop", seg))
    items.append(("plains", run))
    return items


def _rename_loop_var(model: KernelModel, loop: LoopModel,
                     new_var: Term) -> LoopModel:
    """Express a loop body over a different iteration variable (used to give
    source and target the *same* symbolic k)."""
    from .ca import CA, Read
    sub = {loop.loop_var: new_var}

    def rename_plain(plain: PlainModel) -> PlainModel:
        out = PlainModel(index=plain.index)
        for ca in plain.cas:
            out.cas.append(CA(
                array=ca.array, guard=substitute(ca.guard, sub),
                address=tuple(substitute(a, sub) for a in ca.address),
                value=substitute(ca.value, sub), bi=ca.bi, line=ca.line))
        for rd in plain.reads:
            renamed = Read(atom=rd.atom, array=rd.array,
                           address=tuple(substitute(a, sub)
                                         for a in rd.address), bi=rd.bi)
            out.reads.append(renamed)
            model.reads_by_atom[renamed.atom] = renamed
        return out

    body = [rename_plain(seg) for seg in loop.body]  # bodies are plain-only
    return LoopModel(loop_var=new_var, space=loop.space, body=body)


def check_equivalence_param(src_info: KernelInfo, tgt_info: KernelInfo,
                            width: int, *,
                            assumption_builder=None,
                            concretize: dict | None = None,
                            options: ParamOptions | None = None
                            ) -> CheckOutcome:
    """Check functional equivalence of two kernels parametrically.

    ``assumption_builder(geometry, scalar_inputs) -> list[Term]`` supplies
    the valid-configuration constraints (square blocks, covering grids,
    power-of-two block sizes).  ``concretize`` is the paper's ``+C.`` mode:
    ``{"bdim": (x,y,z), "gdim": (x,y), "scalars": {...}}`` pins the given
    quantities to concrete values.
    """
    options = options or ParamOptions()
    if options.solve is None:
        options = replace(options, solve=SolveConfig.from_env())
    start = time.monotonic()
    outcome = CheckOutcome(verdict=Verdict.UNKNOWN)
    try:
        with fresh_scope():
            result = _check(src_info, tgt_info, width, assumption_builder,
                            concretize, options, start, outcome)
        outcome.verdict = result
    except _Inequivalent as bug:
        outcome.verdict = Verdict.BUG
        outcome.counterexample = bug.cex
    except _Timeout:
        outcome.verdict = Verdict.TIMEOUT
        outcome.reason = "budget exhausted (the paper's T.O)"
    except (AlignmentError, EncodingError) as exc:
        outcome.verdict = Verdict.UNSUPPORTED
        outcome.reason = str(exc)
    outcome.elapsed = time.monotonic() - start
    return outcome


def _check(src_info: KernelInfo, tgt_info: KernelInfo, width: int,
           assumption_builder, concretize, options: ParamOptions,
           start: float, outcome: CheckOutcome) -> Verdict:
    geometry = Geometry.create(width)
    scalar_names = sorted(set(src_info.scalar_params) |
                          set(tgt_info.scalar_params))
    inputs = {name: BVVar(f"in.{name}", width) for name in scalar_names}
    array_names = sorted(set(src_info.global_arrays) |
                         set(tgt_info.global_arrays))
    input_arrays = {name: ArrayVar(f"arr.{name}", width, width)
                    for name in array_names}

    enc_start = time.monotonic()
    src = extract_model(src_info, geometry, inputs, hint="s")
    tgt = extract_model(tgt_info, geometry, inputs, hint="t")
    record_encode_stats(outcome, symexec_time=time.monotonic() - enc_start)

    assumptions = geometry.base_assumptions()
    assumptions += src.assumes + tgt.assumes
    if assumption_builder is not None:
        assumptions += list(assumption_builder(geometry, inputs))
    assumptions += geometry.concretize(concretize, inputs)

    deadline = start + options.timeout if options.timeout else None
    run = _Run(geometry=geometry, assumptions=assumptions, options=options,
               deadline=deadline, inputs=inputs, input_arrays=input_arrays,
               outcome=outcome)

    src_items = _split_alternating(src)
    tgt_items = _split_alternating(tgt)
    src_loops = [i for i, (k, _) in enumerate(src_items) if k == "loop"]
    tgt_loops = [i for i, (k, _) in enumerate(tgt_items) if k == "loop"]
    if len(src_loops) != len(tgt_loops):
        raise AlignmentError(
            f"different numbers of barrier-synchronized loops "
            f"({len(src_loops)} vs {len(tgt_loops)})")

    verified_common: set[str] = set()
    group_id = 0
    checker = _GroupChecker(run, src, tgt, src_info, tgt_info)

    for (kind_s, item_s), (kind_t, item_t) in zip(src_items, tgt_items):
        if kind_s != kind_t:
            raise AlignmentError("barrier-interval structure differs "
                                 "(loop vs straight-line code)")
        if run.expired():
            raise _Timeout()
        if kind_s == "plains":
            plains_s: list[PlainModel] = item_s       # type: ignore[assignment]
            plains_t: list[PlainModel] = item_t       # type: ignore[assignment]
            compared = checker.check_group(
                group_id, plains_s, plains_t, verified_common,
                extra_premises=[], loop_space=None)
        else:
            loop_s: LoopModel = item_s                # type: ignore[assignment]
            loop_t: LoopModel = item_t                # type: ignore[assignment]
            align_spaces(loop_s.space, loop_t.space,
                         allow_reorder=options.allow_reorder)
            loop_t = _rename_loop_var(tgt, loop_t, loop_s.loop_var)
            compared = checker.check_group(
                group_id,
                list(loop_s.body), list(loop_t.body),  # type: ignore[arg-type]
                verified_common | (loop_s.arrays_written() &
                                   _names(loop_t)),
                extra_premises=[loop_s.space.constraint(loop_s.loop_var)],
                loop_space=loop_s.space)
        verified_common |= compared
        group_id += 1

    outcome.complete = not run.incomplete
    if run.incomplete:
        outcome.stats["incomplete"] = run.incomplete
    if run.unconfirmed:
        outcome.reason = "; ".join(run.unconfirmed[:3])
        return Verdict.UNKNOWN
    if run.incomplete:
        # No bug found, but the skipped obligations may hide one: an
        # under-approximate run never claims VERIFIED.
        outcome.reason = ("no bug found; obligations skipped: "
                          + "; ".join(list(dict.fromkeys(run.incomplete))[:3]))
        return Verdict.UNKNOWN
    return Verdict.VERIFIED


def _names(loop: LoopModel) -> set[str]:
    return loop.arrays_written()


class _GroupChecker:
    def __init__(self, run: _Run, src: KernelModel, tgt: KernelModel,
                 src_info: KernelInfo, tgt_info: KernelInfo) -> None:
        self.run = run
        self.src = src
        self.tgt = tgt
        self.src_info = src_info
        self.tgt_info = tgt_info

    # ------------------------------------------------------------ utilities

    def _candidate(self, response: QueryResult, detail: str) -> bool:
        """A VC was refuted: confirm the model by replay (raises
        :class:`_Inequivalent`) or record the unconfirmed candidate and
        return False so the caller can continue with other VCs."""
        run = self.run
        model = response.model()
        cex = extract_launch(model, run.geometry, run.inputs,
                             run.input_arrays)
        cex.detail = detail
        replay = replay_equivalence(self.src_info, self.tgt_info, cex,
                                    run.geometry.width)
        if replay.confirmed:
            cex.detail = f"{detail}; {replay.reason}"
            raise _Inequivalent(cex)
        run.unconfirmed.append(
            f"{detail}: candidate counterexample did not replay "
            f"({replay.reason})")
        return False

    def _refute(self, premises: list[Term], goal: Term, detail: str) -> None:
        """Check the VC ``premises => goal``; raise on bug/timeout."""
        self._refute_batch([(premises, goal, detail)])

    def _refute_batch(
            self, pending: list[tuple[list[Term], Term, str]]) -> None:
        """Check a batch of independent VCs ``premises => goal``.

        The whole batch is fanned out through the dispatcher (minimized
        small-counterexample round first, then the unbounded round for VCs
        the first round left open), but results are *consumed* in
        generation order, so the first confirmed bug — and therefore the
        verdict — matches a serial run exactly.
        """
        run = self.run
        if not pending:
            return
        batches = [[*run.assumptions, *premises, Not(goal)]
                   for premises, goal, _ in pending]

        def dispatch(term_lists: list[list[Term]]) -> list[QueryResult]:
            responses = solve_all(
                [Query(terms, timeout=run.budget(),
                       do_simplify=run.options.simplify)
                 for terms in term_lists],
                config=run.options.solve)
            for response in responses:
                run.account(response)
            return responses

        minimized: list[QueryResult] | None = None
        if run.options.minimize:
            # Try to find *small* counterexamples first: bound dimensions.
            small = min(4, run.geometry.bdim["x"].sort.mask)
            bounds = [v.ule(small)
                      for v in (*run.geometry.bdim.values(),
                                *run.geometry.gdim.values())]
            minimized = dispatch([terms + bounds for terms in batches])

        open_indices = [i for i in range(len(pending))
                        if minimized is None or
                        minimized[i].verdict is not CheckResult.SAT]
        full = dict(zip(open_indices,
                        dispatch([batches[i] for i in open_indices])))

        for i, (_, _, detail) in enumerate(pending):
            if minimized is not None and \
                    minimized[i].verdict is CheckResult.SAT:
                self._candidate(minimized[i], detail)
                continue
            result = full[i].verdict
            if result is CheckResult.UNSAT:
                continue
            if result is CheckResult.SAT:
                self._candidate(full[i], detail)
                continue
            raise _Timeout()

    # ----------------------------------------------------------- group check

    def check_group(self, group_id: int, plains_s: list[PlainModel],
                    plains_t: list[PlainModel], common: set[str],
                    extra_premises: list[Term],
                    loop_space) -> set[str]:
        run = self.run
        written_s: set[str] = set()
        written_t: set[str] = set()
        for p in plains_s:
            written_s |= p.arrays_written()
        for p in plains_t:
            written_t |= p.arrays_written()
        compared: set[str] = set()
        for name in sorted(written_s | written_t):
            in_src = name in self.src_info.arrays
            in_tgt = name in self.tgt_info.arrays
            if in_src and in_tgt:
                if self.src_info.arrays[name].shared != \
                        self.tgt_info.arrays[name].shared:
                    raise EncodingError(
                        f"array {name!r} is shared in one kernel and global "
                        "in the other")
                compared.add(name)
            # else: kernel-internal staging array (e.g. the transpose tile),
            # consumed by chaining inside the group.

        prestate = PrestateStore(
            group_id, run.geometry.width, common | set(run.input_arrays),
            initial_globals=run.input_arrays if group_id == 0 else None)

        def mk_ctx(model: KernelModel, plains: list[PlainModel],
                   key: str, hint: str) -> GroupContext:
            return GroupContext(
                model=model, plains=plains, geometry=run.geometry, hint=hint,
                prestate=lambda array, addr, bid: prestate.select(
                    key, array,
                    model.info.arrays[array].shared, addr, bid),
                prove=lambda prem, obl: run.prove(
                    [*extra_premises, *prem], obl),
                bughunt=run.options.bughunt)

        ctx_s = mk_ctx(self.src, plains_s, "src", "s")
        ctx_t = mk_ctx(self.tgt, plains_t, "tgt", "t")

        for name in sorted(compared):
            self.check_array(name, ctx_s, ctx_t, extra_premises)
        run.incomplete.extend(ctx_s.incomplete_reads)
        run.incomplete.extend(ctx_t.incomplete_reads)
        return compared

    def check_array(self, array: str, ctx_s: GroupContext,
                    ctx_t: GroupContext, extra: list[Term]) -> None:
        run = self.run
        shared = array in self.src_info.arrays and \
            self.src_info.arrays[array].shared
        big = 1 << 30
        cas_s = ctx_s.writers_of(array, big)
        cas_t = ctx_t.writers_of(array, big)

        # ---- match VCs: same cell -> same value --------------------------
        # Generation stays serial (value resolution may itself prove
        # coverage lemmas); the generated VCs are independent and are
        # refuted as one batch per array.
        pending: list[tuple[list[Term], Term, str]] = []
        for ca_s in cas_s:
            ths = ThreadInstance.fresh(run.geometry, "s")
            inst_s = instantiate(ca_s, self.src, ths)
            for ca_t in cas_t:
                tht = ThreadInstance.fresh(run.geometry, "t",
                                           bid=ths.bid if shared else None)
                inst_t = instantiate(ca_t, self.tgt, tht)
                match = [Eq(a, b) for a, b in
                         zip(inst_s.address, inst_t.address)]
                premises = [*extra, ths.validity(), tht.validity(),
                            inst_s.guard, inst_t.guard, *match]
                cases_s = resolve_value(inst_s.value, inst_s.reads, ctx_s,
                                        ths, premises)
                cases_t = resolve_value(inst_t.value, inst_t.reads, ctx_t,
                                        tht, premises)
                for cs in cases_s:
                    for ct in cases_t:
                        pending.append((
                            premises + cs.constraints + ct.constraints,
                            Eq(cs.value, ct.value),
                            f"{array}: writes at line {ca_s.line} "
                            f"(source) vs line {ca_t.line} (target) "
                            f"disagree"))
        self._refute_batch(pending)

        # ---- coverage VCs: same write sets -------------------------------
        if run.options.bughunt:
            run.incomplete.append(f"{array}: write-set coverage skipped "
                                  "(bughunt)")
            return
        self._coverage(array, cas_s, self.src, cas_t, self.tgt, ctx_t,
                       shared, extra, "source writes a cell the target "
                                      "does not")
        self._coverage(array, cas_t, self.tgt, cas_s, self.src, ctx_s,
                       shared, extra, "target writes a cell the source "
                                      "does not")

    def _coverage(self, array: str, writers, writer_model: KernelModel,
                  other_cas, other_model: KernelModel,
                  other_ctx: GroupContext, shared: bool,
                  extra: list[Term], detail: str) -> None:
        """Every cell written by ``writers`` is also written by the other
        kernel: discharge the existential by witness derivation."""
        run = self.run
        for ca in writers:
            th = ThreadInstance.fresh(run.geometry, "w")
            inst = instantiate(ca, writer_model, th)
            premises = [*extra, th.validity(), inst.guard]
            if not other_cas:
                # The other kernel never writes this array in this group:
                # any satisfiable write is a divergence candidate.
                self._refute(premises, FALSE,
                             detail=f"{array}: {detail}")
                continue
            proven = False
            refutable = None
            for ca_o in other_cas:
                tho = ThreadInstance.fresh(run.geometry, "x",
                                           bid=th.bid if shared else None)
                inst_o = instantiate(ca_o, other_model, tho)
                wit = solve_addr_match(inst_o.address, inst.address, tho,
                                       run.geometry)
                if wit is None:
                    continue
                obligations = [
                    substitute(tho.validity(), wit.substitution),
                    substitute(inst_o.guard, wit.substitution),
                    *wit.obligations,
                ]
                if run.prove(premises, obligations):
                    proven = True
                    break
                refutable = (premises, obligations)
            if proven:
                continue
            if refutable is None:
                run.incomplete.append(
                    f"{array}: coverage witness underivable "
                    f"(write at line {ca.line})")
                continue
            premises_r, obligations_r = refutable
            # The witness exists but its obligations can fail: that failure
            # is a candidate divergence (validated by replay).
            self._refute(premises_r, And(*obligations_r),
                         detail=f"{array}: {detail} (write at line "
                                f"{ca.line})")
