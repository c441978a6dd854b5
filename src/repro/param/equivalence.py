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
from dataclasses import dataclass

from ..errors import AlignmentError, EncodingError
from ..lang.typecheck import KernelInfo
from ..smt import (
    And, ArrayVar, BVVar, Eq, FALSE, Not, SolveConfig, Term, fresh_scope,
    substitute,
)
# Bound here for perfbench's span tracing, which wraps these names.
from ..smt import solve_all, solve_query  # noqa: F401
from ..check.replay import extract_launch, replay_equivalence
from ..check.result import CheckOutcome, add_counters
from ..check.vcs import VC, Refutation, launch_bounds
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
    solve: SolveConfig | None = None    # how VCs are solved (None = env)


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
    check = Refutation(options.timeout, options.solve)
    with fresh_scope(), check:
        _check(check, src_info, tgt_info, width, assumption_builder,
               concretize, options)
    return check.outcome


def _check(check: Refutation, src_info: KernelInfo, tgt_info: KernelInfo,
           width: int, assumption_builder, concretize,
           options: ParamOptions) -> None:
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
    add_counters(check.outcome.stats, {"encode": {
        "symexec_time": time.monotonic() - enc_start}})

    check.assumptions = [*geometry.base_assumptions(), *src.assumes,
                         *tgt.assumes]
    if assumption_builder is not None:
        check.assumptions += list(assumption_builder(geometry, inputs))
    check.assumptions += geometry.concretize(concretize, inputs)
    check.bounds = launch_bounds(geometry, concretize)
    check.bounded_first = options.bughunt

    def confirm(detail: str, model):
        cex = extract_launch(model, geometry, inputs, input_arrays)
        cex.detail = detail
        return cex, replay_equivalence(src_info, tgt_info, cex, width)

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
    checker = _GroupChecker(check, confirm, geometry, input_arrays,
                            options.bughunt, src, tgt, src_info, tgt_info)

    for (kind_s, item_s), (kind_t, item_t) in zip(src_items, tgt_items):
        if kind_s != kind_t:
            raise AlignmentError("barrier-interval structure differs "
                                 "(loop vs straight-line code)")
        check.stop_if_expired()
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
                                   loop_t.arrays_written()),
                extra_premises=[loop_s.space.constraint(loop_s.loop_var)],
                loop_space=loop_s.space)
        verified_common |= compared
        group_id += 1


class _GroupChecker:
    def __init__(self, check: Refutation, confirm, geometry: Geometry,
                 input_arrays: dict[str, Term], bughunt: bool,
                 src: KernelModel, tgt: KernelModel,
                 src_info: KernelInfo, tgt_info: KernelInfo) -> None:
        self.check = check
        self.confirm = confirm
        self.geometry = geometry
        self.input_arrays = input_arrays
        self.bughunt = bughunt
        self.src = src
        self.tgt = tgt
        self.src_info = src_info
        self.tgt_info = tgt_info

    def _refute(self, vcs: list[tuple[list[Term], Term, str]]) -> None:
        """Refute each VC ``premises => goal`` (with its detail)."""
        self.check.refute((VC([*premises, Not(goal)], detail)
                           for premises, goal, detail in vcs), self.confirm)

    # ----------------------------------------------------------- group check

    def check_group(self, group_id: int, plains_s: list[PlainModel],
                    plains_t: list[PlainModel], common: set[str],
                    extra_premises: list[Term],
                    loop_space) -> set[str]:
        check = self.check
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
            group_id, self.geometry.width, common | set(self.input_arrays),
            initial_globals=self.input_arrays if group_id == 0 else None)

        def mk_ctx(model: KernelModel, plains: list[PlainModel],
                   key: str, hint: str) -> GroupContext:
            return GroupContext(
                model=model, plains=plains, geometry=self.geometry,
                hint=hint,
                prestate=lambda array, addr, bid: prestate.select(
                    key, array,
                    model.info.arrays[array].shared, addr, bid),
                prove=lambda prem, obl: check.prove(
                    [*extra_premises, *prem], obl),
                bughunt=self.bughunt)

        ctx_s = mk_ctx(self.src, plains_s, "src", "s")
        ctx_t = mk_ctx(self.tgt, plains_t, "tgt", "t")

        for name in sorted(compared):
            self.check_array(name, ctx_s, ctx_t, extra_premises)
        check.incomplete.extend(ctx_s.incomplete_reads)
        check.incomplete.extend(ctx_t.incomplete_reads)
        return compared

    def check_array(self, array: str, ctx_s: GroupContext,
                    ctx_t: GroupContext, extra: list[Term]) -> None:
        shared = array in self.src_info.arrays and \
            self.src_info.arrays[array].shared
        big = 1 << 30
        cas_s = ctx_s.writers_of(array, big)
        cas_t = ctx_t.writers_of(array, big)

        # ---- match VCs: same cell -> same value --------------------------
        # Generation stays serial (value resolution may itself prove
        # coverage lemmas); the generated VCs are independent and are
        # refuted as one stream per array.
        pending: list[tuple[list[Term], Term, str]] = []
        for ca_s in cas_s:
            ths = ThreadInstance.fresh(self.geometry, "s")
            inst_s = instantiate(ca_s, self.src, ths)
            for ca_t in cas_t:
                tht = ThreadInstance.fresh(self.geometry, "t",
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
        self._refute(pending)

        # ---- coverage VCs: same write sets -------------------------------
        if self.bughunt:
            self.check.incomplete.append(
                f"{array}: write-set coverage skipped (bughunt)")
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
        for ca in writers:
            th = ThreadInstance.fresh(self.geometry, "w")
            inst = instantiate(ca, writer_model, th)
            premises = [*extra, th.validity(), inst.guard]
            if not other_cas:
                # The other kernel never writes this array in this group:
                # any satisfiable write is a divergence candidate.
                self._refute([(premises, FALSE, f"{array}: {detail}")])
                continue
            proven = False
            refutable = None
            for ca_o in other_cas:
                tho = ThreadInstance.fresh(self.geometry, "x",
                                           bid=th.bid if shared else None)
                inst_o = instantiate(ca_o, other_model, tho)
                wit = solve_addr_match(inst_o.address, inst.address, tho,
                                       self.geometry)
                if wit is None:
                    continue
                obligations = [
                    substitute(tho.validity(), wit.substitution),
                    substitute(inst_o.guard, wit.substitution),
                    *wit.obligations,
                ]
                if self.check.prove(premises, obligations):
                    proven = True
                    break
                refutable = (premises, obligations)
            if proven:
                continue
            if refutable is None:
                self.check.incomplete.append(
                    f"{array}: coverage witness underivable "
                    f"(write at line {ca.line})")
                continue
            premises_r, obligations_r = refutable
            # The witness exists but its obligations can fail: that failure
            # is a candidate divergence (validated by replay).
            self._refute([(premises_r, And(*obligations_r),
                           f"{array}: {detail} (write at line {ca.line})")])
