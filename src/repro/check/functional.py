"""Functional-correctness checking against post-conditions.

Two methods, mirroring the equivalence checkers:

* ``nonparam`` — Section III: serialize a concrete geometry, symbolically
  execute any ``spec`` ghost code over the final state, and refute the
  post-condition with all free variables symbolic;
* ``param`` — Section IV: resolve each array read of the post-condition
  through the kernel's conditional assignments (fresh-thread instantiation),
  so the obligation holds for *any* number of threads.  The pre-state /
  "no thread wrote this cell" branch is handled like the equivalence
  checker's frames: proved impossible by a coverage witness where possible,
  otherwise dropped with an incompleteness flag (the paper's
  under-approximation); a run that dropped one reports UNKNOWN, never
  VERIFIED.

Counterexamples are replayed concretely before being reported.
"""

from __future__ import annotations

import time
from typing import Mapping

from ..encode.nonparam import encode_kernel
from ..encode.symexec import eval_bool, eval_expr
from ..errors import EncodingError
from ..lang.ast import (
    Assign, Binary, Block, For, Ident, If, Postcond, Stmt, VarDecl,
)
from ..lang.interp import LaunchConfig
from ..lang.typecheck import KernelInfo
from ..param.ca import KernelModel, PlainModel, Read, extract_model
from ..param.geometry import Geometry, ThreadInstance
from ..param.resolve import GroupContext, PrestateStore, resolve_value
from ..smt import (
    And, ArrayVar, BVConst, BVVar, Implies, Not, Select, SolveConfig, Term,
    fresh_scoped, fresh_var,
)
from ..smt.sorts import BV
from .replay import concrete_launch, extract_launch, replay_postcondition
from .result import CheckOutcome, record_encode_stats
from .vcs import VC, Refutation

__all__ = ["check_functional", "check_functional_nonparam",
           "check_functional_param"]


# --------------------------------------------------------------- nonparam


class _GhostScope:
    """Evaluation scope for postconditions/spec code over a final state."""

    def __init__(self, width: int, locals_: dict[str, Term],
                 arrays: Mapping[str, Term]) -> None:
        self.width = width
        self.locals = locals_
        self.arrays = arrays
        self.free: dict[str, Term] = {}

    def local(self, name: str, line: int) -> Term:
        if name in self.locals:
            return self.locals[name]
        # Free variable of the postcondition: universally quantified.
        var = self.free.get(name)
        if var is None:
            var = BVVar(f"free.{name}", self.width)
            self.free[name] = var
        self.locals[name] = var
        return var

    def builtin(self, base: str, axis: str, line: int) -> Term:
        raise EncodingError(
            f"line {line}: {base}.{axis} in ghost code must be concretized "
            "by the caller")  # overridden below

    def read_array(self, name: str, indices: tuple[Term, ...],
                   line: int) -> Term:
        if len(indices) != 1:
            raise EncodingError(
                f"line {line}: ghost code reads only 1-D global arrays")
        return Select(self.arrays[name], indices[0])


class _ConcreteGhostScope(_GhostScope):
    def __init__(self, width: int, locals_: dict[str, Term],
                 arrays: Mapping[str, Term], config: LaunchConfig) -> None:
        super().__init__(width, locals_, arrays)
        self.config = config

    def builtin(self, base: str, axis: str, line: int) -> Term:
        idx = "xyz".index(axis)
        if base == "bdim":
            return BVConst(self.config.bdim[idx], self.width)
        if base == "gdim":
            return BVConst(self.config.gdim[idx], self.width)
        raise EncodingError(f"line {line}: {base} is meaningless in spec code")


def _exec_ghost(stmts: tuple[Stmt, ...], scope: _GhostScope,
                obligations: list[tuple[Term, int]],
                limit: int = 1 << 16) -> None:
    """Execute spec-block statements symbolically (single ghost thread)."""
    for s in stmts:
        if isinstance(s, Block):
            _exec_ghost(s.stmts, scope, obligations, limit)
        elif isinstance(s, VarDecl):
            if s.init is not None:
                scope.locals[s.name] = eval_expr(s.init, scope)
        elif isinstance(s, Assign):
            if not isinstance(s.target, Ident):
                raise EncodingError(
                    f"line {s.line}: ghost code cannot write arrays")
            value = eval_expr(s.value, scope)
            if s.op is not None:
                from ..encode.symexec import _ARITH
                value = _ARITH[s.op](scope.local(s.target.name, s.line), value)
            scope.locals[s.target.name] = value
        elif isinstance(s, Postcond):
            obligations.append((eval_bool(s.cond, scope), s.line))
        elif isinstance(s, If):
            cond = eval_bool(s.cond, scope)
            if cond.is_true():
                _exec_ghost(s.then.stmts, scope, obligations, limit)
            elif cond.is_false():
                if s.els:
                    _exec_ghost(s.els.stmts, scope, obligations, limit)
            else:
                raise EncodingError(
                    f"line {s.line}: symbolic branch in ghost code")
        elif isinstance(s, For):
            if s.init is not None:
                _exec_ghost((s.init,), scope, obligations, limit)
            count = 0
            while True:
                if s.cond is None:
                    raise EncodingError(f"line {s.line}: unbounded spec loop")
                cond = eval_bool(s.cond, scope)
                if cond.is_false():
                    break
                if not cond.is_true():
                    raise EncodingError(
                        f"line {s.line}: spec loop bound is symbolic; "
                        "concretize the geometry or inputs")
                _exec_ghost(s.body.stmts, scope, obligations, limit)
                if s.step is not None:
                    _exec_ghost((s.step,), scope, obligations, limit)
                count += 1
                if count > limit:
                    raise EncodingError(f"line {s.line}: spec loop too long")
        else:
            raise EncodingError(
                f"line {s.line}: unsupported ghost statement "
                f"{type(s).__name__}")


@fresh_scoped
def check_functional_nonparam(info: KernelInfo, config: LaunchConfig, *,
                              scalar_values: dict[str, int] | None = None,
                              timeout: float | None = None,
                              solve: SolveConfig | None = None
                              ) -> CheckOutcome:
    """Refute the kernel's post-conditions at a concrete geometry."""
    with Refutation(timeout, solve) as check:
        width = config.width
        pinned = scalar_values or {}
        inputs = {n: (BVConst(pinned[n], width) if n in pinned
                      else BVVar(f"np.in.{n}", width))
                  for n in info.scalar_params}
        arrays = {n: ArrayVar(f"np.arr.{n}", width, width)
                  for n in info.global_arrays}
        enc_start = time.monotonic()
        model = encode_kernel(info, config, inputs, arrays)
        scope = _ConcreteGhostScope(width, dict(inputs),
                                    model.final_globals, config)
        obligations: list[tuple[Term, int]] = []
        for pc in info.postconds:
            obligations.append((eval_bool(pc.cond, scope), pc.line))
        if info.spec is not None:
            _exec_ghost(info.spec.body.stmts, scope, obligations)
        record_encode_stats(check.outcome,
                            symexec_time=time.monotonic() - enc_start,
                            queries_built=len(obligations))
        check.assumptions = list(model.assumes)

        def confirm(line: int, smt_model):
            cex = concrete_launch(smt_model, config, inputs, arrays, pinned)
            cex.detail = f"postcondition at line {line} violated"
            free = {name: int(smt_model[var])  # type: ignore[arg-type]
                    for name, var in scope.free.items()}
            return cex, replay_postcondition(info, cex, width,
                                             free_bindings=free or None)

        check.refute((VC([Not(obligation)], line)
                      for obligation, line in obligations), confirm)
    return check.outcome


# ------------------------------------------------------------------- param


class _PostScope:
    """Evaluation scope of one postcondition over the symbolic thread's
    geometry: its array reads become :class:`Read` records at the virtual
    interval ``bi`` after the last real one."""

    def __init__(self, width: int, inputs: dict[str, Term],
                 geometry: Geometry, model: KernelModel, bi: int) -> None:
        self.width = width
        self.locals: dict[str, Term] = dict(inputs)
        self.free: dict[str, Term] = {}
        self.reads: list[Read] = []
        self.geometry = geometry
        self.model = model
        self.bi = bi

    def local(self, name: str, line: int) -> Term:
        if name not in self.locals:
            var = BVVar(f"free.{name}", self.width)
            self.free[name] = var
            self.locals[name] = var
        return self.locals[name]

    def builtin(self, base: str, axis: str, line: int) -> Term:
        if base == "bdim":
            return self.geometry.bdim[axis]
        if base == "gdim":
            return self.geometry.gdim[axis]
        raise EncodingError(
            f"line {line}: {base} is meaningless in a postcondition")

    def read_array(self, name: str, indices: tuple[Term, ...],
                   line: int) -> Term:
        atom = fresh_var(f"{name}.post", BV(self.width))
        read = Read(atom=atom, array=name, address=indices, bi=self.bi)
        self.reads.append(read)
        self.model.reads_by_atom[atom] = read
        return atom


@fresh_scoped
def check_functional_param(info: KernelInfo, width: int, *,
                           assumption_builder=None,
                           concretize: dict | None = None,
                           timeout: float | None = None,
                           bughunt: bool = False,
                           solve: SolveConfig | None = None) -> CheckOutcome:
    """Parameterized post-condition checking (loop-free kernels).

    The post-condition's array reads are resolved through the kernel's CAs
    with fresh-thread instantiation (Section IV-A's computation of
    ``odata[k]``), so the proof covers every thread count.
    """
    with Refutation(timeout, solve) as check:
        geometry = Geometry.create(width)
        inputs = {n: BVVar(f"in.{n}", width) for n in info.scalar_params}
        input_arrays = {n: ArrayVar(f"arr.{n}", width, width)
                        for n in info.global_arrays}
        enc_start = time.monotonic()
        model = extract_model(info, geometry, inputs, hint="f")
        plains = [seg for seg in model.segments
                  if isinstance(seg, PlainModel)]
        if len(plains) != len(model.segments):
            raise EncodingError(
                "parameterized postcondition checking supports loop-free "
                "kernels; use the non-parameterized method for loops")
        if info.spec is not None:
            raise EncodingError(
                "spec blocks (ghost loops) need concrete bounds; use the "
                "non-parameterized method")
        record_encode_stats(check.outcome,
                            symexec_time=time.monotonic() - enc_start)

        check.assumptions = geometry.base_assumptions() + model.assumes
        if assumption_builder is not None:
            check.assumptions += list(assumption_builder(geometry, inputs))
        check.assumptions += geometry.concretize(concretize, inputs)

        prestate = PrestateStore(0, width, set(input_arrays),
                                 initial_globals=input_arrays)
        ctx = GroupContext(
            model=model, plains=plains, geometry=geometry, hint="f",
            prestate=lambda array, addr, bid: prestate.select(
                "k", array, info.arrays[array].shared, addr, bid),
            prove=check.prove, bughunt=bughunt)

        def confirm(tag: tuple[int, dict[str, Term]], smt_model):
            line, free_vars = tag
            cex = extract_launch(smt_model, geometry, inputs, input_arrays)
            cex.detail = f"postcondition at line {line} violated"
            free = {name: int(smt_model[var])  # type: ignore[arg-type]
                    for name, var in free_vars.items()}
            return cex, replay_postcondition(info, cex, width,
                                             free_bindings=free or None)

        # A ghost "reader" evaluating the postcondition, resolved against
        # all CAs.
        ghost = ThreadInstance.fresh(geometry, "post")
        virtual_bi = 1 + max((p.index for p in plains), default=0)
        for pc in info.postconds:
            scope = _PostScope(width, inputs, geometry, model, virtual_bi)
            # `guard ==> property` postconds: the guard becomes a premise,
            # so coverage proofs inside resolution may use it (e.g. "the
            # cell is in range, hence some thread wrote it").
            premises: list[Term] = []
            cond = pc.cond
            while isinstance(cond, Binary) and cond.op == "==>":
                premises.append(eval_bool(cond.left, scope))
                cond = cond.right
            obligation = Implies(And(*premises), eval_bool(cond, scope))
            cases = resolve_value(obligation, scope.reads, ctx, ghost,
                                  premises)
            record_encode_stats(check.outcome, queries_built=len(cases))
            check.refute((VC([*case.constraints, Not(case.value)],
                             (pc.line, scope.free)) for case in cases),
                         confirm)
        check.incomplete.extend(ctx.incomplete_reads)
    return check.outcome


def check_functional(info: KernelInfo, *, method: str = "param",
                     width: int = 32,
                     config: LaunchConfig | None = None,
                     **kw) -> CheckOutcome:
    """Unified entry point for functional-correctness checking."""
    if method == "param":
        return check_functional_param(info, width, **kw)
    if method == "nonparam":
        if config is None:
            raise ValueError("nonparam method requires a concrete config")
        return check_functional_nonparam(info, config, **kw)
    raise ValueError(f"unknown method {method!r}")
