"""Conditional-assignment (CA) extraction — Section IV-A/IV-C.

The parameterized encoder symbolically executes the kernel **once**, for a
single template thread with fresh symbolic coordinates.  Every write to a
shared or global array becomes a *conditional assignment*

    guard(t)  ?  array[address(t)] := value(t)

where ``guard`` is the path condition, ``address`` is the (componentwise,
for 2-D shared arrays) subscript vector, and ``value`` may contain *read
atoms* — fresh variables standing for array cells read during the interval,
to be resolved later against the CAs of earlier intervals (Section IV-B's
instantiation) or the interval group's pre-state.

Scalar control flow is ite-merged, so intermediate locals are kept exactly
as the optimization at the end of Section IV-C prescribes ("keep the control
flow of the BI and not eliminate all intermediate variables" — our guards are
path conditions over the original locals, which the hash-consed term layer
shares).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EncodingError
from ..lang.ast import (
    Assert, Assign, Assume, Barrier, Block, Expr, For, Ident, If, Index,
    IntLit, Postcond, Spec, Stmt, VarDecl,
)
from ..lang.typecheck import KernelInfo
from ..encode.symexec import Value, arith, eval_bool, eval_expr, lift
from ..smt import And, Implies, Ite, Not, Term, fresh_var
from ..smt.simplify import index_difference
from ..smt.sorts import BV
from .geometry import Geometry, ThreadInstance
from .loops import IterSpace, parse_header
from .segments import LoopSeg, PlainSeg, Segment, segment_body

__all__ = ["Read", "CA", "PlainModel", "LoopModel", "SegModel",
           "KernelModel", "extract_model"]


@dataclass(frozen=True)
class Read:
    """One array read: ``atom`` stands for the value of
    ``array[address]`` as of the start of barrier interval ``bi``."""
    atom: Term
    array: str
    address: tuple[Term, ...]
    bi: int


@dataclass(frozen=True)
class CA:
    """One conditional assignment, over the kernel's template thread."""
    array: str
    guard: Term
    address: tuple[Term, ...]
    value: Term
    bi: int
    line: int


@dataclass
class PlainModel:
    """The CA content of one barrier interval."""
    index: int
    cas: list[CA] = field(default_factory=list)
    reads: list[Read] = field(default_factory=list)

    def arrays_written(self) -> set[str]:
        return {ca.array for ca in self.cas}


@dataclass
class LoopModel:
    """A barrier-synchronized loop: body models over a symbolic iteration."""
    loop_var: Term
    space: IterSpace
    body: list["SegModel"]

    def arrays_written(self) -> set[str]:
        out: set[str] = set()
        for seg in self.body:
            out |= seg.arrays_written()
        return out


SegModel = PlainModel | LoopModel


@dataclass
class KernelModel:
    """The full parameterized model of one kernel."""
    info: KernelInfo
    geometry: Geometry
    thread: ThreadInstance
    inputs: dict[str, Term]
    segments: list[SegModel]
    assumes: list[Term] = field(default_factory=list)
    asserts: list[tuple[Term, int]] = field(default_factory=list)
    reads_by_atom: dict[Term, Read] = field(default_factory=dict)

    def all_plain(self, segs: list[SegModel] | None = None) -> list[PlainModel]:
        out: list[PlainModel] = []
        for seg in (self.segments if segs is None else segs):
            if isinstance(seg, PlainModel):
                out.append(seg)
            else:
                out.extend(self.all_plain(seg.body))
        return out


def _assigned_locals(stmts: tuple[Stmt, ...]) -> set[str]:
    """Names of scalars assigned or declared anywhere under ``stmts``."""
    out: set[str] = set()

    def walk(s: Stmt) -> None:
        if isinstance(s, Block):
            for x in s.stmts:
                walk(x)
        elif isinstance(s, VarDecl) and not s.shared:
            out.add(s.name)
        elif isinstance(s, Assign) and isinstance(s.target, Ident):
            out.add(s.target.name)
        elif isinstance(s, If):
            walk(s.then)
            if s.els:
                walk(s.els)
        elif isinstance(s, For):
            if s.init:
                walk(s.init)
            if s.step:
                walk(s.step)
            walk(s.body)

    for s in stmts:
        walk(s)
    return out


class _Extractor:
    """Single-template-thread symbolic executor producing CAs."""

    MAX_UNROLL = 4096

    def __init__(self, info: KernelInfo, geometry: Geometry,
                 inputs: dict[str, Term], hint: str) -> None:
        self.info = info
        self.geometry = geometry
        self.width = geometry.width
        self.thread = ThreadInstance.fresh(geometry, hint)
        self.inputs = inputs
        self.locals: dict[str, Term] = dict(inputs)
        self.guards: list[Term] = []
        self.bi = 0
        self.current: PlainModel | None = None
        self.model = KernelModel(info=info, geometry=geometry,
                                 thread=self.thread, inputs=inputs,
                                 segments=[])

    # ------------------------------------------------------------- SymScope

    def local(self, name: str, line: int) -> Term:
        try:
            return self.locals[name]
        except KeyError:
            raise EncodingError(
                f"line {line}: variable {name!r} has no value here — it is "
                "uninitialized or carried across loop iterations, which the "
                "parameterized encoding does not support") from None

    def builtin(self, base: str, axis: str, line: int) -> Term:
        if base == "tid":
            return self.thread.tid[axis]
        if base == "bid":
            if axis == "z":
                raise EncodingError(f"line {line}: blockIdx has no z axis")
            return self.thread.bid[axis]
        if base == "bdim":
            return self.geometry.bdim[axis]
        if axis == "z":
            raise EncodingError(f"line {line}: gridDim has no z axis")
        return self.geometry.gdim[axis]

    def read_array(self, name: str, indices: tuple[Value, ...],
                   line: int) -> Term:
        assert self.current is not None
        indices = tuple(lift(i, self.width) for i in indices)
        # Own-write aliasing inside the interval: a read after a write to a
        # possibly-equal cell by the same thread would need store semantics.
        for ca in self.current.cas:
            if ca.array != name:
                continue
            diffs = [index_difference(a, b)
                     for a, b in zip(ca.address, indices)]
            if all(d == 0 for d in diffs):
                if ca.guard is And(*self.guards):
                    return ca.value  # definite read-own-write
                raise EncodingError(
                    f"line {line}: read of {name!r} after a conditional "
                    "write to the same cell in one barrier interval")
            if not any(d is not None and d != 0 for d in diffs):
                raise EncodingError(
                    f"line {line}: read of {name!r} may alias an earlier "
                    "write by the same thread in this barrier interval")
        atom = fresh_var(f"{name}.rd", BV(self.width))
        read = Read(atom=atom, array=name, address=indices,
                    bi=self.current.index)
        self.current.reads.append(read)
        self.model.reads_by_atom[atom] = read
        return atom

    # ------------------------------------------------------------ statements

    def guard_term(self) -> Term:
        return And(*self.guards)

    def exec_stmts(self, stmts: tuple[Stmt, ...]) -> None:
        for s in stmts:
            self.exec_stmt(s)

    def exec_stmt(self, s: Stmt) -> None:
        if isinstance(s, Block):
            self.exec_stmts(s.stmts)
        elif isinstance(s, VarDecl):
            if s.shared:
                return
            if s.init is not None:
                self.locals[s.name] = eval_expr(s.init, self)
            else:
                self.locals.pop(s.name, None)  # symbolic-free until assigned
        elif isinstance(s, Assign):
            self.exec_assign(s)
        elif isinstance(s, If):
            self.exec_if(s)
        elif isinstance(s, For):
            self.exec_unrolled_for(s)
        elif isinstance(s, Assume):
            cond = eval_bool(s.cond, self)
            self.model.assumes.append(
                cond if not self.guards else Implies(self.guard_term(), cond))
        elif isinstance(s, Assert):
            self.model.asserts.append(
                (Implies(And(self.thread.validity(), self.guard_term()),
                         eval_bool(s.cond, self)), s.line))
        elif isinstance(s, Barrier):
            raise EncodingError(
                f"line {s.line}: barrier inside a non-synchronized "
                "construct")  # segments guarantee this cannot happen
        elif isinstance(s, (Postcond, Spec)):
            return  # handled by the functional checker
        else:  # pragma: no cover
            raise EncodingError(f"unsupported statement {type(s).__name__}")

    def exec_assign(self, s: Assign) -> None:
        value = eval_expr(s.value, self)
        if isinstance(s.target, Ident):
            if s.op is not None:
                value = lift(arith(s.op, self.local(s.target.name, s.line),
                                   value, self.width), self.width)
            self.locals[s.target.name] = value
            return
        assert isinstance(s.target, Index)
        name = s.target.base.name
        indices = tuple(eval_expr(i, self) for i in s.target.indices)
        if s.op is not None:
            old = self.read_array(name, indices, s.line)
            value = lift(arith(s.op, old, value, self.width), self.width)
        assert self.current is not None
        self.current.cas.append(CA(
            array=name, guard=self.guard_term(), address=indices,
            value=value, bi=self.current.index, line=s.line))

    def exec_if(self, s: If) -> None:
        cond = eval_bool(s.cond, self)
        saved = dict(self.locals)
        self.guards.append(cond)
        self.exec_stmts(s.then.stmts)
        then_locals = self.locals
        self.locals = dict(saved)
        self.guards[-1] = Not(cond)
        if s.els is not None:
            self.exec_stmts(s.els.stmts)
        else_locals = self.locals
        self.guards.pop()
        merged: dict[str, Term] = {}
        for name in set(then_locals) | set(else_locals):
            tv = then_locals.get(name)
            ev = else_locals.get(name)
            if tv is None:
                merged[name] = ev  # branch-scoped: dead afterwards
            elif ev is None:
                merged[name] = tv
            else:
                merged[name] = tv if tv is ev else Ite(cond, tv, ev)
        self.locals = merged

    def exec_unrolled_for(self, s: For) -> None:
        """A loop without barriers: unroll it; the trip count must become
        concrete after simplification (else the paper concretizes inputs)."""
        if s.init is not None:
            self.exec_stmt(s.init)
        for _ in range(self.MAX_UNROLL):
            if s.cond is None:
                raise EncodingError(
                    f"line {s.line}: loops without conditions cannot be "
                    "unrolled")
            cond = eval_bool(s.cond, self)
            if cond.is_true():
                pass
            elif cond.is_false():
                return
            else:
                raise EncodingError(
                    f"line {s.line}: loop bound is symbolic; the "
                    "parameterized encoding cannot unroll it (concretize "
                    "the relevant inputs, as the paper's +C mode does)")
            self.exec_stmts(s.body.stmts)
            if s.step is not None:
                self.exec_stmt(s.step)
        raise EncodingError(
            f"line {s.line}: loop exceeded the unrolling limit")

    # -------------------------------------------------------------- segments

    def run(self) -> KernelModel:
        segmented = segment_body(self.info.kernel.body)
        self.model.segments = [self.exec_segment(seg)
                               for seg in segmented.segments]
        return self.model

    def exec_segment(self, seg: Segment) -> SegModel:
        if isinstance(seg, PlainSeg):
            self.current = PlainModel(index=self.bi)
            self.bi += 1
            self.exec_stmts(seg.stmts)
            out = self.current
            self.current = None
            return out
        # LoopSeg: model one symbolic iteration.
        space = parse_header(seg.loop, lambda e: eval_expr(e, self))
        kvar = fresh_var(f"{space.var_name}.iter", BV(self.width))
        assigned = set()
        for body_seg in seg.body:
            if isinstance(body_seg, PlainSeg):
                assigned |= _assigned_locals(body_seg.stmts)
            else:
                raise EncodingError(
                    f"line {seg.loop.line}: nested barrier-synchronized "
                    "loops are not supported by the parameterized encoding")
        saved = dict(self.locals)
        for name in assigned:
            self.locals.pop(name, None)
        self.locals[space.var_name] = kvar
        body_models = [self.exec_segment(b) for b in seg.body]
        # Values of body-assigned locals are iteration-dependent: invalid
        # after the loop.
        self.locals = {n: v for n, v in saved.items() if n not in assigned}
        self.locals.pop(space.var_name, None)
        return LoopModel(loop_var=kvar, space=space, body=body_models)


def extract_model(info: KernelInfo, geometry: Geometry,
                  inputs: dict[str, Term], hint: str = "t") -> KernelModel:
    """Build the parameterized model of ``info``'s kernel.

    ``inputs`` maps scalar parameter names to SMT variables — the
    equivalence checker passes the *same* variables for both kernels, which
    is how "the two kernels take the same inputs" is expressed.
    """
    missing = [p for p in info.scalar_params if p not in inputs]
    if missing:
        raise EncodingError(f"missing input variables for {missing}")
    return _Extractor(info, geometry, inputs, hint).run()
