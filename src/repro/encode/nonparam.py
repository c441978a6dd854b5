"""The non-parameterized encoding (Section III).

All ``n`` threads of a *concrete* launch geometry are serialized in the
*natural order* — thread 0 first, then thread 1, … — within each barrier
interval, exactly the order Section III uses to define ``TRANS(t, n)``.
Shared-variable state is threaded through the whole execution as SMT array
store chains, which is the source of the encoding's blow-up in ``n`` (and of
the paper's non-parameterized T.O columns): the final value of every cell is
an ite/store chain mentioning every thread.

Scalar inputs and array contents remain fully symbolic; only the geometry is
fixed.  The paper's ``+C.`` flag additionally pins input values
(:func:`concretize_inputs`).

Each thread is concrete, so expressions are partially evaluated
(:func:`repro.encode.symexec.peval`): builtins, loop counters, guards and
addresses over them stay Python ints, and a term is built only at a store,
an ``assume``/``assert``, or an operator with a symbolic operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import EncodingError
from ..lang.ast import (
    Assert, Assign, Assume, Barrier, Block, For, Ident, If, Index, Postcond,
    Spec, Stmt, VarDecl,
)
from ..lang.interp import LaunchConfig
from ..lang.typecheck import KernelInfo
from ..smt import (
    BV, And, ArrayVar, BVConst, Eq, Implies, Ite, Kind, Not, Select, Store,
    Term, Var, fresh_name,
)
from .symexec import Value, arith, ite, lift, lift_bool, peval, peval_bool

__all__ = ["NonParamModel", "encode_kernel", "concretize_inputs"]


@dataclass
class NonParamModel:
    """The symbolic transition relation of one kernel at one geometry."""
    info: KernelInfo
    config: LaunchConfig
    inputs: dict[str, Term]
    input_arrays: dict[str, Term]
    final_globals: dict[str, Term]
    assumes: list[Term] = field(default_factory=list)
    asserts: list[tuple[Term, int]] = field(default_factory=list)
    rounds: int = 0


class _State:
    """Shared-memory state: global arrays grid-wide, shared arrays per
    block.  Values are SMT array terms (store chains)."""

    def __init__(self) -> None:
        self.arrays: dict[str, Term] = {}

    def copy(self) -> "_State":
        out = _State()
        out.arrays = dict(self.arrays)
        return out


class _Thread:
    """Symbolic execution context of one concrete thread."""

    def __init__(self, encoder: "_Encoder", bid: tuple[int, int],
                 tid: tuple[int, int, int]) -> None:
        self.encoder = encoder
        self.bid = bid
        self.tid = tid
        self.width = encoder.width
        self.locals: dict[str, Value] = dict(encoder.inputs)
        self.guards: list[Term] = []

    # ------------------------------------------------------------- SymScope

    def local(self, name: str, line: int) -> Value:
        try:
            return self.locals[name]
        except KeyError:
            # An uninitialized scalar is an unconstrained symbolic value
            # (used by postconditions for universal quantification).
            var = Var(f"{fresh_name('uninit')}.{name}", BV(self.width))
            self.locals[name] = var
            return var

    def builtin(self, base: str, axis: str, line: int) -> int:
        cfg = self.encoder.config
        idx = "xyz".index(axis)
        if base == "tid":
            value = self.tid[idx]
        elif base == "bid":
            if axis == "z":
                raise EncodingError(f"line {line}: blockIdx has no z axis")
            value = self.bid[idx]
        elif base == "bdim":
            value = cfg.bdim[idx]
        elif axis == "z":
            raise EncodingError(f"line {line}: gridDim has no z axis")
        else:
            value = cfg.gdim[idx]
        return value & self.encoder.mask

    def _flat_index(self, name: str, indices: tuple[Value, ...],
                    line: int) -> tuple[str, Value]:
        arr = self.encoder.model.info.arrays[name]
        key = name if not arr.shared else f"{name}@{self.bid}"
        flat = indices[0]
        if arr.dims:
            dims = self.encoder.shared_dims(name, self)
            for dim, idx in zip(dims[1:], indices[1:]):
                flat = arith("+", arith("*", flat, dim, self.width), idx,
                             self.width)
        return key, flat

    def read_array(self, name: str, indices: tuple[Value, ...],
                   line: int) -> Value:
        key, flat = self._flat_index(name, indices, line)
        cell = Select(self.encoder.state.arrays[key], lift(flat, self.width))
        return cell.payload if cell.kind is Kind.BVCONST else cell

    def write_array(self, name: str, indices: tuple[Value, ...],
                    value: Value, line: int) -> None:
        key, flat = self._flat_index(name, indices, line)
        state = self.encoder.state
        state.arrays[key] = Store(state.arrays[key], lift(flat, self.width),
                                  lift(value, self.width))

    # ------------------------------------------------------------ statements

    def guard(self) -> Term:
        return And(*self.guards)

    def exec_block(self, stmts: tuple[Stmt, ...]) -> Iterator[None]:
        for s in stmts:
            if isinstance(s, (Assign, VarDecl)):
                self.exec_assign(s)  # no barrier: skip the generator
            else:
                yield from self.exec_stmt(s)

    def exec_assign(self, s: Assign | VarDecl) -> None:
        if isinstance(s, VarDecl):
            if s.shared:
                return
            if s.init is not None:
                self.locals[s.name] = peval(s.init, self)
            else:
                self.locals.pop(s.name, None)
        else:
            value = peval(s.value, self)
            if isinstance(s.target, Ident):
                if s.op is not None:
                    value = arith(s.op, self.local(s.target.name, s.line),
                                  value, self.width)
                self.locals[s.target.name] = value
            else:
                assert isinstance(s.target, Index)
                indices = tuple(peval(i, self) for i in s.target.indices)
                if s.op is not None:
                    old = self.read_array(s.target.base.name, indices, s.line)
                    value = arith(s.op, old, value, self.width)
                self.write_array(s.target.base.name, indices, value, s.line)

    def exec_stmt(self, s: Stmt) -> Iterator[None]:
        enc = self.encoder
        if isinstance(s, Block):
            yield from self.exec_block(s.stmts)
        elif isinstance(s, Barrier):
            yield
        elif isinstance(s, If):
            yield from self.exec_if(s)
        elif isinstance(s, For):
            yield from self.exec_for(s)
        elif isinstance(s, Assume):
            enc.model.assumes.append(
                Implies(self.guard(), lift_bool(peval_bool(s.cond, self))))
        elif isinstance(s, Assert):
            enc.model.asserts.append(
                (Implies(self.guard(), lift_bool(peval_bool(s.cond, self))),
                 s.line))
        elif isinstance(s, (Postcond, Spec)):
            return  # encoded separately over the final state
        else:  # pragma: no cover
            raise EncodingError(f"unsupported statement {type(s).__name__}")

    def exec_if(self, s: If) -> Iterator[None]:
        cond = peval_bool(s.cond, self)
        if cond is True:
            yield from self.exec_block(s.then.stmts)
            return
        if cond is False:
            if s.els is not None:
                yield from self.exec_block(s.els.stmts)
            return
        # Symbolic condition: barriers inside are rejected by the
        # typechecker only for tid-dependent conditions; for symbolic but
        # uniform conditions (e.g. on width) a barrier would need path
        # splitting, which this encoder does not implement.
        from ..param.segments import contains_barrier
        if contains_barrier(s):
            raise EncodingError(
                f"line {s.line}: barrier under a symbolic condition is not "
                "supported by the non-parameterized encoding")
        enc = self.encoder
        saved_locals = dict(self.locals)
        saved_state = enc.state.copy()
        self.guards.append(cond)
        for _ in self.exec_block(s.then.stmts):
            raise AssertionError("unreachable: no barriers here")
        then_locals, then_state = self.locals, enc.state
        self.locals = dict(saved_locals)
        enc.state = saved_state.copy()
        self.guards[-1] = Not(cond)
        if s.els is not None:
            for _ in self.exec_block(s.els.stmts):
                raise AssertionError("unreachable: no barriers here")
        else_locals, else_state = self.locals, enc.state
        self.guards.pop()
        # Merge locals.
        merged: dict[str, Value] = {}
        for name in set(then_locals) | set(else_locals):
            tv = then_locals.get(name)
            ev = else_locals.get(name)
            if tv is None:
                merged[name] = ev
            elif ev is None:
                merged[name] = tv
            else:
                merged[name] = ite(cond, tv, ev, self.width)
        self.locals = merged
        # Merge array state.
        out = _State()
        for key in set(then_state.arrays) | set(else_state.arrays):
            tv = then_state.arrays[key]
            ev = else_state.arrays[key]
            out.arrays[key] = tv if tv is ev else Ite(cond, tv, ev)
        enc.state = out

    def exec_for(self, s: For) -> Iterator[None]:
        # The parser admits only assignments and declarations as init/step.
        if s.init is not None:
            self.exec_assign(s.init)
        count = 0
        while True:
            if s.cond is None:
                raise EncodingError(f"line {s.line}: unbounded loop")
            cond = peval_bool(s.cond, self)
            if cond is False:
                return
            if cond is not True:
                raise EncodingError(
                    f"line {s.line}: loop bound stays symbolic at a concrete "
                    "geometry; concretize the relevant inputs (+C)")
            yield from self.exec_block(s.body.stmts)
            if s.step is not None:
                self.exec_assign(s.step)
            count += 1
            if count > self.encoder.MAX_UNROLL:
                raise EncodingError(
                    f"line {s.line}: loop exceeded the unrolling limit")


class _Encoder:
    MAX_UNROLL = 1 << 16

    def __init__(self, info: KernelInfo, config: LaunchConfig,
                 inputs: dict[str, Term],
                 input_arrays: dict[str, Term]) -> None:
        self.config = config
        self.width = config.width
        self.mask = BV(config.width).mask
        # Pinned scalar inputs enter every thread's locals as ints.
        self.inputs: dict[str, Value] = {
            name: var.payload if var.kind is Kind.BVCONST else var
            for name, var in inputs.items()}
        self.model = NonParamModel(info=info, config=config, inputs=inputs,
                                   input_arrays=input_arrays,
                                   final_globals={})
        self.state = _State()
        self.state.arrays.update(input_arrays)
        self._dims: dict[str, tuple[int, ...]] = {}

    def shared_dims(self, name: str, thread: _Thread) -> tuple[int, ...]:
        dims = self._dims.get(name)
        if dims is None:
            arr = self.model.info.arrays[name]
            out = []
            for d in arr.dims:
                dim = peval(d, thread)
                if type(dim) is not int:
                    raise EncodingError(
                        f"shared array {name!r} has a symbolic dimension at "
                        "a concrete geometry")
                out.append(dim)
            dims = tuple(out)
            self._dims[name] = dims
        return dims

    def run(self) -> NonParamModel:
        cfg = self.config
        info = self.model.info
        width = self.width
        for bid in cfg.block_ids():
            for name in info.shared_arrays:
                self.state.arrays[f"{name}@{bid}"] = ArrayVar(
                    f"{fresh_name(name)}@{bid[0]}.{bid[1]}", width, width)
            threads = []
            for tid in cfg.thread_ids():
                th = _Thread(self, bid, tid)
                threads.append(th.exec_block(info.kernel.body.stmts))
            alive = list(threads)
            while alive:
                statuses = []
                for gen in alive:
                    try:
                        next(gen)
                        statuses.append(True)
                    except StopIteration:
                        statuses.append(False)
                if any(statuses) and not all(statuses):
                    raise EncodingError("barrier divergence at this geometry")
                self.model.rounds += 1
                alive = [g for g, s in zip(alive, statuses) if s]
        self.model.final_globals = {
            name: self.state.arrays[name] for name in info.global_arrays}
        return self.model


def encode_kernel(info: KernelInfo, config: LaunchConfig,
                  inputs: dict[str, Term],
                  input_arrays: dict[str, Term]) -> NonParamModel:
    """Serialize the kernel at the concrete geometry of ``config``.

    ``inputs`` (scalar parameters) and ``input_arrays`` (global arrays) are
    shared between the two kernels of an equivalence query, expressing "the
    same inputs".
    """
    missing = [p for p in info.scalar_params if p not in inputs]
    if missing:
        raise EncodingError(f"missing input variables for {missing}")
    return _Encoder(info, config, inputs, input_arrays).run()


def concretize_inputs(model: NonParamModel, extent: int,
                      seed: int = 1) -> list[Term]:
    """The paper's ``+C.`` flag for the non-parameterized method: pin the
    first ``extent`` cells of every input array (and leave scalars to the
    caller).  Returns equality constraints."""
    width = model.config.width
    mask = (1 << width) - 1
    out: list[Term] = []
    for nth, (name, arr) in enumerate(sorted(model.input_arrays.items())):
        for i in range(extent):
            value = (37 * i + 11 * nth + seed) & mask
            out.append(Eq(Select(arr, BVConst(i, width)),
                          BVConst(value, width)))
    return out
