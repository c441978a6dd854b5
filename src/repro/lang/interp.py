"""Concrete reference interpreter for the kernel DSL.

Executes a kernel for a *concrete* launch configuration and input under the
canonical schedule the paper proves adequate for deterministic kernels
(Section III): within each barrier interval, threads run to the barrier one
after another in thread-id order ("natural order").  The interpreter is

* the differential-testing oracle for both symbolic encoders,
* the replay engine that validates counterexamples found by the checkers, and
* a dynamic race detector: it records per-interval read/write sets and flags
  inter-thread conflicts on the same cell (the property whose absence the
  serialization argument needs).

It shares no code with the encoders.  :class:`CompiledKernel` turns the
kernel AST into Python closures once per kernel and launch; the launch
constants (the word mask and width, ``bdim``/``gdim``, literals) fold into
the closures.  A statement with no ``__syncthreads()`` beneath it compiles
to a plain function.  Only barrier-carrying statements compile to
generators that ``yield`` at each barrier, so a thread is a generator only
when its kernel has a barrier.  The scheduler advances every thread of a
block to the next yield, enforcing that all threads reach the *same*
barrier (barrier divergence is an error).  Compiling never raises: a fault
such as an uninitialized read or ``blockIdx.z`` fires when its code runs,
so code that never runs never faults.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, Optional, Union

from ..errors import InterpError
from .ast import (
    Assert, Assign, Assume, Barrier, Binary, Block, Builtin, Call, Expr, For,
    Ident, If, Index, IntLit, Kernel, Postcond, Spec, Stmt, Ternary, Unary,
    VarDecl,
)
from .typecheck import ArrayInfo, KernelInfo, check_kernel

__all__ = ["LaunchConfig", "RaceReport", "ExecResult", "CompiledKernel",
           "run_kernel", "check_postconditions"]


@dataclass(frozen=True)
class LaunchConfig:
    """A concrete launch: block/grid geometry plus the machine word width.

    The same kernels run at 8/12/16/32 bits in the paper's evaluation, so the
    word width is part of the configuration, not of the program.
    """
    bdim: tuple[int, int, int] = (1, 1, 1)
    gdim: tuple[int, int] = (1, 1)
    width: int = 32

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def threads_per_block(self) -> int:
        return self.bdim[0] * self.bdim[1] * self.bdim[2]

    @property
    def num_blocks(self) -> int:
        return self.gdim[0] * self.gdim[1]

    def block_ids(self) -> Iterator[tuple[int, int]]:
        for by in range(self.gdim[1]):
            for bx in range(self.gdim[0]):
                yield (bx, by)

    def thread_ids(self) -> Iterator[tuple[int, int, int]]:
        for tz in range(self.bdim[2]):
            for ty in range(self.bdim[1]):
                for tx in range(self.bdim[0]):
                    yield (tx, ty, tz)


@dataclass(frozen=True)
class RaceReport:
    """An inter-thread conflict on one cell within one barrier interval."""
    array: str
    index: int
    kind: str                     # 'write-write' or 'read-write'
    block: tuple[int, int]
    threads: tuple[tuple[int, ...], tuple[int, ...]]

    def __str__(self) -> str:
        return (f"{self.kind} race on {self.array}[{self.index}] between "
                f"threads {self.threads[0]} and {self.threads[1]} "
                f"of block {self.block}")


@dataclass
class ExecResult:
    """Final state of a run plus everything the checkers need to inspect."""
    config: LaunchConfig
    globals: dict[str, dict[int, int]]
    shared: dict[tuple[int, int], dict[str, dict[int, int]]]
    scalars: dict[str, int]
    races: list[RaceReport] = field(default_factory=list)
    assertion_failures: list[str] = field(default_factory=list)
    rounds: int = 0


class _Thread:
    """Execution context of one thread (or of the ghost spec thread)."""
    __slots__ = ("interp", "bid", "tid", "tx", "ty", "tz", "bx", "by",
                 "locals", "mem", "reads", "writes")

    def __init__(self, interp: "_Interp", bid: tuple[int, int],
                 tid: tuple[int, int, int], mem: dict[str, dict[int, int]],
                 scalars: Mapping[str, int]) -> None:
        self.interp = interp
        self.bid = bid
        self.tid = tid
        self.tx, self.ty, self.tz = tid
        self.bx, self.by = bid
        self.locals: dict[str, int] = dict(scalars)
        # Array name -> cells: the global arrays and this block's shared ones.
        self.mem = mem
        self.reads: set[tuple[str, int]] = set()
        self.writes: set[tuple[str, int]] = set()


# ------------------------------------------------------------ the compiler

#: A compiled expression: a constant folded at compile time, or a closure
#: that evaluates the expression in a thread.
_Fn = Callable[[_Thread], int]
_Value = Union[int, _Fn]

# Kinds of compiled statement.  A plain statement is called; a generator
# statement is iterated and yields at each barrier it reaches.
_PLAIN, _GEN, _BARRIER = 0, 1, 2
_Part = Optional[tuple[Callable, int]]   # None: the statement does nothing

_MASKED = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_BITWISE = {"&": operator.and_, "|": operator.or_, "^": operator.xor}
_TESTS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
          "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_THREAD_AXES = {"tid": (operator.attrgetter("tx"), operator.attrgetter("ty"),
                        operator.attrgetter("tz")),
                "bid": (operator.attrgetter("bx"), operator.attrgetter("by"))}


def _fail(message: str) -> _Fn:
    def fail(t: _Thread) -> int:
        raise InterpError(message)
    return fail


def _as_fn(value: _Value) -> _Fn:
    if isinstance(value, int):
        return lambda t: value
    return value


def _skip(t: _Thread) -> None:
    pass


def _barrier(t: _Thread) -> Iterator[None]:
    yield


def _run(part: _Part) -> Callable[[_Thread], None]:
    """The plain function of a statement that cannot reach a barrier."""
    return _skip if part is None else part[0]


def _gen(part: _Part) -> Callable[[_Thread], Iterator[None]]:
    """The generator function of any compiled statement."""
    if part is None or part[1] == _PLAIN:
        run = _run(part)

        def barrier_free(t: _Thread) -> Iterator[None]:
            run(t)
            yield from ()
        return barrier_free
    return _barrier if part[1] == _BARRIER else part[0]


def _suspends(*parts: _Part) -> bool:
    return any(p is not None and p[1] != _PLAIN for p in parts)


def _sequence(fns: list[Callable[[_Thread], None]]) -> _Part:
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0], _PLAIN
    if len(fns) == 2:
        first, second = fns

        def pair(t: _Thread) -> None:
            first(t)
            second(t)
        return pair, _PLAIN

    def sequence(t: _Thread) -> None:
        for fn in fns:
            fn(t)
    return sequence, _PLAIN


def _chain(parts: list[_Part]) -> _Part:
    """Statements run one after another: a plain function unless one of
    them can reach a barrier, else a generator that calls each run of
    plain statements as one function."""
    parts = [p for p in parts if p is not None]
    if not _suspends(*parts):
        return _sequence([fn for fn, _ in parts])
    steps: list[tuple[Callable, int]] = []
    plain: list[Callable[[_Thread], None]] = []
    for fn, kind in parts:
        if kind == _PLAIN:
            plain.append(fn)
            continue
        if plain:
            steps.append(_sequence(plain))  # type: ignore[arg-type]
            plain = []
        steps.append((fn, kind))
    if plain:
        steps.append(_sequence(plain))  # type: ignore[arg-type]

    def chain(t: _Thread) -> Iterator[None]:
        for fn, kind in steps:
            if kind == _PLAIN:
                fn(t)
            elif kind == _GEN:
                yield from fn(t)
            else:
                yield
    return chain, _GEN


def _operators(mask: int, width: int) -> dict[str, Callable[[int, int], int]]:
    """The value of ``a op b`` for every binary operator on word values."""
    ops: dict[str, Callable[[int, int], int]] = {
        op: (lambda f: lambda a, b: f(a, b) & mask)(f)
        for op, f in _MASKED.items()}
    ops.update(_BITWISE)
    ops.update({op: (lambda f: lambda a, b: 1 if f(a, b) else 0)(f)
                for op, f in _TESTS.items()})
    ops.update({
        "/": lambda a, b: mask if b == 0 else a // b,   # SMT-LIB convention
        "%": lambda a, b: a if b == 0 else a % b,       # SMT-LIB convention
        "<<": lambda a, b: 0 if b >= width else (a << b) & mask,
        ">>": lambda a, b: 0 if b >= width else a >> b,
    })
    return ops


class _Compiler:
    """Compiles the expressions and statements of one kernel for one launch.

    Evaluation order, short-circuiting and every fault match a direct walk
    of the AST: operands run left to right, and a fault is raised by the
    closure of the node that has it, when that closure runs.
    """

    def __init__(self, info: KernelInfo, config: LaunchConfig) -> None:
        self.arrays = info.arrays
        self.config = config
        self.mask = config.mask
        self.ops = _operators(config.mask, config.width)
        self._shapes: dict[str, tuple[tuple[int, ...] | None,
                                      list[_Fn]]] = {}

    def expr(self, e: Expr) -> _Value:
        return _EXPRESSIONS[type(e)](self, e)

    def stmt(self, s: Stmt) -> _Part:
        return _STATEMENTS[type(s)](self, s)

    # ------------------------------------------------------------ expressions

    def literal(self, e: IntLit) -> int:
        return e.value & self.mask

    def ident(self, e: Ident) -> _Fn:
        name = e.name
        message = f"line {e.line}: read of uninitialized variable {name!r}"

        def ident(t: _Thread) -> int:
            try:
                return t.locals[name]
            except KeyError:
                raise InterpError(message) from None
        return ident

    def builtin(self, b: Builtin) -> _Value:
        axis = "xyz".index(b.axis)
        if b.base == "tid":
            return _THREAD_AXES["tid"][axis]
        if b.base == "bid":
            if axis == 2:
                return _fail("blockIdx has no z axis in this model")
            return _THREAD_AXES["bid"][axis]
        if b.base == "bdim":
            return self.config.bdim[axis]
        if axis == 2:  # gdim
            return _fail("gridDim has no z axis in this model")
        return self.config.gdim[axis]

    def unary(self, e: Unary) -> _Value:
        v = self.expr(e.operand)
        mask = self.mask
        if e.op == "-":
            if isinstance(v, int):
                return (-v) & mask
            return lambda t: (-v(t)) & mask
        if e.op == "~":
            if isinstance(v, int):
                return (~v) & mask
            return lambda t: (~v(t)) & mask
        if isinstance(v, int):  # '!'
            return 0 if v else 1
        return lambda t: 0 if v(t) else 1

    def binary(self, e: Binary) -> _Value:
        op = e.op
        left, right = self.expr(e.left), self.expr(e.right)
        if op in ("&&", "||", "==>"):
            return _logic(op, left, right)
        value = self.ops[op]
        if isinstance(right, int):
            if isinstance(left, int):
                return value(left, right)
            c, mask = right, self.mask
            if op in _MASKED:
                f = _MASKED[op]
                return lambda t: f(left(t), c) & mask
            if op in _TESTS:
                f = _TESTS[op]
                return lambda t: 1 if f(left(t), c) else 0
            return lambda t: value(left(t), c)
        lhs, mask = _as_fn(left), self.mask
        if op in _MASKED:
            f = _MASKED[op]
            return lambda t: f(lhs(t), right(t)) & mask
        if op in _TESTS:
            f = _TESTS[op]
            return lambda t: 1 if f(lhs(t), right(t)) else 0
        return lambda t: value(lhs(t), right(t))

    def ternary(self, e: Ternary) -> _Value:
        cond = self.expr(e.cond)
        if isinstance(cond, int):
            return self.expr(e.then if cond else e.els)
        then, els = _as_fn(self.expr(e.then)), _as_fn(self.expr(e.els))
        return lambda t: then(t) if cond(t) else els(t)

    def call(self, e: Call) -> _Value:
        pick = max if e.func == "max" else min
        a, b = (self.expr(x) for x in e.args)
        if isinstance(a, int) and isinstance(b, int):
            return pick(a, b)
        fa, fb = _as_fn(a), _as_fn(b)
        return lambda t: pick(fa(t), fb(t))

    # ----------------------------------------------------------------- memory

    def shape(self, arr: ArrayInfo) -> tuple[tuple[int, ...] | None,
                                             list[_Fn]]:
        """A shared array's extents: folded when they are launch constants,
        else the closures that compute them on first access."""
        shape = self._shapes.get(arr.name)
        if shape is None:
            dims = [self.expr(d) for d in arr.dims]
            if all(isinstance(d, int) for d in dims):
                shape = tuple(dims), []  # type: ignore[arg-type]
            else:
                shape = None, [_as_fn(d) for d in dims]
            self._shapes[arr.name] = shape
        return shape

    def flat_index(self, e: Index) -> tuple[str, _Fn]:
        """The array and flat cell of an access.  Every index is evaluated
        before any bound is checked."""
        name = e.base.name
        arr = self.arrays[name]
        idx = [_as_fn(self.expr(i)) for i in e.indices]
        if not arr.shared:
            return name, idx[0]  # a global array has rank 1
        dims, dim_fns = self.shape(arr)
        line = e.line
        if dims is not None and len(dims) == 1:
            f, d = idx[0], dims[0]

            def flat1(t: _Thread) -> int:
                v = f(t)
                if v >= d:
                    raise InterpError(
                        f"line {line}: index {v} out of bounds {d} in {name}")
                return v
            return name, flat1
        if dims is not None and len(dims) == 2:
            (f0, f1), (d0, d1) = idx, dims

            def flat2(t: _Thread) -> int:
                v0 = f0(t)
                v1 = f1(t)
                if v0 >= d0:
                    raise InterpError(
                        f"line {line}: index {v0} out of bounds {d0} in {name}")
                if v1 >= d1:
                    raise InterpError(
                        f"line {line}: index {v1} out of bounds {d1} in {name}")
                return v0 * d1 + v1
            return name, flat2

        def flat(t: _Thread) -> int:
            values = [f(t) for f in idx]
            extents = dims if dims is not None else \
                t.interp.shared_dims(name, dim_fns, t.bid)
            cell = 0
            for v, d in zip(values, extents):
                if v >= d:
                    raise InterpError(
                        f"line {line}: index {v} out of bounds {d} in {name}")
                cell = cell * d + v
            return cell
        return name, flat

    def load(self, e: Index) -> _Fn:
        name, flat = self.flat_index(e)
        if self.arrays[name].shared:
            def load_shared(t: _Thread) -> int:
                i = flat(t)
                t.reads.add((name, i))
                cells = t.mem[name]
                if i in cells:
                    return cells[i]
                # Uninitialized shared memory holds arbitrary values on real
                # hardware; the fill lets counterexample replay probe that
                # nondeterminism (0 models a zeroed device).
                return t.interp.shared_fill(name, i)
            return load_shared

        def load_global(t: _Thread) -> int:
            i = flat(t)
            t.reads.add((name, i))
            return t.mem[name].get(i, 0)
        return load_global

    # ------------------------------------------------------------- statements

    def block(self, s: Block) -> _Part:
        return _chain([self.stmt(x) for x in s.stmts])

    def declare(self, s: VarDecl) -> _Part:
        if s.shared or s.init is None:
            # Shared arrays are allocated by the block set-up; uninitialized
            # scalars stay unbound: reading one is an error except in
            # postconditions, where the caller binds them.
            return None
        return self.bind(s.name, self.expr(s.init))

    def bind(self, name: str, value: _Value) -> _Part:
        if isinstance(value, int):
            def bind_constant(t: _Thread) -> None:
                t.locals[name] = value  # type: ignore[assignment]
            return bind_constant, _PLAIN

        def bind(t: _Thread) -> None:
            t.locals[name] = value(t)  # type: ignore[operator]
        return bind, _PLAIN

    def assign(self, s: Assign) -> _Part:
        value = self.expr(s.value)
        if s.op is not None:
            # ``a op= e`` evaluates e, then reads a, then combines the two
            # as word values (the read re-evaluates a's indices).
            operand, old = _as_fn(value), _as_fn(self.expr(s.target))
            combine, mask = self.ops[s.op], self.mask

            def compound(t: _Thread) -> int:
                v = operand(t)
                return combine(old(t) & mask, v & mask)
            value = compound
        if isinstance(s.target, Ident):
            return self.bind(s.target.name, value)
        name, flat = self.flat_index(s.target)  # type: ignore[arg-type]
        rhs = _as_fn(value)

        def store(t: _Thread) -> None:
            v = rhs(t)
            i = flat(t)
            t.writes.add((name, i))
            t.mem[name][i] = v
        return store, _PLAIN

    def barrier(self, s: Barrier) -> _Part:
        return _barrier, _BARRIER

    def if_(self, s: If) -> _Part:
        cond = self.expr(s.cond)
        if isinstance(cond, int):
            if cond:
                return self.stmt(s.then)
            return None if s.els is None else self.stmt(s.els)
        then = self.stmt(s.then)
        els = None if s.els is None else self.stmt(s.els)
        if _suspends(then, els):
            then_gen, els_gen = _gen(then), _gen(els)

            def branch_gen(t: _Thread) -> Iterator[None]:
                if cond(t):
                    yield from then_gen(t)
                else:
                    yield from els_gen(t)
            return branch_gen, _GEN
        then_fn = _run(then)
        if els is None:
            def branch(t: _Thread) -> None:
                if cond(t):
                    then_fn(t)
            return branch, _PLAIN
        els_fn = _run(els)

        def branch_else(t: _Thread) -> None:
            if cond(t):
                then_fn(t)
            else:
                els_fn(t)
        return branch_else, _PLAIN

    def for_(self, s: For) -> _Part:
        init = None if s.init is None else self.stmt(s.init)
        cond = 1 if s.cond is None else self.expr(s.cond)
        if isinstance(cond, int) and not cond:
            return init  # the body never runs
        test = _as_fn(cond)
        step = None if s.step is None else self.stmt(s.step)
        iteration = _chain([self.stmt(s.body), step])
        line = s.line

        def overrun(limit: int) -> InterpError:
            return InterpError(f"line {line}: loop exceeded {limit} iterations")

        if _suspends(init, iteration):
            init_gen, iteration_gen = _gen(init), _gen(iteration)

            def loop_gen(t: _Thread) -> Iterator[None]:
                yield from init_gen(t)
                limit = t.interp.loop_limit
                guard = 0
                while test(t):
                    yield from iteration_gen(t)
                    guard += 1
                    if guard > limit:
                        raise overrun(limit)
            return loop_gen, _GEN
        init_fn, iteration_fn = _run(init), _run(iteration)

        def loop(t: _Thread) -> None:
            init_fn(t)
            limit = t.interp.loop_limit
            guard = 0
            while test(t):
                iteration_fn(t)
                guard += 1
                if guard > limit:
                    raise overrun(limit)
        return loop, _PLAIN

    def assume(self, s: Assume) -> _Part:
        cond = self.expr(s.cond)
        if isinstance(cond, int) and cond:
            return None
        test, line = _as_fn(cond), s.line

        def assume(t: _Thread) -> None:
            if not test(t):
                raise InterpError(f"line {line}: assumption violated by "
                                  "this configuration/input")
        return assume, _PLAIN

    def assert_(self, s: Assert) -> _Part:
        cond = self.expr(s.cond)
        if isinstance(cond, int) and cond:
            return None
        test, line = _as_fn(cond), s.line

        def assert_(t: _Thread) -> None:
            if not test(t):
                t.interp.result.assertion_failures.append(
                    f"line {line}: assert failed in thread {t.tid} "
                    f"of block {t.bid}")
        return assert_, _PLAIN

    def ignore(self, s: Postcond | Spec) -> _Part:
        # Postconditions are checked over the final state; spec code is
        # executed by check_postconditions.
        return None


_EXPRESSIONS: dict[type, Callable[[_Compiler, Expr], _Value]] = {
    IntLit: _Compiler.literal, Ident: _Compiler.ident,
    Builtin: _Compiler.builtin, Unary: _Compiler.unary,
    Binary: _Compiler.binary, Ternary: _Compiler.ternary,
    Index: _Compiler.load, Call: _Compiler.call,
}
_STATEMENTS: dict[type, Callable[[_Compiler, Stmt], _Part]] = {
    Block: _Compiler.block, VarDecl: _Compiler.declare,
    Assign: _Compiler.assign, Barrier: _Compiler.barrier, If: _Compiler.if_,
    For: _Compiler.for_, Assume: _Compiler.assume, Assert: _Compiler.assert_,
    Postcond: _Compiler.ignore, Spec: _Compiler.ignore,
}


def _logic(op: str, left: _Value, right: _Value) -> _Value:
    """``&&``, ``||`` and ``==>``: the right operand runs only when the left
    one does not decide the result."""
    if isinstance(left, int):
        # A false left decides '&&' (0) and '==>' (1); a true one '||' (1).
        if bool(left) == (op == "||"):
            return 0 if op == "&&" else 1
        if isinstance(right, int):
            return 1 if right else 0
        return lambda t: 1 if right(t) else 0  # type: ignore[operator]
    rhs = _as_fn(right)
    if op == "&&":
        return lambda t: 1 if (left(t) and rhs(t)) else 0
    if op == "||":
        return lambda t: 1 if (left(t) or rhs(t)) else 0
    return lambda t: 1 if (not left(t) or rhs(t)) else 0


# -------------------------------------------------------------- execution


class CompiledKernel:
    """A kernel compiled for one launch configuration.

    Compiling is cheap but not free; a caller that runs the same kernel and
    launch on several inputs (counterexample replay) compiles it once.  The
    body compiles at the first run, so a caller that only evaluates
    expressions over a final state (:func:`check_postconditions`) never
    compiles it.
    """

    def __init__(self, info: KernelInfo, config: LaunchConfig) -> None:
        self.info = info
        self.config = config
        self._compiler = _Compiler(info, config)

    @cached_property
    def body(self) -> _Part:
        """The compiled kernel body."""
        return self._compiler.stmt(self.info.kernel.body)

    def expression(self, e: Expr) -> _Fn:
        """A closure evaluating ``e`` in a thread of this launch."""
        return _as_fn(self._compiler.expr(e))

    def run(self, inputs: Mapping[str, object] | None = None,
            check_races: bool = True, loop_limit: int = 1_000_000,
            shared_fill=None) -> ExecResult:
        """Execute on ``inputs``; see :func:`run_kernel`."""
        result = _initial_state(self.info, self.config, inputs or {})
        return _Interp(self, result, loop_limit, shared_fill).run(check_races)


#: What ``next`` returns for a thread that ran to its end (a barrier
#: yields None).
_FINISHED = object()


def _zero_fill(name: str, flat: int) -> int:
    return 0


def _initial_state(info: KernelInfo, config: LaunchConfig,
                   inputs: Mapping[str, object]) -> ExecResult:
    """The memory a run starts from: global arrays and scalars from
    ``inputs`` (masked to the word width), no shared memory yet."""
    globals_: dict[str, dict[int, int]] = {}
    for name in info.global_arrays:
        raw = inputs.get(name, {})
        if isinstance(raw, dict):
            content = {int(k): int(v) & config.mask for k, v in raw.items()}
        else:
            content = {i: int(v) & config.mask for i, v in enumerate(raw)}  # type: ignore[call-overload]
        globals_[name] = content
    scalars: dict[str, int] = {}
    for name in info.scalar_params:
        if name not in inputs:
            raise InterpError(f"missing scalar input {name!r}")
        scalars[name] = int(inputs[name]) & config.mask  # type: ignore[call-overload]
    return ExecResult(config=config, globals=globals_, shared={},
                      scalars=scalars)


class _Interp:
    """One execution of a compiled kernel over ``result``'s memory."""

    def __init__(self, program: CompiledKernel, result: ExecResult,
                 loop_limit: int, shared_fill=None) -> None:
        self.program = program
        self.info = program.info
        self.config = result.config
        self.result = result
        self.globals = result.globals
        self.shared = result.shared
        self.scalars = result.scalars
        self.loop_limit = loop_limit
        self.shared_fill = shared_fill or _zero_fill
        self._dims: dict[str, tuple[int, ...]] = {}

    def thread(self, bid: tuple[int, int], tid: tuple[int, int, int],
               mem: dict[str, dict[int, int]] | None = None,
               scalars: Mapping[str, int] | None = None) -> _Thread:
        if mem is None:
            mem = self.memory(bid)
        return _Thread(self, bid, tid, mem,
                       self.scalars if scalars is None else scalars)

    def memory(self, bid: tuple[int, int]) -> dict[str, dict[int, int]]:
        mem = dict(self.globals)
        mem.update(self.shared.get(bid, {}))
        return mem

    def shared_dims(self, name: str, dim_fns: list[_Fn],
                    bid: tuple[int, int]) -> tuple[int, ...]:
        """Extents that are not launch constants, evaluated on first access
        by a probe thread with no locals."""
        dims = self._dims.get(name)
        if dims is None:
            probe = self.thread(bid, (0, 0, 0), scalars={})
            dims = tuple(f(probe) for f in dim_fns)
            self._dims[name] = dims
        return dims

    def run(self, check_races: bool) -> ExecResult:
        cfg = self.config
        body = self.program.body
        tids = list(cfg.thread_ids())
        shared_names = frozenset(self.info.shared_arrays)
        # Grid-level tracking: CUDA blocks are unordered, so any write-write
        # or read-write overlap on a *global* cell between different blocks
        # is a race regardless of barrier intervals.
        grid_writers: dict[tuple[str, int], tuple[tuple[int, int],
                                                  tuple[int, ...]]] = {}
        grid_readers: dict[tuple[str, int], tuple[tuple[int, int],
                                                  tuple[int, ...]]] = {}

        def end_round(bid: tuple[int, int], threads: list[_Thread]) -> None:
            if check_races:
                self._detect_races(bid, threads)
                self._track_global(bid, threads, shared_names,
                                   grid_writers, grid_readers)

        for bid in cfg.block_ids():
            self.shared[bid] = {name: {} for name in self.info.shared_arrays}
            mem = self.memory(bid)
            threads = [self.thread(bid, tid, mem) for tid in tids]
            if body is None or body[1] == _PLAIN:
                # No barrier: every thread runs to its end in one round.
                run = _run(body)
                for th in threads:
                    run(th)
                end_round(bid, threads)
                self.result.rounds += 1
                continue
            run_gen = _gen(body)
            alive = [(th, run_gen(th)) for th in threads]
            while alive:
                waiting = []  # the threads that stopped at a barrier
                for th, gen in alive:
                    th.reads.clear()
                    th.writes.clear()
                    if next(gen, _FINISHED) is not _FINISHED:
                        waiting.append((th, gen))
                end_round(bid, [t for t, _ in alive])
                if 0 < len(waiting) < len(alive):
                    raise InterpError(
                        f"barrier divergence in block {bid}: some threads "
                        "reached a barrier others never will")
                self.result.rounds += 1
                alive = waiting
        return self.result

    def _track_global(self, bid: tuple[int, int], threads: list[_Thread],
                      shared_names: frozenset[str], grid_writers: dict,
                      grid_readers: dict) -> None:
        """Record global-array accesses grid-wide and flag cross-block
        conflicts (blocks are unordered, so intervals don't protect them)."""
        races = self.result.races
        for th in threads:
            for cell in th.writes:
                if cell[0] in shared_names:
                    continue
                prev = grid_writers.get(cell)
                if prev is not None and prev[0] != bid:
                    races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="write-write",
                        block=bid, threads=(prev[1], th.tid)))
                prev_r = grid_readers.get(cell)
                if prev_r is not None and prev_r[0] != bid:
                    races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="read-write",
                        block=bid, threads=(prev_r[1], th.tid)))
                grid_writers[cell] = (bid, th.tid)
            for cell in th.reads:
                if cell[0] in shared_names:
                    continue
                prev = grid_writers.get(cell)
                if prev is not None and prev[0] != bid:
                    races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="read-write",
                        block=bid, threads=(prev[1], th.tid)))
                grid_readers[cell] = (bid, th.tid)

    def _detect_races(self, bid: tuple[int, int],
                      threads: list[_Thread]) -> None:
        races = self.result.races
        writers: dict[tuple[str, int], tuple[int, ...]] = {}
        for th in threads:
            for cell in th.writes:
                other = writers.get(cell)
                if other is not None and other != th.tid:
                    races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="write-write",
                        block=bid, threads=(other, th.tid)))
                writers[cell] = th.tid
        if not writers:
            return
        # A read by a different thread than a cell's last writer conflicts;
        # the first such reader in thread order is reported.  Each thread
        # reads a cell at most once per interval, so that reader is one of
        # the cell's first two readers.
        readers: dict[tuple[str, int], list[tuple[int, ...]]] = {}
        for th in threads:
            for cell in th.reads:
                if cell in writers:
                    first = readers.get(cell)
                    if first is None:
                        readers[cell] = [th.tid]
                    elif len(first) == 1:
                        first.append(th.tid)
        for cell, writer in writers.items():
            for reader in readers.get(cell, ()):
                if reader != writer:
                    races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="read-write",
                        block=bid, threads=(writer, reader)))
                    break


def run_kernel(kernel: Kernel | KernelInfo, config: LaunchConfig,
               inputs: Mapping[str, object] | None = None,
               check_races: bool = True,
               loop_limit: int = 1_000_000,
               shared_fill=None) -> ExecResult:
    """Execute ``kernel`` concretely under the canonical schedule.

    ``inputs`` supplies scalar parameters (ints) and global array contents
    (dict index->value, or a sequence).  Missing arrays default to all-zero.
    ``shared_fill(name, flat) -> int`` supplies values for *uninitialized*
    shared-memory reads (default: zero), modelling the arbitrary contents of
    real shared memory.
    Returns the final state; races and assert failures are *recorded*, not
    raised (callers decide severity), while structural faults — barrier
    divergence, out-of-bounds shared accesses, violated ``assume`` —
    raise :class:`~repro.errors.InterpError`.
    """
    info = kernel if isinstance(kernel, KernelInfo) else check_kernel(kernel)
    return CompiledKernel(info, config).run(inputs, check_races, loop_limit,
                                            shared_fill)


def _free_postcond_vars(info: KernelInfo, ghost: _Thread, cond: Expr) -> list[str]:
    out: list[str] = []

    def walk(e: Expr) -> None:
        if isinstance(e, Ident):
            if e.name not in ghost.locals and e.name in info.locals and \
                    e.name not in out:
                out.append(e.name)
        elif isinstance(e, Unary):
            walk(e.operand)
        elif isinstance(e, Binary):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Ternary):
            walk(e.cond), walk(e.then), walk(e.els)
        elif isinstance(e, Index):
            for i in e.indices:
                walk(i)
        elif isinstance(e, Call):
            for a in e.args:
                walk(a)

    walk(cond)
    return out


def check_postconditions(info: KernelInfo, result: ExecResult,
                         bounds: Mapping[str, range] | None = None,
                         loop_limit: int = 1_000_000) -> list[str]:
    """Evaluate all post-conditions (inline and in the ``spec`` block) over
    the final state of ``result``.

    Free (never-assigned) variables of a post-condition are universally
    quantified; ``bounds`` maps each to the finite range to enumerate
    (default ``range(2**width)`` — supply bounds for non-tiny widths).

    Returns a list of human-readable violation strings (empty = all hold).
    """
    program = CompiledKernel(info, result.config)
    ghost = _Interp(program, result, loop_limit).thread((0, 0), (0, 0, 0))

    violations: list[str] = []

    def check_one(pc: Postcond) -> None:
        free = _free_postcond_vars(info, ghost, pc.cond)
        ranges = []
        for name in free:
            if bounds and name in bounds:
                ranges.append(bounds[name])
            else:
                ranges.append(range(1 << result.config.width))
        holds = program.expression(pc.cond)
        for values in itertools.product(*ranges):
            for name, v in zip(free, values):
                ghost.locals[name] = v
            if not holds(ghost):
                binding = ", ".join(f"{n}={v}" for n, v in zip(free, values))
                violations.append(
                    f"line {pc.line}: postcondition fails"
                    + (f" at {binding}" if binding else ""))
                break
        for name in free:
            ghost.locals.pop(name, None)

    def run_spec_block(block: Block) -> None:
        for stmt in block.stmts:
            if isinstance(stmt, Postcond):
                check_one(stmt)
                continue
            for _ in _gen(program._compiler.stmt(stmt))(ghost):
                raise InterpError("barrier in spec code")

    # Inline postconds (top level of the kernel body).
    for pc in info.postconds:
        check_one(pc)
    if info.spec is not None:
        run_spec_block(info.spec.body)
    return violations
