"""The tree-walking interpreter the compiled one in ``repro.lang.interp``
replaced, kept verbatim as a test-only reference.

``test_interp_differential.py`` runs both on the same kernels, launches and
inputs and requires the same :class:`~repro.lang.interp.ExecResult`, or the
same :class:`~repro.errors.InterpError` text.  Each ``_Thread`` walks the AST
with an ``isinstance`` chain per node and is a generator that ``yield``s at
each ``__syncthreads()``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from repro.errors import InterpError
from repro.lang.ast import (
    Assert, Assign, Assume, Barrier, Binary, Block, Builtin, Call, Expr, For,
    Ident, If, Index, IntLit, Kernel, Postcond, Spec, Stmt, Ternary, Unary,
    VarDecl,
)
from repro.lang.interp import ExecResult, LaunchConfig, RaceReport
from repro.lang.typecheck import KernelInfo, check_kernel

__all__ = ["run_kernel", "check_postconditions"]


class _Thread:
    """Execution context of one thread (or of the ghost spec thread)."""

    def __init__(self, interp: "_Interp", bid: tuple[int, int],
                 tid: tuple[int, int, int]) -> None:
        self.interp = interp
        self.bid = bid
        self.tid = tid
        self.locals: dict[str, int] = {}
        self.reads: set[tuple[str, int]] = set()
        self.writes: set[tuple[str, int]] = set()

    # ---------------------------------------------------------------- values

    def builtin(self, b: Builtin) -> int:
        axis = "xyz".index(b.axis)
        if b.base == "tid":
            return self.tid[axis]
        if b.base == "bid":
            if axis == 2:
                raise InterpError("blockIdx has no z axis in this model")
            return self.bid[axis]
        if b.base == "bdim":
            return self.interp.config.bdim[axis]
        if b.base == "gdim":
            if axis == 2:
                raise InterpError("gridDim has no z axis in this model")
            return self.interp.config.gdim[axis]
        raise InterpError(f"unknown builtin {b.base}")  # pragma: no cover

    def eval(self, e: Expr) -> int:
        mask = self.interp.config.mask
        width = self.interp.config.width
        if isinstance(e, IntLit):
            return e.value & mask
        if isinstance(e, Ident):
            if e.name not in self.locals:
                raise InterpError(f"line {e.line}: read of uninitialized "
                                  f"variable {e.name!r}")
            return self.locals[e.name]
        if isinstance(e, Builtin):
            return self.builtin(e)
        if isinstance(e, Unary):
            v = self.eval(e.operand)
            if e.op == "-":
                return (-v) & mask
            if e.op == "~":
                return (~v) & mask
            return 0 if v else 1  # '!'
        if isinstance(e, Binary):
            return self.binary(e, mask, width)
        if isinstance(e, Ternary):
            return self.eval(e.then) if self.eval(e.cond) else self.eval(e.els)
        if isinstance(e, Index):
            return self.load(e)
        if isinstance(e, Call):
            a, b = (self.eval(x) for x in e.args)
            return max(a, b) if e.func == "max" else min(a, b)
        raise InterpError(f"cannot evaluate {type(e).__name__}")  # pragma: no cover

    def binary(self, e: Binary, mask: int, width: int) -> int:
        op = e.op
        if op == "&&":
            return 1 if (self.eval(e.left) and self.eval(e.right)) else 0
        if op == "||":
            return 1 if (self.eval(e.left) or self.eval(e.right)) else 0
        if op == "==>":
            return 1 if (not self.eval(e.left) or self.eval(e.right)) else 0
        a = self.eval(e.left)
        b = self.eval(e.right)
        if op == "+":
            return (a + b) & mask
        if op == "-":
            return (a - b) & mask
        if op == "*":
            return (a * b) & mask
        if op == "/":
            return mask if b == 0 else a // b  # SMT-LIB convention
        if op == "%":
            return a if b == 0 else a % b      # SMT-LIB convention
        if op == "<<":
            return 0 if b >= width else (a << b) & mask
        if op == ">>":
            return 0 if b >= width else a >> b
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 1 if a != b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        if op == ">=":
            return 1 if a >= b else 0
        raise InterpError(f"unknown operator {op!r}")  # pragma: no cover

    # ---------------------------------------------------------------- memory

    def flat_index(self, e: Index) -> tuple[str, int]:
        info = self.interp.info.arrays[e.base.name]
        idx = [self.eval(i) for i in e.indices]
        if info.dims:
            dims = self.interp.shared_dims(self.bid, info.name)
            flat = 0
            for v, d in zip(idx, dims):
                if v >= d:
                    raise InterpError(
                        f"line {e.line}: index {v} out of bounds {d} in "
                        f"{info.name}")
                flat = flat * d + v
            return info.name, flat
        return info.name, idx[0]

    def storage(self, name: str) -> dict[int, int]:
        if self.interp.info.arrays[name].shared:
            return self.interp.shared[self.bid][name]
        return self.interp.globals[name]

    def load(self, e: Index) -> int:
        name, flat = self.flat_index(e)
        self.reads.add((name, flat))
        storage = self.storage(name)
        if flat in storage:
            return storage[flat]
        if self.interp.info.arrays[name].shared:
            # Uninitialized shared memory holds arbitrary values on real
            # hardware; the fill lets counterexample replay probe that
            # nondeterminism (0 models a zeroed device).
            return self.interp.shared_fill(name, flat)
        return 0

    def store(self, e: Index, value: int) -> None:
        name, flat = self.flat_index(e)
        self.writes.add((name, flat))
        self.storage(name)[flat] = value

    # -------------------------------------------------------------- execution

    def run(self, block: Block) -> Iterator[None]:
        """Generator body: yields once per barrier."""
        yield from self.exec_block(block)

    def exec_block(self, block: Block) -> Iterator[None]:
        for stmt in block.stmts:
            yield from self.exec_stmt(stmt)

    def exec_stmt(self, stmt: Stmt) -> Iterator[None]:
        interp = self.interp
        if isinstance(stmt, Block):
            yield from self.exec_block(stmt)
        elif isinstance(stmt, VarDecl):
            if stmt.shared:
                return  # allocated by the block set-up
            if stmt.init is not None:
                self.locals[stmt.name] = self.eval(stmt.init)
            # uninitialized scalars stay unbound: reading one is an error
            # except in postconditions, where the caller binds them.
        elif isinstance(stmt, Assign):
            value = self.eval(stmt.value)
            if stmt.op is not None:
                old = self.eval(stmt.target)
                value = self.binary(
                    Binary(op=stmt.op, left=IntLit(value=old),
                           right=IntLit(value=value), line=stmt.line),
                    interp.config.mask, interp.config.width)
            if isinstance(stmt.target, Ident):
                self.locals[stmt.target.name] = value
            else:
                self.store(stmt.target, value)
        elif isinstance(stmt, Barrier):
            yield
        elif isinstance(stmt, If):
            if self.eval(stmt.cond):
                yield from self.exec_block(stmt.then)
            elif stmt.els is not None:
                yield from self.exec_block(stmt.els)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                yield from self.exec_stmt(stmt.init)
            guard = 0
            while stmt.cond is None or self.eval(stmt.cond):
                yield from self.exec_block(stmt.body)
                if stmt.step is not None:
                    yield from self.exec_stmt(stmt.step)
                guard += 1
                if guard > interp.loop_limit:
                    raise InterpError(
                        f"line {stmt.line}: loop exceeded "
                        f"{interp.loop_limit} iterations")
        elif isinstance(stmt, Assume):
            if not self.eval(stmt.cond):
                raise InterpError(
                    f"line {stmt.line}: assumption violated by this "
                    "configuration/input")
        elif isinstance(stmt, Assert):
            if not self.eval(stmt.cond):
                interp.result.assertion_failures.append(
                    f"line {stmt.line}: assert failed in thread {self.tid} "
                    f"of block {self.bid}")
        elif isinstance(stmt, Postcond):
            return  # checked separately over the final state
        elif isinstance(stmt, Spec):
            return  # executed by check_postconditions
        else:  # pragma: no cover
            raise InterpError(f"unknown statement {type(stmt).__name__}")


def _zero_fill(name: str, flat: int) -> int:
    return 0


class _Interp:
    def __init__(self, info: KernelInfo, config: LaunchConfig,
                 inputs: Mapping[str, object], loop_limit: int,
                 shared_fill=None) -> None:
        self.info = info
        self.config = config
        self.loop_limit = loop_limit
        self.shared_fill = shared_fill or _zero_fill
        self.globals: dict[str, dict[int, int]] = {}
        for name in info.global_arrays:
            raw = inputs.get(name, {})
            if isinstance(raw, dict):
                content = {int(k): int(v) & config.mask for k, v in raw.items()}
            else:
                content = {i: int(v) & config.mask for i, v in enumerate(raw)}
            self.globals[name] = content
        self.scalars: dict[str, int] = {}
        for name in info.scalar_params:
            if name not in inputs:
                raise InterpError(f"missing scalar input {name!r}")
            self.scalars[name] = int(inputs[name]) & config.mask  # type: ignore[arg-type]
        self.shared: dict[tuple[int, int], dict[str, dict[int, int]]] = {}
        self._dims_cache: dict[str, tuple[int, ...]] = {}
        self.result = ExecResult(config=config, globals=self.globals,
                                 shared=self.shared, scalars=self.scalars)

    def shared_dims(self, bid: tuple[int, int], name: str) -> tuple[int, ...]:
        dims = self._dims_cache.get(name)
        if dims is None:
            probe = _Thread(self, bid, (0, 0, 0))
            arr = self.info.arrays[name]
            dims = tuple(probe.eval(d) for d in arr.dims)
            self._dims_cache[name] = dims
        return dims

    def run(self, check_races: bool) -> ExecResult:
        cfg = self.config
        # Grid-level tracking: CUDA blocks are unordered, so any write-write
        # or read-write overlap on a *global* cell between different blocks
        # is a race regardless of barrier intervals.
        grid_writers: dict[tuple[str, int], tuple[tuple[int, int],
                                                  tuple[int, ...]]] = {}
        grid_readers: dict[tuple[str, int], tuple[tuple[int, int],
                                                  tuple[int, ...]]] = {}
        for bid in cfg.block_ids():
            self.shared[bid] = {name: {} for name in self.info.shared_arrays}
            threads = []
            for tid in cfg.thread_ids():
                th = _Thread(self, bid, tid)
                th.locals.update(self.scalars)
                threads.append((th, th.run(self.info.kernel.body)))
            alive = list(threads)
            while alive:
                statuses = []
                for th, gen in alive:
                    th.reads.clear()
                    th.writes.clear()
                    try:
                        next(gen)
                        statuses.append(True)
                    except StopIteration:
                        statuses.append(False)
                if check_races:
                    self._detect_races(bid, [t for t, _ in alive])
                    self._track_global(bid, [t for t, _ in alive],
                                       grid_writers, grid_readers)
                if any(statuses) and not all(statuses):
                    raise InterpError(
                        f"barrier divergence in block {bid}: some threads "
                        "reached a barrier others never will")
                self.result.rounds += 1
                alive = [tg for tg, s in zip(alive, statuses) if s]
        return self.result

    def _track_global(self, bid: tuple[int, int], threads: list["_Thread"],
                      grid_writers: dict, grid_readers: dict) -> None:
        """Record global-array accesses grid-wide and flag cross-block
        conflicts (blocks are unordered, so intervals don't protect them)."""
        for th in threads:
            for cell in th.writes:
                if self.info.arrays[cell[0]].shared:
                    continue
                prev = grid_writers.get(cell)
                if prev is not None and prev[0] != bid:
                    self.result.races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="write-write",
                        block=bid, threads=(prev[1], th.tid)))
                prev_r = grid_readers.get(cell)
                if prev_r is not None and prev_r[0] != bid:
                    self.result.races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="read-write",
                        block=bid, threads=(prev_r[1], th.tid)))
                grid_writers[cell] = (bid, th.tid)
            for cell in th.reads:
                if self.info.arrays[cell[0]].shared:
                    continue
                prev = grid_writers.get(cell)
                if prev is not None and prev[0] != bid:
                    self.result.races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="read-write",
                        block=bid, threads=(prev[1], th.tid)))
                grid_readers[cell] = (bid, th.tid)

    def _detect_races(self, bid: tuple[int, int],
                      threads: list[_Thread]) -> None:
        writers: dict[tuple[str, int], tuple[int, ...]] = {}
        readers: dict[tuple[str, int], tuple[int, ...]] = {}
        for th in threads:
            for cell in th.writes:
                other = writers.get(cell)
                if other is not None and other != th.tid:
                    self.result.races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="write-write",
                        block=bid, threads=(other, th.tid)))
                writers[cell] = th.tid
            for cell in th.reads:
                readers.setdefault(cell, th.tid)
        for cell, writer in writers.items():
            # A read by a different thread in the same interval conflicts.
            for th in threads:
                if cell in th.reads and th.tid != writer:
                    self.result.races.append(RaceReport(
                        array=cell[0], index=cell[1], kind="read-write",
                        block=bid, threads=(writer, th.tid)))
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
    interp = _Interp(info, config, inputs or {}, loop_limit, shared_fill)
    return interp.run(check_races)


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
    interp = _Interp.__new__(_Interp)
    interp.info = info
    interp.shared_fill = _zero_fill
    interp.config = result.config
    interp.loop_limit = loop_limit
    interp.globals = result.globals
    interp.shared = result.shared
    interp.scalars = result.scalars
    interp._dims_cache = {}
    interp.result = result

    ghost = _Thread(interp, (0, 0), (0, 0, 0))
    ghost.locals.update(result.scalars)

    violations: list[str] = []

    def check_one(pc: Postcond) -> None:
        free = _free_postcond_vars(info, ghost, pc.cond)
        ranges = []
        for name in free:
            if bounds and name in bounds:
                ranges.append(bounds[name])
            else:
                ranges.append(range(1 << result.config.width))
        for values in itertools.product(*ranges):
            for name, v in zip(free, values):
                ghost.locals[name] = v
            if not ghost.eval(pc.cond):
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
            else:
                for _ in ghost.exec_stmt(stmt):
                    raise InterpError("barrier in spec code")

    # Inline postconds (top level of the kernel body).
    for pc in info.postconds:
        check_one(pc)
    if info.spec is not None:
        run_spec_block(info.spec.body)
    return violations
