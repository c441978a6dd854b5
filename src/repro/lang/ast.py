"""Abstract syntax tree for the mini-CUDA kernel DSL.

The DSL covers exactly the CUDA-C subset the paper's tool analyzes: scalar
and array (global-pointer / ``__shared__``) declarations, assignments
(including compound ``+=`` and ``++``), ``if``/``else``, ``for`` loops,
``__syncthreads()``, and the specification constructs ``assume``/``assert``/
``postcond``/``spec`` (Section III-A's assertion language, which permits
loops and recursion in post-conditions).

Widths are *not* fixed in the AST: the paper evaluates the same kernels at
8/12/16/32-bit precision, so the bit-width is a parameter of encoding and
interpretation, not of the program text.  All arithmetic is unsigned, which
matches the index arithmetic of the SDK kernels under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "Node", "Expr", "Stmt",
    "IntLit", "Ident", "Builtin", "Unary", "Binary", "Ternary", "Index", "Call",
    "VarDecl", "Assign", "Barrier", "If", "For", "Block", "Assume", "Assert",
    "Postcond", "Spec", "Param", "Kernel",
    "BUILTIN_BASES", "BINARY_OPS", "UNARY_OPS", "COMPARISONS", "BOOL_OPS",
]

# Thread-geometry builtins, with their CUDA long forms accepted as aliases.
BUILTIN_BASES = {
    "tid": "tid", "threadIdx": "tid",
    "bid": "bid", "blockIdx": "bid",
    "bdim": "bdim", "blockDim": "bdim",
    "gdim": "gdim", "gridDim": "gdim",
}

BINARY_OPS = {"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"}
COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}
BOOL_OPS = {"&&", "||", "==>"}
UNARY_OPS = {"-", "!", "~"}


@dataclass(frozen=True)
class Node:
    """Base class; ``line`` supports error reporting throughout the stack."""
    line: int = field(default=0, compare=False, kw_only=True)


# --------------------------------------------------------------- expressions


class Expr(Node):
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class Builtin(Expr):
    """A thread-geometry builtin like ``tid.x`` (base normalized to the short
    form, axis in {'x','y','z'})."""
    base: str
    axis: str

    def __str__(self) -> str:
        return f"{self.base}.{self.axis}"


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    """Arithmetic, comparison, or boolean binary operation.

    ``==>`` is boolean implication — used in post-conditions, mirroring the
    paper's ``=>`` notation.
    """
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    els: Expr


@dataclass(frozen=True)
class Index(Expr):
    """``base[i0][i1]...`` — multi-dimensional indexing kept as a tuple so the
    parameterized encoder can match addresses componentwise (Section IV-B)."""
    base: Ident
    indices: tuple[Expr, ...]


@dataclass(frozen=True)
class Call(Expr):
    """Intrinsic calls; only ``min``/``max`` are supported in expressions."""
    func: str
    args: tuple[Expr, ...]


# ---------------------------------------------------------------- statements


class Stmt(Node):
    pass


@dataclass(frozen=True)
class VarDecl(Stmt):
    """``int x = e;`` or array declaration ``__shared__ int b[d0][d1];``.

    ``shared`` marks block-shared memory; parameters use :class:`Param`
    instead.  A scalar declaration without initializer introduces an
    unconstrained (symbolic) value — exactly how the paper's post-conditions
    universally quantify (``int i, j; postcond(i < width && ... )``).
    """
    name: str
    dims: tuple[Expr, ...] = ()
    init: Optional[Expr] = None
    shared: bool = False


@dataclass(frozen=True)
class Assign(Stmt):
    """``target = value``, where target is an identifier or array index.

    ``op`` holds the compound-assignment operator ("+" for ``+=`` etc.) or
    ``None`` for plain assignment.  ``x++`` parses as ``x += 1``.
    """
    target: Expr
    value: Expr
    op: Optional[str] = None


@dataclass(frozen=True)
class Barrier(Stmt):
    """``__syncthreads();`` — the boundary between barrier intervals."""


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: "Block"
    els: Optional["Block"] = None


@dataclass(frozen=True)
class For(Stmt):
    """``for (init; cond; step) body``.

    ``init``/``step`` are restricted to assignments or declarations, as in
    the paper's kernels (e.g. ``for (k = bdim.x/2; k > 0; k >>= 1)``).
    """
    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Stmt]
    body: "Block"


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...]

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.stmts)


@dataclass(frozen=True)
class Assume(Stmt):
    """``assume(e);`` — constrain configurations/inputs (e.g. square blocks)."""
    cond: Expr


@dataclass(frozen=True)
class Assert(Stmt):
    """``assert(e);`` — a thread-local assertion checked for every thread."""
    cond: Expr


@dataclass(frozen=True)
class Postcond(Stmt):
    """``postcond(e);`` — a functional-correctness obligation over the final
    state.  Free (uninitialized) scalar variables in ``e`` are universally
    quantified, following the paper's transpose example."""
    cond: Expr


@dataclass(frozen=True)
class Spec(Stmt):
    """``spec { ... }`` — ghost code evaluated after all threads finish.

    The paper's assertion language "allows the definition of loops, handling
    recursive properties" — e.g. summing the input array to specify a
    reduction kernel.  Ghost code runs single-threaded over the final state
    and may declare ghost variables; its ``postcond`` statements are the
    obligations.
    """
    body: Block


# ------------------------------------------------------------------- kernels


@dataclass(frozen=True)
class Param(Node):
    """A kernel parameter: pointer parameters are global arrays, scalar
    parameters are symbolic inputs."""
    name: str
    is_pointer: bool


@dataclass(frozen=True)
class Kernel(Node):
    """A parsed kernel: ``__global__ void name(params) { body }``."""
    name: str
    params: tuple[Param, ...]
    body: Block

    def scalar_params(self) -> list[Param]:
        return [p for p in self.params if not p.is_pointer]
