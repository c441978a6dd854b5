"""Systematic bug injection for Table III's "buggy versions".

The paper describes the injected defects as "modifying the addresses of
accesses on shared variables or the guards of conditional statements".  This
module enumerates exactly those two mutation classes over a kernel AST:

* **address mutations** — add 1 to one subscript of one array access
  (write target or read operand) in compute code;
* **guard mutations** — weaken/strengthen one comparison inside one ``if``
  guard (``<`` -> ``<=``), or flip a conjunction to a disjunction.

A third class feeds the race checker's oracle rather than Table III:

* **barrier mutations** — delete one ``__syncthreads()``.

Mutations never touch ``spec`` blocks, ``postcond``/``assume`` statements, or
loop headers, so the specification stays fixed while the implementation
breaks — the setup equivalence checking is meant to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

from ..lang.ast import (
    Assert, Assign, Assume, Barrier, Binary, Block, Expr, For, If, Index,
    IntLit, Kernel, Postcond, Spec, Stmt, Ternary, Unary, Call,
)

__all__ = ["Mutant", "address_mutants", "guard_mutants", "barrier_mutants",
           "all_mutants"]


@dataclass(frozen=True)
class Mutant:
    """One injected bug: the mutated kernel plus a human-readable label."""
    label: str
    description: str
    kernel: Kernel


# --------------------------------------------------------------- primitives


def _map_expr(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``fn`` at every node."""
    if isinstance(e, Unary):
        e = replace(e, operand=_map_expr(e.operand, fn))
    elif isinstance(e, Binary):
        e = replace(e, left=_map_expr(e.left, fn), right=_map_expr(e.right, fn))
    elif isinstance(e, Ternary):
        e = replace(e, cond=_map_expr(e.cond, fn), then=_map_expr(e.then, fn),
                    els=_map_expr(e.els, fn))
    elif isinstance(e, Index):
        e = replace(e, indices=tuple(_map_expr(i, fn) for i in e.indices))
    elif isinstance(e, Call):
        e = replace(e, args=tuple(_map_expr(a, fn) for a in e.args))
    return fn(e)


def _map_stmts(s: Stmt, fn: Callable[[Stmt], Stmt]) -> Stmt:
    """Rebuild a statement tree bottom-up, applying ``fn`` at every
    statement.  ``spec`` blocks are left untouched (the spec is the oracle)."""
    if isinstance(s, Block):
        s = replace(s, stmts=tuple(_map_stmts(x, fn) for x in s.stmts))
    elif isinstance(s, If):
        s = replace(s, then=_map_stmts(s.then, fn),
                    els=_map_stmts(s.els, fn) if s.els else None)
    elif isinstance(s, For):
        s = replace(s, body=_map_stmts(s.body, fn))
    elif isinstance(s, Spec):
        return s
    return fn(s)


class _SiteCounter:
    """Shared enumeration helper: apply a change only at site #target."""

    def __init__(self, target: int | None) -> None:
        self.target = target
        self.count = 0

    def fire(self) -> bool:
        mine = self.count == self.target
        self.count += 1
        return mine


# --------------------------------------------------------- address mutations


def _mutate_one_address(kernel: Kernel, target: int | None) -> tuple[Kernel, int, str]:
    counter = _SiteCounter(target)
    description = ""

    def bump_index(idx: Expr) -> Expr:
        return Binary(op="+", left=idx, right=IntLit(value=1, line=idx.line),
                      line=idx.line)

    def on_expr(e: Expr) -> Expr:
        nonlocal description
        if isinstance(e, Index) and counter.fire():
            description = (f"line {e.line}: off-by-one on a subscript of "
                           f"{e.base.name!r}")
            new_indices = (*e.indices[:-1], bump_index(e.indices[-1]))
            return replace(e, indices=new_indices)
        return e

    def on_stmt(s: Stmt) -> Stmt:
        if isinstance(s, Assign):
            # mutate the write target and read operands, not spec constructs
            return replace(s, target=_map_expr(s.target, on_expr),
                           value=_map_expr(s.value, on_expr))
        return s

    body = _map_stmts(kernel.body, on_stmt)
    return replace(kernel, body=body), counter.count, description


def address_mutants(kernel: Kernel) -> Iterator[Mutant]:
    """All single-site address mutations of ``kernel``."""
    _, total, _ = _mutate_one_address(kernel, None)
    for site in range(total):
        mutated, _, desc = _mutate_one_address(kernel, site)
        yield Mutant(label=f"addr{site}", description=desc, kernel=mutated)


# ----------------------------------------------------------- guard mutations


def _mutate_one_guard(kernel: Kernel, target: int | None,
                      kind: str) -> tuple[Kernel, int, str]:
    counter = _SiteCounter(target)
    description = ""

    def on_guard(e: Expr) -> Expr:
        nonlocal description
        if kind == "cmp" and isinstance(e, Binary) and e.op == "<" \
                and counter.fire():
            description = f"line {e.line}: guard comparison '<' -> '<='"
            return replace(e, op="<=")
        if kind == "conn" and isinstance(e, Binary) and e.op == "&&" \
                and counter.fire():
            description = f"line {e.line}: guard connective '&&' -> '||'"
            return replace(e, op="||")
        return e

    def on_stmt(s: Stmt) -> Stmt:
        if isinstance(s, If):
            return replace(s, cond=_map_expr(s.cond, on_guard))
        return s

    body = _map_stmts(kernel.body, on_stmt)
    return replace(kernel, body=body), counter.count, description


def guard_mutants(kernel: Kernel) -> Iterator[Mutant]:
    """All single-site guard mutations of ``kernel``."""
    for kind in ("cmp", "conn"):
        _, total, _ = _mutate_one_guard(kernel, None, kind)
        for site in range(total):
            mutated, _, desc = _mutate_one_guard(kernel, site, kind)
            yield Mutant(label=f"guard-{kind}{site}", description=desc,
                         kernel=mutated)


# --------------------------------------------------------- barrier mutations


def _delete_one_barrier(kernel: Kernel,
                        target: int | None) -> tuple[Kernel, int, str]:
    counter = _SiteCounter(target)
    description = ""

    def on_stmt(s: Stmt) -> Stmt:
        nonlocal description
        if not isinstance(s, Block):
            return s
        kept = []
        for child in s.stmts:
            if isinstance(child, Barrier) and counter.fire():
                description = f"line {child.line}: __syncthreads() deleted"
                continue
            kept.append(child)
        return replace(s, stmts=tuple(kept))

    body = _map_stmts(kernel.body, on_stmt)
    return replace(kernel, body=body), counter.count, description


def barrier_mutants(kernel: Kernel) -> Iterator[Mutant]:
    """One mutant per ``__syncthreads()``, with that barrier deleted."""
    _, total, _ = _delete_one_barrier(kernel, None)
    for site in range(total):
        mutated, _, desc = _delete_one_barrier(kernel, site)
        yield Mutant(label=f"barrier{site}", description=desc,
                     kernel=mutated)


def all_mutants(kernel: Kernel) -> list[Mutant]:
    """Every mutation of both classes, in a stable order."""
    return [*address_mutants(kernel), *guard_mutants(kernel)]
