"""Printing of terms: a compact infix form for diagnostics."""

from __future__ import annotations

from .terms import Kind, Term

__all__ = ["to_str"]

_INFIX = {
    Kind.AND: "&", Kind.OR: "|", Kind.XOR: "^", Kind.IMPLIES: "=>", Kind.EQ: "==",
    Kind.BVADD: "+", Kind.BVSUB: "-", Kind.BVMUL: "*", Kind.BVUDIV: "/",
    Kind.BVUREM: "%", Kind.BVAND: "&", Kind.BVOR: "|", Kind.BVXOR: "^",
    Kind.BVSHL: "<<", Kind.BVLSHR: ">>", Kind.BVASHR: ">>a",
    Kind.BVULT: "<", Kind.BVULE: "<=", Kind.BVSLT: "<s", Kind.BVSLE: "<=s",
}


def to_str(term: Term, max_depth: int = 12) -> str:
    """Human-oriented infix rendering (used by ``repr``)."""
    if max_depth <= 0:
        return "..."
    k = term.kind
    if k == Kind.TRUE:
        return "true"
    if k == Kind.FALSE:
        return "false"
    if k == Kind.BVCONST:
        return str(term.payload)
    if k == Kind.VAR:
        return term.payload
    if k == Kind.NOT:
        return f"!{to_str(term.args[0], max_depth - 1)}"
    if k == Kind.BVNOT:
        return f"~{to_str(term.args[0], max_depth - 1)}"
    if k in (Kind.BVNEG,):
        return f"-{to_str(term.args[0], max_depth - 1)}"
    if k == Kind.ITE:
        c, t, e = (to_str(a, max_depth - 1) for a in term.args)
        return f"ite({c}, {t}, {e})"
    if k == Kind.SELECT:
        a, i = (to_str(x, max_depth - 1) for x in term.args)
        return f"{a}[{i}]"
    if k == Kind.STORE:
        a, i, v = (to_str(x, max_depth - 1) for x in term.args)
        return f"{a}[{i} := {v}]"
    if k == Kind.EXTRACT:
        hi, lo = term.payload
        return f"{to_str(term.args[0], max_depth - 1)}[{hi}:{lo}]"
    if k == Kind.ZEXT:
        return f"zext({to_str(term.args[0], max_depth - 1)}, {term.payload})"
    if k == Kind.SEXT:
        return f"sext({to_str(term.args[0], max_depth - 1)}, {term.payload})"
    if k == Kind.CONCAT:
        return f"({to_str(term.args[0], max_depth-1)} ++ {to_str(term.args[1], max_depth-1)})"
    op = _INFIX.get(k)
    if op is not None:
        inner = f" {op} ".join(to_str(a, max_depth - 1) for a in term.args)
        return f"({inner})"
    return f"{k.name}({', '.join(to_str(a, max_depth - 1) for a in term.args)})"

