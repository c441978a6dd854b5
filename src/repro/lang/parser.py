"""Recursive-descent parser for the mini-CUDA kernel DSL.

Grammar (informally)::

    kernel    := ['__global__'] 'void' IDENT '(' params ')' block
    param     := type '*'? IDENT ('[' ']')?
    stmt      := decl | assign ';' | if | for | barrier | spec
               | ('assume'|'assert'|'postcond') '(' expr ')' ';' | block
    decl      := ['__shared__'] type declarator (',' declarator)* ';'
    declarator:= IDENT ('[' expr ']')* ('=' expr)?
    assign    := target ('='|'+='|...) expr | target '++' | target '--'
    expr      := precedence-climbing over
                 ==>  ?:  ||  &&  |  ^  &  ==/!=  </<=/>/>=  <</>>  +/-  */ /%
                 with unary - ! ~ and postfix indexing

Types are erased at parse time (everything is an unsigned machine word of a
width chosen at encoding time), matching the paper's experiments which run
the same kernel at 8/12/16/32 bits.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from .ast import (
    Assert, Assign, Assume, Barrier, Binary, Block, Builtin, BUILTIN_BASES,
    Call, Expr, For, Ident, If, Index, IntLit, Kernel, Param, Postcond, Spec,
    Stmt, Ternary, Unary, VarDecl,
)
from .lexer import Token, tokenize

__all__ = ["parse_kernel", "parse_kernels", "parse_expr"]

_TYPE_KEYWORDS = {"int", "unsigned", "float", "void"}
_COMPOUND_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                 "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}


class _Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # ------------------------------------------------------------- utilities

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> ParseError:
        t = self.cur
        return ParseError(f"{message} (found {t.text!r})", t.line, t.col)

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            raise self.error(f"expected {text or kind}")
        return self.advance()

    # --------------------------------------------------------------- kernels

    def parse_kernels(self) -> list[Kernel]:
        kernels = []
        while not self.at("eof"):
            kernels.append(self.parse_kernel())
        return kernels

    def parse_kernel(self) -> Kernel:
        line = self.cur.line
        self.accept("kw", "__global__")
        self.expect("kw", "void")
        name = self.expect("ident").text
        self.expect("op", "(")
        params: list[Param] = []
        if not self.at("op", ")"):
            while True:
                params.append(self._param())
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        body = self._block()
        return Kernel(name=name, params=tuple(params), body=body, line=line)

    def _type(self) -> None:
        """Consume a (possibly multi-keyword) type; types are erased."""
        if not (self.cur.kind == "kw" and self.cur.text in _TYPE_KEYWORDS):
            raise self.error("expected a type")
        first = self.advance().text
        if first == "unsigned":
            self.accept("kw", "int")

    def _param(self) -> Param:
        line = self.cur.line
        self._type()
        is_pointer = self.accept("op", "*") is not None
        name = self.expect("ident").text
        if self.accept("op", "["):  # `int data[]` pointer syntax
            self.expect("op", "]")
            is_pointer = True
        return Param(name=name, is_pointer=is_pointer, line=line)

    # ------------------------------------------------------------ statements

    def _block(self) -> Block:
        line = self.cur.line
        self.expect("op", "{")
        stmts: list[Stmt] = []
        while not self.at("op", "}"):
            stmts.append(self._stmt())
        self.expect("op", "}")
        return Block(stmts=tuple(stmts), line=line)

    def _stmt_as_block(self) -> Block:
        if self.at("op", "{"):
            return self._block()
        s = self._stmt()
        return Block(stmts=(s,), line=s.line)

    def _stmt(self) -> Stmt:
        line = self.cur.line
        if self.at("op", "{"):
            return self._block()
        if self.at("kw", "if"):
            return self._if()
        if self.at("kw", "for"):
            return self._for()
        if self.at("kw", "spec"):
            self.advance()
            return Spec(body=self._block(), line=line)
        for kw, node in (("assume", Assume), ("assert", Assert),
                         ("postcond", Postcond)):
            if self.at("kw", kw):
                self.advance()
                self.expect("op", "(")
                cond = self._expr()
                self.expect("op", ")")
                self.expect("op", ";")
                return node(cond=cond, line=line)
        if self.at("ident", "__syncthreads"):
            self.advance()
            self.expect("op", "(")
            self.expect("op", ")")
            self.expect("op", ";")
            return Barrier(line=line)
        if self.at("kw", "return"):
            self.advance()
            self.expect("op", ";")
            # `return;` ends a thread early only inside guarded code; the
            # supported kernels never rely on it, so it is a no-op block.
            return Block(stmts=(), line=line)
        if self.at("kw", "__shared__") or \
                (self.cur.kind == "kw" and self.cur.text in _TYPE_KEYWORDS):
            return self._decl()
        stmt = self._assign()
        self.expect("op", ";")
        return stmt

    def _if(self) -> If:
        line = self.expect("kw", "if").line
        self.expect("op", "(")
        cond = self._expr()
        self.expect("op", ")")
        then = self._stmt_as_block()
        els = None
        if self.accept("kw", "else"):
            els = self._stmt_as_block()
        return If(cond=cond, then=then, els=els, line=line)

    def _for(self) -> For:
        line = self.expect("kw", "for").line
        self.expect("op", "(")
        init: Optional[Stmt] = None
        if not self.at("op", ";"):
            if self.cur.kind == "kw" and self.cur.text in _TYPE_KEYWORDS:
                init = self._decl(single=True)
            else:
                init = self._assign()
                self.expect("op", ";")
        else:
            self.advance()
        cond = None if self.at("op", ";") else self._expr()
        self.expect("op", ";")
        step = None if self.at("op", ")") else self._assign()
        self.expect("op", ")")
        body = self._stmt_as_block()
        return For(init=init, cond=cond, step=step, body=body, line=line)

    def _decl(self, single: bool = False) -> Stmt:
        line = self.cur.line
        shared = self.accept("kw", "__shared__") is not None
        self._type()
        decls: list[Stmt] = []
        while True:
            dline = self.cur.line
            name = self.expect("ident").text
            dims: list[Expr] = []
            while self.accept("op", "["):
                dims.append(self._expr())
                self.expect("op", "]")
            init = None
            if self.accept("op", "="):
                init = self._expr()
            decls.append(VarDecl(name=name, dims=tuple(dims), init=init,
                                 shared=shared, line=dline))
            if single or not self.accept("op", ","):
                break
        self.expect("op", ";")
        if len(decls) == 1:
            return decls[0]
        return Block(stmts=tuple(decls), line=line)

    def _assign(self) -> Assign:
        line = self.cur.line
        target = self._postfix()
        if not isinstance(target, (Ident, Index)):
            raise self.error("assignment target must be a variable or element")
        if self.accept("op", "++"):
            return Assign(target=target, value=IntLit(value=1, line=line),
                          op="+", line=line)
        if self.accept("op", "--"):
            return Assign(target=target, value=IntLit(value=1, line=line),
                          op="-", line=line)
        t = self.cur
        if t.kind == "op" and t.text in _COMPOUND_OPS:
            self.advance()
            return Assign(target=target, value=self._expr(),
                          op=_COMPOUND_OPS[t.text], line=line)
        self.expect("op", "=")
        return Assign(target=target, value=self._expr(), op=None, line=line)

    # ----------------------------------------------------------- expressions

    def _expr(self) -> Expr:
        return self._implication()

    def _implication(self) -> Expr:
        left = self._ternary()
        if self.accept("op", "==>"):
            right = self._implication()  # right-associative
            return Binary(op="==>", left=left, right=right, line=left.line)
        return left

    def _ternary(self) -> Expr:
        cond = self._binary(0)
        if self.accept("op", "?"):
            then = self._expr()
            self.expect("op", ":")
            els = self._expr()
            return Ternary(cond=cond, then=then, els=els, line=cond.line)
        return cond

    _LEVELS = [
        ["||"], ["&&"], ["|"], ["^"], ["&"],
        ["==", "!="], ["<", "<=", ">", ">="],
        ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
    ]

    def _binary(self, level: int) -> Expr:
        if level == len(self._LEVELS):
            return self._unary()
        ops = self._LEVELS[level]
        left = self._binary(level + 1)
        while self.cur.kind == "op" and self.cur.text in ops:
            op = self.advance().text
            right = self._binary(level + 1)
            left = Binary(op=op, left=left, right=right, line=left.line)
        return left

    def _unary(self) -> Expr:
        t = self.cur
        if t.kind == "op" and t.text in ("-", "!", "~"):
            self.advance()
            return Unary(op=t.text, operand=self._unary(), line=t.line)
        return self._postfix()

    def _postfix(self) -> Expr:
        base = self._primary()
        indices: list[Expr] = []
        while self.at("op", "["):
            self.advance()
            indices.append(self._expr())
            self.expect("op", "]")
        if indices:
            if not isinstance(base, Ident):
                raise self.error("only named arrays can be indexed")
            return Index(base=base, indices=tuple(indices), line=base.line)
        return base

    def _primary(self) -> Expr:
        t = self.cur
        if t.kind == "int":
            self.advance()
            return IntLit(value=int(t.text, 0), line=t.line)
        if t.kind == "kw" and t.text in ("min", "max"):
            self.advance()
            self.expect("op", "(")
            args = [self._expr()]
            while self.accept("op", ","):
                args.append(self._expr())
            self.expect("op", ")")
            if len(args) != 2:
                raise self.error(f"{t.text} takes exactly two arguments")
            return Call(func=t.text, args=tuple(args), line=t.line)
        if t.kind == "ident":
            self.advance()
            if t.text in BUILTIN_BASES and self.at("op", "."):
                self.advance()
                axis = self.expect("ident").text
                if axis not in ("x", "y", "z"):
                    raise self.error("builtin axis must be x, y or z")
                return Builtin(base=BUILTIN_BASES[t.text], axis=axis, line=t.line)
            return Ident(name=t.text, line=t.line)
        if self.accept("op", "("):
            e = self._expr()
            self.expect("op", ")")
            return e
        raise self.error("expected an expression")


def parse_kernels(source: str) -> dict[str, Kernel]:
    """Parse a source file containing one or more kernels."""
    kernels = _Parser(source).parse_kernels()
    return {k.name: k for k in kernels}


def parse_kernel(source: str) -> Kernel:
    """Parse a source file that must contain exactly one kernel."""
    kernels = _Parser(source).parse_kernels()
    if len(kernels) != 1:
        raise ParseError(f"expected exactly one kernel, found {len(kernels)}")
    return kernels[0]


def parse_expr(source: str) -> Expr:
    """Parse a single expression (used by tests and the assertion language)."""
    p = _Parser(source)
    e = p._expr()
    p.expect("eof")
    return e
