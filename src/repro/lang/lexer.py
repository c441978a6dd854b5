"""Tokenizer for the mini-CUDA kernel DSL."""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "__global__", "__shared__", "__device__", "void", "int", "unsigned",
    "float", "if", "else", "for", "while", "return", "assume", "assert",
    "postcond", "spec", "min", "max",
}

# Longest-match-first operator table.
_OPERATORS = [
    "==>", "<<=", ">>=",
    "&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

# One alternative per lexeme class, tried in order at each position; the
# operators keep their longest-first order, and ``bad`` catches the rest.
_LEXEME = re.compile("|".join([
    r"(?P<space>[ \t\r]+)",
    r"(?P<newline>\n)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<block>/\*[\s\S]*?\*/)",
    r"(?P<open>/\*)",
    r"(?P<hex>0[xX][0-9a-fA-F]*)",
    r"(?P<dec>\d+\.?)",
    r"(?P<word>[^\W\d]\w*)",
    "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
    r"(?P<bad>[\s\S])",
]))


class Token(NamedTuple):
    kind: str          # 'int', 'ident', 'kw', 'op', 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind} {self.text!r} @{self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    """Tokenize DSL source.  Supports ``//`` and ``/* */`` comments, decimal
    and hex integer literals, identifiers, keywords, and the operator set."""
    tokens: list[Token] = []
    append = tokens.append
    line, col = 1, 1
    for m in _LEXEME.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "space":
            col += len(text)
            continue
        if kind == "newline":
            line += 1
            col = 1
            continue
        if kind == "comment":
            continue  # the newline that ends it resets the column
        if kind == "block":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            continue
        if kind == "word":
            append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
        elif kind == "op":
            append(Token("op", text, line, col))
        elif kind == "dec":
            # reject float literals explicitly (unsupported, like the paper)
            if text[-1] == ".":
                raise ParseError("floating-point literals are not supported",
                                 line, col)
            append(Token("int", text, line, col))
        elif kind == "hex":
            if len(text) == 2:
                raise ParseError("malformed hex literal", line, col)
            append(Token("int", text, line, col))
        elif kind == "open":
            raise ParseError("unterminated block comment", line, col)
        else:
            raise ParseError(f"unexpected character {text!r}", line, col)
        col += len(text)
    append(Token("eof", "", line, col))
    return tokens
