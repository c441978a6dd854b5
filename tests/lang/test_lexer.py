"""Unit tests for the DSL tokenizer."""

import pytest

from repro.errors import ParseError
from repro.lang import tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind != "eof"]


def test_identifiers_and_keywords():
    assert kinds("int xIndex __shared__") == [
        ("kw", "int"), ("ident", "xIndex"), ("kw", "__shared__")]


def test_numbers():
    assert kinds("0 42 0x1F") == [("int", "0"), ("int", "42"), ("int", "0x1F")]


def test_float_literal_rejected():
    with pytest.raises(ParseError):
        tokenize("1.5")


def test_malformed_hex_rejected():
    with pytest.raises(ParseError):
        tokenize("0x")


def test_operators_longest_match():
    assert kinds("a==>b") == [("ident", "a"), ("op", "==>"), ("ident", "b")]
    assert kinds("a==b") == [("ident", "a"), ("op", "=="), ("ident", "b")]
    assert kinds("k>>=1") == [("ident", "k"), ("op", ">>="), ("int", "1")]
    assert kinds("a>>b") == [("ident", "a"), ("op", ">>"), ("ident", "b")]
    assert kinds("i++") == [("ident", "i"), ("op", "++")]


def test_line_comments():
    assert kinds("a // comment with * tokens\nb") == [
        ("ident", "a"), ("ident", "b")]


def test_block_comments_track_lines():
    toks = tokenize("a /* multi\nline */ b")
    b = [t for t in toks if t.text == "b"][0]
    assert b.line == 2


def test_unterminated_block_comment():
    with pytest.raises(ParseError):
        tokenize("/* never ends")


def test_unexpected_character():
    with pytest.raises(ParseError) as e:
        tokenize("a @ b")
    assert "@" in str(e.value)


def test_positions():
    toks = tokenize("ab\n  cd")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def spans(src):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]


def error_of(src):
    with pytest.raises(ParseError) as e:
        tokenize(src)
    return str(e.value), e.value.line, e.value.col


class TestExactPositions:
    """Token positions and error messages, pinned exactly."""

    def test_block_comment_across_lines(self):
        assert spans("a /* x\n yy */ b") == [
            ("ident", "a", 1, 1), ("ident", "b", 2, 8), ("eof", "", 2, 9)]
        assert spans("/* c */ d") == [
            ("ident", "d", 1, 9), ("eof", "", 1, 10)]

    def test_line_comment_does_not_advance_the_column(self):
        assert spans("x // hi") == [("ident", "x", 1, 1), ("eof", "", 1, 3)]

    def test_hex(self):
        assert spans("0x1F 0X2a") == [
            ("int", "0x1F", 1, 1), ("int", "0X2a", 1, 6), ("eof", "", 1, 10)]
        assert spans("12abc 0x1.5") == [
            ("int", "12", 1, 1), ("ident", "abc", 1, 3), ("int", "0x1", 1, 7),
            ("op", ".", 1, 10), ("int", "5", 1, 11), ("eof", "", 1, 12)]

    def test_longest_operators(self):
        assert spans("a==>b<<=c") == [
            ("ident", "a", 1, 1), ("op", "==>", 1, 2), ("ident", "b", 1, 5),
            ("op", "<<=", 1, 6), ("ident", "c", 1, 9), ("eof", "", 1, 10)]

    def test_whitespace(self):
        assert spans("a\r\nb\tc") == [
            ("ident", "a", 1, 1), ("ident", "b", 2, 1), ("ident", "c", 2, 3),
            ("eof", "", 2, 4)]

    def test_float_literal_error(self):
        assert error_of("\n  1.5") == (
            "2:3: floating-point literals are not supported", 2, 3)

    def test_malformed_hex_error(self):
        assert error_of("0xg") == ("1:1: malformed hex literal", 1, 1)

    def test_unterminated_comment_error(self):
        assert error_of("a\n /* never") == (
            "2:2: unterminated block comment", 2, 2)

    def test_bad_character_error(self):
        assert error_of("a\n\t @") == (
            "2:3: unexpected character '@'", 2, 3)
        assert error_of("a\fb") == ("1:2: unexpected character '\\x0c'", 1, 2)

    def test_token_fields(self):
        tok = tokenize("ab")[0]
        assert (tok.kind, tok.text, tok.line, tok.col) == ("ident", "ab", 1, 1)
        assert repr(tok) == "Token(ident 'ab' @1:1)"


def test_suite_kernel_tokens_sit_at_their_positions():
    """Every token of every bundled kernel starts at its (line, col)."""
    from repro.kernels import KERNELS
    for name, kernel in KERNELS.items():
        lines = kernel.source.split("\n")
        for t in tokenize(kernel.source)[:-1]:
            assert lines[t.line - 1][t.col - 1:].startswith(t.text), (name, t)
