"""Tokenizer tests."""

import dataclasses

import pytest

from repro.clc.lexer import tokenize
from repro.clc.tokens import (EOF, FLOAT_LIT, IDENT, INT_LIT, KEYWORD,
                              PUNCT, Token)
from repro.errors import LexError


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == EOF

    def test_identifier(self):
        tok = tokenize("foo_bar42")[0]
        assert tok.kind == IDENT and tok.value == "foo_bar42"

    def test_keyword_recognised(self):
        assert tokenize("float")[0].kind == KEYWORD

    def test_underscore_prefixed_qualifier_is_keyword(self):
        assert tokenize("__global")[0].kind == KEYWORD

    def test_identifier_looking_like_keyword_prefix(self):
        tok = tokenize("floaty")[0]
        assert tok.kind == IDENT

    @pytest.mark.parametrize("punct", ["+", "-", "*", "/", "%", "==",
                                       "!=", "<=", ">=", "&&", "||",
                                       "<<", ">>", "+=", "-=", "*=",
                                       "/=", "++", "--", "<<=", ">>="])
    def test_punctuators(self, punct):
        tok = tokenize(punct)[0]
        assert tok.kind == PUNCT and tok.value == punct

    def test_greedy_punct_matching(self):
        # `<<=` must lex as one token, not `<<` `=`
        assert values("a <<= b") == ["a", "<<=", "b"]

    def test_plusplus_vs_plus(self):
        assert values("a+++b") == ["a", "++", "+", "b"]


class TestNumericLiterals:
    def test_decimal_int(self):
        tok = tokenize("12345")[0]
        assert tok.kind == INT_LIT and tok.parsed == 12345

    def test_hex_int(self):
        tok = tokenize("0xFF")[0]
        assert tok.kind == INT_LIT and tok.parsed == 255

    def test_unsigned_suffix(self):
        tok = tokenize("42u")[0]
        assert tok.parsed == 42 and "u" in tok.suffix

    def test_long_suffix(self):
        tok = tokenize("42L")[0]
        assert "l" in tok.suffix

    def test_ulong_suffix(self):
        tok = tokenize("42UL")[0]
        assert tok.suffix == "ul"

    def test_simple_float(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == FLOAT_LIT and tok.parsed == 3.25

    def test_float_f_suffix(self):
        tok = tokenize("1.5f")[0]
        assert tok.kind == FLOAT_LIT and tok.suffix == "f"

    def test_int_with_f_suffix_is_float(self):
        tok = tokenize("2f")[0]
        assert tok.kind == FLOAT_LIT and tok.parsed == 2.0

    def test_exponent(self):
        tok = tokenize("1e3")[0]
        assert tok.kind == FLOAT_LIT and tok.parsed == 1000.0

    def test_negative_exponent(self):
        tok = tokenize("2.5e-2")[0]
        assert tok.parsed == 0.025

    def test_float_starting_with_dot(self):
        tok = tokenize(".5")[0]
        assert tok.kind == FLOAT_LIT and tok.parsed == 0.5

    def test_trailing_dot(self):
        tok = tokenize("7.")[0]
        assert tok.kind == FLOAT_LIT and tok.parsed == 7.0

    def test_malformed_hex_raises(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_leading_zero_is_octal(self):
        assert [t.parsed for t in tokenize("0 00 07 0123 0123u")[:-1]] \
            == [0, 0, 7, 83, 83]

    def test_leading_zero_float_is_decimal(self):
        assert [t.parsed for t in tokenize("09.5 010e1 0.5")[:-1]] \
            == [9.5, 100.0, 0.5]

    @pytest.mark.parametrize("source,col", [("09", 2), ("x = 0129;", 8)])
    def test_octal_digit_8_or_9_raises_at_the_digit(self, source, col):
        with pytest.raises(LexError, match="octal") as info:
            tokenize(source)
        assert (info.value.line, info.value.col) == (1, col)


class TestCommentsAndPositions:
    def test_line_comment_skipped(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* b c */ d") == ["a", "d"]

    def test_multiline_block_comment(self):
        assert values("a /* x\ny\nz */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_line_numbers(self):
        toks = tokenize("a\nbb\n  c")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_column_numbers(self):
        toks = tokenize("ab cd")
        assert toks[0].col == 1 and toks[1].col == 4

    def test_lines_advance_through_comments(self):
        toks = tokenize("/* one\ntwo */ x")
        assert toks[0].line == 2

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_kernel_fragment(self):
        src = "__kernel void f(__global float* x) { x[0] = 1.0f; }"
        ks = kinds(src)
        assert ks[-1] == EOF and IDENT in ks and FLOAT_LIT in ks


class TestTokenObjects:
    """Identifier and punctuator tokens are built without Token's
    __init__; they must be indistinguishable from constructed ones."""

    def test_equal_hash_and_repr_match_constructed_tokens(self):
        got = tokenize("abc +")[:2]
        want = [Token(IDENT, "abc", 1, 1), Token(PUNCT, "+", 1, 5)]
        assert got == want
        assert [hash(t) for t in got] == [hash(t) for t in want]
        assert [repr(t) for t in got] == [repr(t) for t in want]
        assert [dataclasses.asdict(t) for t in got] \
            == [dataclasses.asdict(t) for t in want]

    def test_tokens_stay_frozen(self):
        tok = tokenize("abc")[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            tok.value = "x"
        assert dataclasses.replace(tok, col=7) == Token(IDENT, "abc", 1, 7)
