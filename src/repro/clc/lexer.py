"""Tokenizer for the OpenCL C subset.

Operates on preprocessed source (see :mod:`repro.clc.preprocessor`), but is
self-contained: it also skips ``//`` and ``/* */`` comments so it can be used
directly on comment-bearing text in tests.

One compiled master pattern cuts the whole source into consecutive
pieces, each the longest of: a run of whitespace and comments, an
identifier or keyword, a hex, octal or decimal literal with its suffix,
or a punctuator.  The pieces that cannot start a token — a bare ``0x``, an
unterminated ``/*`` and any other single character — are matched too,
so the pieces always cover the source and each of those becomes its
:class:`LexError`.  Only whitespace and comments span lines, so line
and column are tracked from the newlines of those pieces alone.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import (EOF, FLOAT_LIT, IDENT, INT_LIT, KEYWORD, KEYWORDS, PUNCT,
                     PUNCTUATORS, Token)


def _longest_of(words) -> str:
    """A pattern matching the longest of ``words`` at a position, as a
    trie (``<(?:<=?|=)?``) instead of one alternative per word."""
    tails: dict = {}
    for word in words:
        tails.setdefault(word[0], []).append(word[1:])
    alternatives = []
    for head, rests in sorted(tails.items()):
        longer = [rest for rest in rests if rest]
        pattern = re.escape(head)
        if longer:
            optional = "?" if "" in rests else ""
            pattern += f"(?:{_longest_of(longer)}){optional}"
        alternatives.append(pattern)
    return "|".join(alternatives)


_PIECES = re.compile("|".join((
    r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*.*?\*/)+",
    r"[A-Za-z_][A-Za-z0-9_]*",
    r"0[xX][0-9a-fA-F]+[uUlLfF]*",
    r"0[xX]",                                   # malformed hex literal
    r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[uUlLfF]*",
    r"/\*",                                     # unterminated comment
    _longest_of(PUNCTUATORS),
    r".",                                       # unexpected character
)), re.DOTALL)

#: the digits of a hex literal; what follows them is its suffix
_HEX_DIGITS = re.compile(r"0[xX][0-9a-fA-F]+")

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyz"
                         "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_SPACE = frozenset(" \t\r\n\f\v")
_NUMBER_START = frozenset("0123456789.")
_PUNCTUATORS = frozenset(PUNCTUATORS)


def tokenize(source: str, filename: str = "<kernel>") -> list[Token]:
    """Tokenize ``source`` into a token list ending in an EOF token.

    Raises :class:`LexError` (with the line and column of the offending
    text) on a malformed hex literal, an 8 or 9 in an octal literal, an
    unterminated block comment or a character no token starts with.
    """
    tokens: list[Token] = []
    append = tokens.append
    # Token is a frozen dataclass whose generated __init__ sets each
    # field through object.__setattr__; giving a fresh instance its whole
    # __dict__ at once builds the same token in less than half the time
    new, set_fields = object.__new__, object.__setattr__
    line, line_start, pos = 1, 0, 0
    for text in _PIECES.findall(source):
        c = text[0]
        if c in _IDENT_START:
            token = new(Token)
            set_fields(token, "__dict__", {
                "kind": KEYWORD if text in KEYWORDS else IDENT,
                "value": text, "line": line, "col": pos - line_start + 1,
                "parsed": None, "suffix": ""})
            append(token)
        elif c in _SPACE or text.startswith(("//", "/*")) and text != "/*":
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
        elif text in _PUNCTUATORS:
            token = new(Token)
            set_fields(token, "__dict__", {
                "kind": PUNCT, "value": text, "line": line,
                "col": pos - line_start + 1, "parsed": None, "suffix": ""})
            append(token)
        elif c in _NUMBER_START:
            append(_number(text, line, pos - line_start + 1, filename))
        elif text == "/*":
            raise LexError("unterminated block comment", line,
                           pos - line_start + 1, filename)
        else:
            raise LexError(f"unexpected character {text!r}", line,
                           pos - line_start + 1, filename)
        pos += len(text)
    append(Token(EOF, "", line, pos - line_start + 1))
    return tokens


def _number(text: str, line: int, col: int, filename: str) -> Token:
    """The literal token spelled ``text`` (digits plus suffix)."""
    if text[1:2] in ("x", "X"):
        if len(text) == 2:
            # reported where the missing digits should start
            raise LexError("malformed hex literal", line, col + 2, filename)
        digits = _HEX_DIGITS.match(text).group()
        value: object = int(digits, 16)
        is_float = False
    else:
        # a decimal or octal literal's digits hold no suffix letter
        digits = text.rstrip("uUlLfF")
        is_float = not digits.isdigit()         # has `.` or an exponent
        if is_float or "f" in text[len(digits):].lower():
            value = float(digits)
        elif digits[0] == "0":                  # C: a leading 0 is octal
            for i, digit in enumerate(digits):
                if digit in "89":
                    raise LexError(f"invalid digit {digit!r} in octal "
                                   "literal", line, col + i, filename)
            value = int(digits, 8)
        else:
            value = int(digits, 10)
    suffix = text[len(digits):].lower()
    if "f" in suffix:
        is_float = True
        value = float(value)
    return Token(FLOAT_LIT if is_float else INT_LIT, text, line, col,
                 parsed=value, suffix=suffix)
