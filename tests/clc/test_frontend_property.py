"""Property tests: the clc front-end on malformed OpenCL C.

Kernels generated for the five paper benchmarks and by the differential
fuzzer (the sources stored in ``lexer_golden.json``) are mutated at the
token level — tokens dropped, swapped, duplicated or inserted, the text
truncated, braces and parentheses unbalanced — and compiled with
well-formed or malformed ``-D`` options.  Every run must either compile
and optimize, or raise a ``CompileError`` whose line and column point
into the source; never an ``IndexError``, ``KeyError``,
``RecursionError`` or any other stray exception.  A mutant that
compiles must also link, so a build that succeeds never fails at
launch (an ``int`` constant stored to a ``char``, say).  Malformed
options are not in the source, so their ``PreprocessorError`` has no
position.

Every token the lexer returns must also be spelled exactly as the
source text at its line and column.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clc import compile_source, tokenize
from repro.clc.lower import linked_program
from repro.clc.passes import optimize_program
from repro.clc.tokens import EOF, KEYWORDS, PUNCTUATORS
from repro.errors import CompileError, LexError, PreprocessorError

_TABLE = json.loads(
    (Path(__file__).with_name("lexer_golden.json")).read_text())
SOURCES = [case["source"] for name, case in sorted(_TABLE.items())
           if not name.startswith("edge/")]

#: spellings an insertion may add
VOCABULARY = sorted(PUNCTUATORS) + sorted(KEYWORDS) + [
    "x", "gid", "get_global_id", "barrier", "0", "1", "0x1F", "2.5f",
    "1e3", "7u", "{", "}", "(", ")", "[", "]", ";", "#define X", "@",
    "/*", "*/", "//", "\n", "0x", "\\", "300", "-129",
    "18446744073709551616"]

#: build options that are not valid -D definitions
BAD_OPTIONS = ["-D", "-D=1", "-D1X", "-DA-B=2", "-D FOO=1 -D", "-D -O2",
               "-D=", "-D.x"]


def _spans(source: str) -> list:
    """``(start, end)`` offsets of every token of ``source``."""
    starts = _line_starts(source)
    return [(starts[t.line - 1] + t.col - 1,
             starts[t.line - 1] + t.col - 1 + len(t.value))
            for t in tokenize(source) if t.kind != EOF]


def _line_starts(source: str) -> list:
    starts = [0]
    starts.extend(i + 1 for i, c in enumerate(source) if c == "\n")
    return starts


@st.composite
def mutated(draw):
    """A paper or fuzz kernel after a few token-level mutations."""
    source = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        spans = _spans(source) if _lexes(source) else []
        op = draw(st.sampled_from(
            ["drop", "swap", "duplicate", "insert", "truncate", "brace"]))
        if not spans or op == "truncate":
            source = source[:draw(st.integers(0, len(source)))]
            continue
        i = draw(st.integers(0, len(spans) - 1))
        start, end = spans[i]
        if op == "drop":
            source = source[:start] + source[end:]
        elif op == "swap" and i + 1 < len(spans):
            start2, end2 = spans[i + 1]
            source = (source[:start] + source[start2:end2]
                      + source[end:start2] + source[start:end]
                      + source[end2:])
        elif op == "duplicate":
            source = source[:end] + " " + source[start:end] + source[end:]
        elif op == "insert":
            word = draw(st.sampled_from(VOCABULARY))
            source = source[:start] + word + " " + source[start:]
        else:                                   # unbalance a bracket
            bracket = draw(st.sampled_from("{}()[]"))
            if draw(st.booleans()):
                source = source[:start] + bracket + source[start:]
            else:
                source = source.replace(bracket, "", 1)
    return source


def _lexes(source: str) -> bool:
    try:
        tokenize(source)
    except LexError:
        return False
    return True


@st.composite
def options(draw, source):
    """Build options: none, a valid -O level, a bad -D, or a -D that
    redefines an identifier of the source as a random spelling."""
    kind = draw(st.sampled_from(["none", "level", "bad", "redefine"]))
    if kind == "level":
        return draw(st.sampled_from(["-O0", "-O2", "-cl-opt-disable"]))
    if kind == "bad":
        return draw(st.sampled_from(BAD_OPTIONS))
    if kind == "redefine":
        names = sorted(set(re.findall(r"[A-Za-z_]\w*", source))) or ["x"]
        name = draw(st.sampled_from(names))
        value = draw(st.sampled_from(VOCABULARY))
        return f"-D{name}={value}"
    return ""


def _check_compile(source: str, opts: str, level: int) -> None:
    try:
        program = compile_source(source, opts)
        optimize_program(program, level)
        linked_program(program.bytecode)
    except CompileError as exc:
        assert isinstance(exc.line, int) and isinstance(exc.col, int)
        if opts in BAD_OPTIONS and isinstance(exc, PreprocessorError) \
                and "-D" in exc.message:
            assert exc.line == 0                # not in the source
        else:
            # a position in the source or just past its end
            assert 1 <= exc.line <= source.count("\n") + 2, exc
            assert exc.col >= 1, exc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_kernels_compile_or_raise_located_compile_errors(data):
    source = data.draw(mutated())
    opts = data.draw(options(source))
    level = data.draw(st.sampled_from([0, 2]))
    _check_compile(source, opts, level)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=mutated())
def test_every_token_is_spelled_at_its_line_and_col(source):
    try:
        tokens = tokenize(source)
    except LexError as exc:
        assert 1 <= exc.line and 1 <= exc.col
        return
    starts = _line_starts(source)
    for tok in tokens:
        offset = starts[tok.line - 1] + tok.col - 1
        assert source[offset:offset + len(tok.value)] == tok.value
    eof = tokens[-1]
    assert eof.kind == EOF
    assert starts[eof.line - 1] + eof.col - 1 == len(source)
