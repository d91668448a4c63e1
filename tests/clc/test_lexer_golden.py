"""Golden token table for ``repro.clc.lexer.tokenize``.

``lexer_golden.json`` holds, for every source of the corpus, either the
full token list or the ``LexError`` (message, line, col) the lexer
raises.  A token is ``[kind, value, line, col]``, followed by
``parsed, suffix`` for numeric literals (other tokens have ``None`` and
``""`` there).  The corpus is the
OpenCL C generated for the five paper benchmarks, 50 kernels of the
differential fuzzer and hand-written edge snippets (literal forms,
punctuator runs, line endings, comments and malformed input).  Any
lexer rewrite must reproduce the table exactly.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src:. python tests/clc/test_lexer_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.clc.lexer import tokenize
from repro.errors import LexError

GOLDEN = Path(__file__).with_name("lexer_golden.json")

#: hand-written sources covering literal, punctuator, whitespace and
#: comment edge cases, and every LexError the lexer raises
EDGE_SNIPPETS = {
    "exp-without-digits": "1e",
    "exp-sign-without-digits": "1e+ x",
    "exp-then-suffix-letters": "1ef 2E-f",
    "dot-suffix": "1.f",
    "leading-dot-exp-suffix": ".5e-3f",
    "float-forms": "3.25 1.5f 2.F 1e5 1E-2f 6.02e+23 0.0 1e999",
    "dot-runs": "1..2 a.b 1.2.3",
    "bare-hex": "0x",
    "bare-hex-upper-then-ident": "0Xg",
    "hex-after-newline-and-tab": "int a;\n\t b = 0x;",
    "hex-suffix": "0x1Fu",
    "hex-forms": "0XfF 0x0 0xdeadBEEFul 0x1.5 0x1e5",
    "int-suffixes": "1ul 42u 42L 42UL 7lu 3uf 00 0123 00x",
    "number-then-ident": "12abc 1_x",
    "ellipsis": "...",
    "plus-runs": "a+++b",
    "punct-runs": "a<<=b>>=c->d!=e&&f||g^=h%=i|=j&=k",
    "all-punctuators": "<<= >>= ... == != <= >= && || << >> += -= *= /= "
                       "%= &= |= ^= ++ -- -> + - * / % = < > ! & | ^ ~ "
                       "( ) [ ] { } ; , ? : .",
    "keywords": "__kernel kernel void __global global float4 floaty "
                "_x __local local size_t unsigned sizeof",
    "crlf": "int a;\r\nint b;\r\n  b = a;\r\n",
    "tabs-and-form-feed": "\tint\ta;\f\vb\t=\f1;",
    "line-comment": "a // comment ) ( 0x\nb",
    "line-comment-at-eof": "a // no newline",
    "block-comment-spanning-lines": "a /* one\n two\n\t three */ b\n  c",
    "block-comment-stars": "a /*** x **/ b /**/ c /*/ d */ e",
    "comment-markers-in-comment": "a /* // */ b // /* \n c",
    "slash-before-comment": "a / /* c */ b /=/**/2",
    "unterminated-block-comment": "int a;\n  /* never closed\n b",
    "unterminated-block-comment-at-eof": "/*",
    "unexpected-at": "int a = 1;\n   @",
    "unexpected-quote": "x = \"s\";",
    "unexpected-backslash": "a \\\n b",
    "unexpected-non-ascii": "int café;",
    "empty": "",
    "only-whitespace": "  \n\t\n \r\n ",
    "trailing-whitespace": "x  \n\n",
}


def corpus() -> dict:
    """Every source of the golden table, by name."""
    from tests.clc.corpus import fuzz_sources, paper_sources

    sources = {f"paper/{k}": v for k, v in paper_sources().items()}
    sources.update(fuzz_sources(50))
    sources.update({f"edge/{k}": v for k, v in EDGE_SNIPPETS.items()})
    return sources


def lex_record(source: str) -> dict:
    """What the lexer does with ``source``, as plain JSON data."""
    try:
        tokens = tokenize(source)
    except LexError as exc:
        return {"error": [exc.message, exc.line, exc.col]}
    return {"tokens": [
        [t.kind, t.value, t.line, t.col]
        + ([] if t.parsed is None and not t.suffix else [t.parsed, t.suffix])
        for t in tokens]}


def _dump(table: dict) -> str:
    """The table as JSON with one token per line."""
    def compact(value):
        return json.dumps(value, separators=(",", ":"))

    cases = []
    for name, case in sorted(table.items()):
        head = f"{compact(name)}:{{\"source\":{compact(case['source'])},"
        if "error" in case:
            cases.append(f"{head}\"error\":{compact(case['error'])}}}")
        else:
            rows = ",\n".join(compact(t) for t in case["tokens"])
            cases.append(f"{head}\"tokens\":[\n{rows}]}}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


#: the committed table (empty while ``--write`` builds it)
TABLE = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_corpus_covers_paper_fuzz_and_edge_sources():
    names = list(TABLE)
    assert sum(n.startswith("paper/") for n in names) == 5
    assert sum(n.startswith("fuzz/") for n in names) == 50
    assert sum(n.startswith("edge/") for n in names) == len(EDGE_SNIPPETS)
    errors = [n for n, case in TABLE.items() if "error" in case]
    assert {"edge/bare-hex", "edge/unterminated-block-comment",
            "edge/unexpected-at"} <= set(errors)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_lexer_reproduces_golden(name):
    case = TABLE[name]
    expected = {k: v for k, v in case.items() if k != "source"}
    # round-trip through JSON so values compare as the table stores them
    got = json.loads(json.dumps(lex_record(case["source"])))
    assert got == expected
    # 1 == 1.0 in Python: the parsed value's type must match too
    def parsed_types(record):
        return [type(v) for t in record.get("tokens", ()) for v in t[4:5]]

    assert parsed_types(got) == parsed_types(expected)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {name: {"source": source, **lex_record(source)}
             for name, source in corpus().items()}
    GOLDEN.write_text(_dump(table))
    print(f"wrote {len(table)} cases to {GOLDEN}")
