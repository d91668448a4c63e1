"""Golden blobs for the ``ProgramIR`` codec (``to_bytes``/``from_bytes``).

``ir_codec_golden.json`` records, for the kernels HPL generates for the
five paper benchmarks at -O0 and -O2 and for 25 kernels of the
differential fuzzer at -O0 and -O2, the sha256 and length of the blob
``ProgramIR.to_bytes`` wrote, and the sha256 of the JSON document inside
it.  The persistent kernel cache addresses entries by content, so an
encoder change that alters a single byte would orphan every entry a
previous build stored: the codec may be restructured only as long as
every blob stays byte-identical.  ``from_bytes`` must give back an equal
program, and every malformed blob must raise ``IRSchemaError``.

The compressed bytes depend on the zlib library as well as on the
encoder, so the blob hash is checked under the zlib version the table
was written with; the document hash is checked everywhere.

Regenerate (only for an intended schema change) with::

    PYTHONPATH=src:. python tests/clc/test_ir_codec.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import zlib
from pathlib import Path

import pytest

from repro.clc import compile_source
from repro.clc.ir import (_IR_MAGIC, IR_SCHEMA_VERSION, Const, ProgramIR,
                          _encode)
from repro.clc.passes import optimize_program
from repro.errors import IRSchemaError

GOLDEN = Path(__file__).with_name("ir_codec_golden.json")

#: the committed table (empty while ``--write`` builds it)
TABLE = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

LEVELS = (0, 2)


def corpus() -> dict:
    """``{name: source}`` of every program the table covers."""
    from tests.clc.corpus import fuzz_sources, paper_sources

    sources = {f"paper/{k}": v for k, v in paper_sources().items()}
    sources.update(fuzz_sources(25))
    return sources


def _program(source: str, level: int) -> ProgramIR:
    return optimize_program(compile_source(source), level)


def _payload(blob: bytes) -> bytes:
    return zlib.decompress(blob[len(_IR_MAGIC):])


def blob_record(blob: bytes) -> dict:
    return {"blob_sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
            "doc_sha256": hashlib.sha256(_payload(blob)).hexdigest()}


def test_table_covers_paper_apps_and_fuzz_kernels():
    assert sum(n.startswith("paper/") for n in TABLE["programs"]) == 5
    assert sum(n.startswith("fuzz/") for n in TABLE["programs"]) == 25


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(TABLE.get("programs", ())))
def test_blob_matches_golden_and_round_trips(name, level):
    case = TABLE["programs"][name]
    program = _program(case["source"], level)
    blob = program.to_bytes()
    got, want = blob_record(blob), case[f"O{level}"]
    assert got["doc_sha256"] == want["doc_sha256"]
    if zlib.ZLIB_RUNTIME_VERSION == TABLE["zlib"]:
        assert got == want
    clone = ProgramIR.from_bytes(blob)
    assert clone == program
    assert clone.to_bytes() == blob


# -- rejection: every malformed blob is an IRSchemaError ----------------------

SOURCE = """
__kernel void scale(__global float* y, float a) {
    int i = get_global_id(0);
    y[i] = y[i] * a;
}
"""


def _tampered(edit) -> bytes:
    """A blob of SOURCE whose document went through ``edit(doc)``."""
    doc = json.loads(_payload(_program(SOURCE, 2).to_bytes()))
    edit(doc)
    return _IR_MAGIC + zlib.compress(json.dumps(doc).encode("utf-8"))


def _first(doc, pred):
    """The first dict in ``doc`` (depth first) satisfying ``pred``."""
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if pred(node):
                return node
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    raise AssertionError("no such node")


def _rename_node(doc):
    _first(doc, lambda d: d.get("$n") == "Function")["$n"] = "Nope"


def _add_field(doc):
    _first(doc, lambda d: d.get("$n") == "Function")["bogus"] = 1


def _bad_type_kind(doc):
    _first(doc, lambda d: "$t" in d)["$t"] = "vector"


def _bad_scalar(doc):
    _first(doc, lambda d: d.get("$t") == "scalar")["name"] = "quad"


def _bump_schema(doc):
    doc["schema"] = IR_SCHEMA_VERSION + 1


def _not_a_program(doc):
    doc["ir"] = doc["ir"]["functions"]["scale"]


@pytest.mark.parametrize("edit, match", [
    (_rename_node, "unknown IR node kind 'Nope'"),
    (_add_field, "unknown field 'bogus' on IR node 'Function'"),
    (_bad_type_kind, "unknown type kind 'vector'"),
    (_bad_scalar, "unknown scalar type 'quad'"),
    (_bump_schema, "schema version"),
    (_not_a_program, "does not encode a ProgramIR"),
])
def test_malformed_document_rejected(edit, match):
    with pytest.raises(IRSchemaError, match=match):
        ProgramIR.from_bytes(_tampered(edit))


@pytest.mark.parametrize("blob, match", [
    (b"NOTIR" + b"x" * 32, "bad magic"),
    (_IR_MAGIC + b"not zlib", "corrupt ProgramIR payload"),
    (_IR_MAGIC + zlib.compress(b"[1, 2]"), "not an object"),
    ("HPLIR", "bad magic"),
])
def test_malformed_blob_rejected(blob, match):
    with pytest.raises(IRSchemaError, match=match):
        ProgramIR.from_bytes(blob)


def test_unserializable_value_rejected():
    with pytest.raises(IRSchemaError, match="cannot serialize 'set'"):
        _encode(Const(value={1}))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    programs = {}
    for name, source in corpus().items():
        programs[name] = {"source": source}
        for level in LEVELS:
            blob = _program(source, level).to_bytes()
            programs[name][f"O{level}"] = blob_record(blob)
    table = {"zlib": zlib.ZLIB_RUNTIME_VERSION, "programs": programs}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(programs)} programs to {GOLDEN}")
