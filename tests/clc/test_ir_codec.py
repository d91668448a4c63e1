"""The artifact codec: ``ProgramBinary.to_bytes``/``from_bytes``.

What the persistent kernel cache stores is a
:class:`~repro.clc.binary.ProgramBinary` — signatures, bytecode and
source — in a flat encoding.  For every program of the golden bytecode
table (``bytecode_golden.json``: the paper apps and 25 fuzz kernels at
-O0 and -O2) a blob must decode to an equal binary that re-encodes
byte for byte and still matches the table.  Every malformed blob —
bad magic, truncation, corrupt zlib or JSON, a document of another
schema or shape, a field of the wrong arity or type — must raise
``IRSchemaError``, which the cache counts as a miss, and nothing else.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clc import compile_source
from repro.clc.binary import _MAGIC, IR_SCHEMA_VERSION, ProgramBinary
from repro.clc.passes import optimize_program
from repro.errors import IRSchemaError
from tests.clc.test_bytecode_golden import LEVELS, TABLE, record


def _binary(source: str, level: int = 2) -> ProgramBinary:
    return ProgramBinary.from_ir(
        optimize_program(compile_source(source), level))


def test_table_covers_paper_apps_and_fuzz_kernels():
    assert sum(n.startswith("paper/") for n in TABLE["programs"]) == 5
    assert sum(n.startswith("fuzz/") for n in TABLE["programs"]) == 25


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name", sorted(TABLE["programs"]))
def test_blob_matches_golden_and_round_trips(name, level):
    case = TABLE["programs"][name]
    binary = _binary(case["source"], level)
    blob = binary.to_bytes()
    clone = ProgramBinary.from_bytes(blob)
    assert clone == binary
    assert clone.to_bytes() == blob
    assert record(clone) == case[f"O{level}"]


# -- rejection: every malformed blob is an IRSchemaError ----------------------

SOURCE = """
float twice(float v) { return v * 2.0f; }
__kernel void scale(__global float* y, float a) {
    int i = get_global_id(0);
    y[i] = twice(y[i]) * a;
}
"""


def _document() -> list:
    return json.loads(zlib.decompress(_binary(SOURCE).to_bytes()[
        len(_MAGIC):]))


def _encoded(doc) -> bytes:
    return _MAGIC + zlib.compress(json.dumps(doc).encode("utf-8"))


def _tampered(edit) -> bytes:
    """A blob of SOURCE whose document went through ``edit(doc)``."""
    doc = _document()
    edit(doc)
    return _encoded(doc)


def _kernel(doc) -> list:
    return next(f for f in doc[4] if f[0] == "scale")


def _bump_schema(doc):
    doc[0] = IR_SCHEMA_VERSION + 1


def _tree_schema(doc):
    doc[0] = 2


def _short_document(doc):
    doc.pop()


def _not_a_program(doc):
    doc[1:] = _kernel(doc)


def _bad_type_kind(doc):
    _kernel(doc)[1] = {"$t": "vector"}


def _bad_scalar(doc):
    _kernel(doc)[2][1][1] = {"$t": "scalar", "name": "quad"}


def _pointer_without_pointee(doc):
    _kernel(doc)[2][0][1] = {"$t": "pointer", "space": "global"}


def _type_not_an_object(doc):
    _kernel(doc)[1] = ["void"]


def _short_function(doc):
    _kernel(doc).pop(3)


def _flag_not_a_bool(doc):
    _kernel(doc)[2][0][2] = "yes"


def _register_names_short(doc):
    _kernel(doc)[10].pop()


def _short_instruction(doc):
    _kernel(doc)[12][0].pop()


def _long_instruction(doc):
    _kernel(doc)[12][0].append(0)


def _register_not_an_int(doc):
    _kernel(doc)[12][0][1] = "0"


def _unknown_op(doc):
    _kernel(doc)[12][0][0] = "nope"


def _bad_load_payload(doc):
    load = next(ins for ins in _kernel(doc)[12] if ins[0] == "ld")
    load[5] = ["0", 0]


def _unknown_dtype(doc):
    _kernel(doc)[12][0][6] = "quad"


@pytest.mark.parametrize("edit, match", [
    (_bump_schema, "schema version"),
    (_tree_schema, "schema version 2 is not supported"),
    (_short_document, "document is not a list of 5 fields"),
    # one function row in place of the program; the id is the one this
    # case had under the schema-2 tree codec
    pytest.param(_not_a_program, "document is not a list of 5 fields",
                 id="_not_a_program-does not encode a ProgramIR"),
    (_bad_type_kind, "unknown type kind 'vector'"),
    (_bad_scalar, "unknown scalar type 'quad'"),
    (_pointer_without_pointee, "bad type: None"),
    (_type_not_an_object, "bad type"),
    (_short_function, "function is not a list of 13 fields"),
    (_flag_not_a_bool, "bad parameters"),
    (_register_names_short, "bad register names"),
    (_short_instruction, "instruction is not a list of 9 fields"),
    (_long_instruction, "instruction is not a list of 9 fields"),
    (_register_not_an_int, "bad instruction"),
    (_unknown_op, "bad instruction"),
    (_bad_load_payload, "bad instruction"),
    (_unknown_dtype, "bad instruction"),
])
def test_malformed_document_rejected(edit, match):
    with pytest.raises(IRSchemaError, match=match):
        ProgramBinary.from_bytes(_tampered(edit))


def _truncated() -> bytes:
    blob = _binary(SOURCE).to_bytes()
    return blob[: len(blob) // 2]


def _tree_blob() -> bytes:
    """A blob in the schema-2 tree format (``HPLIR`` magic)."""
    return b"HPLIR" + zlib.compress(b'{"schema":2,"ir":{}}')


@pytest.mark.parametrize("blob, match", [
    (b"NOTIR" + b"x" * 32, "bad magic"),
    ("HPLIR", "bad magic"),
    pytest.param(_tree_blob(), "bad magic", id="tree-format"),
    pytest.param(_truncated(), "corrupt ProgramBinary payload",
                 id="truncated"),
    pytest.param(_MAGIC + b"not zlib", "corrupt ProgramBinary payload",
                 id="not-zlib"),
    pytest.param(_MAGIC + zlib.compress(b"[3, "),
                 "corrupt ProgramBinary payload", id="not-json"),
    pytest.param(_MAGIC + zlib.compress(b"\xff\xfe[3]"),
                 "corrupt ProgramBinary payload", id="not-utf8"),
    pytest.param(_MAGIC + zlib.compress(b'{"schema": 3}'), "not a list",
                 id="non-list"),
    pytest.param(_MAGIC + zlib.compress(b"[]"), "schema version None",
                 id="empty"),
])
def test_malformed_blob_rejected(blob, match):
    with pytest.raises(IRSchemaError, match=match):
        ProgramBinary.from_bytes(blob)


def test_unserializable_value_rejected():
    binary = _binary(SOURCE)
    bc = binary.bytecode.functions["scale"]
    bc.instrs[0] = bc.instrs[0]._replace(aux={1})
    with pytest.raises(IRSchemaError, match="cannot serialize 'set'"):
        binary.to_bytes()


def test_program_without_bytecode_rejected():
    with pytest.raises(IRSchemaError, match="without bytecode"):
        ProgramBinary.from_ir(compile_source(SOURCE)).to_bytes()


def test_numpy_scalars_encode_as_plain_values():
    binary = _binary(SOURCE)
    bc = binary.bytecode.functions["twice"]
    pc = next(i for i, ins in enumerate(bc.instrs) if ins.op == "const")
    bc.instrs[pc] = bc.instrs[pc]._replace(aux=np.float32(2.5))
    clone = ProgramBinary.from_bytes(binary.to_bytes())
    aux = clone.bytecode.functions["twice"].instrs[pc].aux
    assert type(aux) is float and aux == 2.5


# -- no other exception: random edits anywhere in the document ---------------

def _paths(node, prefix=()):
    """Every position in a JSON document, as an index path."""
    yield prefix
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))


DOCUMENT = _document()
PATHS = [p for p in _paths(DOCUMENT) if p]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300)
    | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from(["mem", "scalar", "ld", "const", "float", "global"]),
    lambda inner: st.lists(inner, max_size=9)
    | st.dictionaries(st.sampled_from(["$t", "name", "space", "size",
                                       "pointee", "element"]), inner,
                      max_size=3),
    max_leaves=12)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(path=st.sampled_from(PATHS), value=_json_values)
def test_any_edit_decodes_or_raises_schema_error(path, value):
    doc = json.loads(json.dumps(DOCUMENT))
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    try:
        binary = ProgramBinary.from_bytes(_encoded(doc))
    except IRSchemaError:
        return
    assert isinstance(binary, ProgramBinary)
