"""Typed kernel IR — the output of semantic analysis.

The execution engines (:mod:`repro.ocl.engines`) walk this representation
directly.  Every expression node carries its resolved :class:`CLType`; every
implicit conversion inserted by sema appears as an explicit :class:`Convert`
node, so engines never have to re-derive C conversion rules.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, fields, is_dataclass

from ..errors import IRSchemaError
from .types import (SCALAR_TYPES, VOID, ArrayType, CLType, PointerType,
                    ScalarType, VoidType)

#: Version of the on-disk IR encoding produced by :meth:`ProgramIR.to_bytes`.
#: Bump whenever a node class, field, or type encoding changes shape;
#: :meth:`ProgramIR.from_bytes` rejects any other version with
#: :class:`~repro.errors.IRSchemaError`, which the persistent kernel
#: cache treats as a miss (forcing a clean recompile) instead of a crash.
#: v2: ProgramIR gained ``opt_level`` and ``bytecode`` (the middle-end's
#: post-optimization artifact, see :mod:`repro.clc.lower`).
IR_SCHEMA_VERSION = 2

#: magic prefix identifying a serialized ProgramIR blob
_IR_MAGIC = b"HPLIR"


# -- expressions ----------------------------------------------------------------

@dataclass
class Expr:
    type: CLType = None
    line: int = 0


@dataclass
class Const(Expr):
    value: object = 0


@dataclass
class Var(Expr):
    """Reference to a parameter or a declared variable, by name."""
    name: str = ""


@dataclass
class Load(Expr):
    """``base[index]`` read.  ``space`` is the address space of ``base``."""
    base: str = ""
    index: Expr = None
    space: str = "private"


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Expr = None
    rhs: Expr = None


@dataclass
class Select(Expr):
    """Ternary ``cond ? a : b``."""
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


@dataclass
class Convert(Expr):
    """Explicit or implicit conversion to ``type``."""
    operand: Expr = None


@dataclass
class CallBuiltin(Expr):
    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class CallFunction(Expr):
    """Call of a user helper function defined in the same program."""
    name: str = ""
    args: list = field(default_factory=list)


# -- lvalues -----------------------------------------------------------------------

@dataclass
class LValue:
    """Target of a store: either a variable or an indexed element."""
    name: str = ""
    index: Expr | None = None       # None => scalar variable
    space: str = "private"
    type: CLType = None
    line: int = 0


# -- statements ----------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0


@dataclass
class DeclVar(Stmt):
    name: str = ""
    type: CLType = None
    init: Expr | None = None


@dataclass
class DeclArray(Stmt):
    name: str = ""
    element: ScalarType = None
    size: int = 0
    space: str = "private"   # private | local


@dataclass
class Store(Stmt):
    """``target = value`` — augmented ops are desugared by sema."""
    target: LValue = None
    value: Expr = None


@dataclass
class AtomicRMW(Stmt):
    """``atomic_add(&buf[i], v)``-style read-modify-write used as statement."""
    op: str = "add"
    target: LValue = None
    value: Expr | None = None


@dataclass
class EvalExpr(Stmt):
    expr: Expr = None


@dataclass
class If(Stmt):
    cond: Expr = None
    then: list = field(default_factory=list)
    otherwise: list = field(default_factory=list)


@dataclass
class While(Stmt):
    """Canonical loop: ``for`` is desugared to init + While with update."""
    cond: Expr = None
    body: list = field(default_factory=list)
    update: list = field(default_factory=list)   # executed on continue too
    is_do_while: bool = False


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class BarrierStmt(Stmt):
    flags: int = 0   # bit 0: local fence, bit 1: global fence


# -- program structure ----------------------------------------------------------------

@dataclass
class Param:
    name: str
    type: CLType
    #: read/write classification filled by sema (used by HPL's transfer
    #: minimisation and by the cost model)
    is_read: bool = False
    is_written: bool = False


@dataclass
class Function:
    name: str
    return_type: CLType
    params: list
    body: list
    is_kernel: bool = False
    #: names of __local arrays declared in the body (for occupancy checks)
    local_arrays: list = field(default_factory=list)
    #: whether the function (transitively) executes a barrier
    uses_barrier: bool = False
    #: whether the function (transitively) uses double precision
    uses_fp64: bool = False


@dataclass
class ProgramIR:
    """A compiled translation unit: kernels plus helper functions."""
    functions: dict = field(default_factory=dict)   # name -> Function
    source: str = ""
    #: opt level the middle-end ran at (0 = no rewriting passes)
    opt_level: int = 0
    #: :class:`repro.clc.lower.ProgramBytecode`; None until the middle-end
    #: has run (every engine rejects a program without it)
    bytecode: object = None

    @property
    def kernels(self) -> dict:
        return {n: f for n, f in self.functions.items() if f.is_kernel}

    # -- versioned serialization (persistent kernel cache) -------------------

    def to_bytes(self) -> bytes:
        """Serialize to a self-describing, versioned binary blob."""
        doc = {"schema": IR_SCHEMA_VERSION, "ir": _encode(self)}
        payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        return _IR_MAGIC + zlib.compress(payload)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProgramIR":
        """Reconstruct a :class:`ProgramIR` written by :meth:`to_bytes`.

        Raises :class:`~repro.errors.IRSchemaError` on bad magic, corrupt
        payload, or a schema-version mismatch — never a bare crash, so
        cache layers can treat any failure as a miss.
        """
        from . import lower  # noqa: F401  (registers bytecode nodes)
        if not isinstance(data, (bytes, bytearray)) \
                or not bytes(data).startswith(_IR_MAGIC):
            raise IRSchemaError("not a serialized ProgramIR (bad magic)")
        try:
            payload = zlib.decompress(bytes(data)[len(_IR_MAGIC):])
            doc = json.loads(payload.decode("utf-8"))
        except (zlib.error, ValueError, UnicodeDecodeError) as exc:
            raise IRSchemaError(f"corrupt ProgramIR payload: {exc}") \
                from exc
        if not isinstance(doc, dict):
            raise IRSchemaError("corrupt ProgramIR payload: not an object")
        version = doc.get("schema")
        if version != IR_SCHEMA_VERSION:
            raise IRSchemaError(
                f"ProgramIR schema version {version!r} is not supported "
                f"by this build (expected {IR_SCHEMA_VERSION})")
        program = _decode(doc.get("ir"))
        if not isinstance(program, cls):
            raise IRSchemaError("payload does not encode a ProgramIR")
        return program


# -- generic node codec -----------------------------------------------------------
#
# Every IR node is a flat dataclass whose fields hold primitives, CLTypes,
# other nodes, or lists/dicts thereof, so one reflective codec covers the
# whole module.  Nodes encode as {"$n": ClassName, ...fields}; types encode
# under "$t" (scalars by canonical name — they are singletons).  Tuples
# come back as lists, which every consumer already accepts.

def _encode(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, CLType):
        return _encode_type(value)
    if is_dataclass(value) and type(value).__name__ in _NODE_CLASSES:
        out = {"$n": type(value).__name__}
        for f in fields(value):
            out[f.name] = _encode(getattr(value, f.name))
        return out
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if hasattr(value, "item"):          # numpy scalar without the import
        return _encode(value.item())
    raise IRSchemaError(
        f"cannot serialize {type(value).__name__!r} in ProgramIR")


def _encode_type(t: CLType):
    if isinstance(t, ScalarType):
        return {"$t": "scalar", "name": t.name}
    if isinstance(t, VoidType):
        return {"$t": "void"}
    if isinstance(t, PointerType):
        return {"$t": "pointer", "pointee": _encode_type(t.pointee),
                "space": t.address_space}
    if isinstance(t, ArrayType):
        return {"$t": "array", "element": _encode_type(t.element),
                "size": t.size, "space": t.address_space}
    raise IRSchemaError(f"cannot serialize type {t!r}")


def _decode(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        if "$t" in value:
            return _decode_type(value)
        if "$n" in value:
            cls = _NODE_CLASSES.get(value["$n"])
            if cls is None:
                raise IRSchemaError(f"unknown IR node kind {value['$n']!r}")
            kwargs = {}
            names = {f.name for f in fields(cls)}
            for key, enc in value.items():
                if key == "$n":
                    continue
                if key not in names:
                    raise IRSchemaError(
                        f"unknown field {key!r} on IR node {value['$n']!r}")
                kwargs[key] = _decode(enc)
            return cls(**kwargs)
        return {k: _decode(v) for k, v in value.items()}
    raise IRSchemaError(f"cannot decode {type(value).__name__!r}")


def _decode_type(value: dict) -> CLType:
    kind = value.get("$t")
    if kind == "scalar":
        t = SCALAR_TYPES.get(value.get("name"))
        if t is None:
            raise IRSchemaError(f"unknown scalar type {value.get('name')!r}")
        return t
    if kind == "void":
        return VOID
    if kind == "pointer":
        return PointerType(_decode_type(value["pointee"]), value["space"])
    if kind == "array":
        return ArrayType(_decode_type(value["element"]), value["size"],
                         value["space"])
    raise IRSchemaError(f"unknown type kind {kind!r}")


#: name -> class for every dataclass node defined in this module
_NODE_CLASSES = {
    name: obj for name, obj in list(globals().items())
    if isinstance(obj, type) and is_dataclass(obj)
    and obj.__module__ == __name__
}


def register_node_classes(*classes) -> None:
    """Add external dataclasses (e.g. the bytecode containers defined in
    :mod:`repro.clc.lower`) to the reflective IR codec."""
    for cls in classes:
        if not is_dataclass(cls):  # pragma: no cover - programmer error
            raise TypeError(f"{cls!r} is not a dataclass")
        _NODE_CLASSES[cls.__name__] = cls
