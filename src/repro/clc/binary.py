"""What the engines run: a compiled program without its tree.

A :class:`ProgramBinary` holds the source, the opt level, the lowered
:class:`~repro.clc.lower.ProgramBytecode` and one body-less
:class:`Signature` per function.  ``Program.build`` makes one from the
optimized :class:`~repro.clc.ir.ProgramIR` on a cold build, and the
persistent kernel cache (:mod:`repro.hpl.diskcache`) stores and decodes
the same type, so ``Program.ir``, the kernels and every engine see one
shape on both paths.  The passes and ``clc dump`` keep working on the
tree, which nothing reads after lowering.

Encoding: :data:`_MAGIC`, then zlib over one JSON array::

    [schema, source, opt_level, [bc_version, bc_opt_level, pipeline],
     [function, ...]]

Each function is one 13-element list — its signature followed by its
bytecode — and each instruction one 9-element list
``op, dst, a, b, c, aux, dtype, line, uniform``.  :meth:`from_bytes`
checks the shape and the type of every field, so a malformed blob raises
:class:`~repro.errors.IRSchemaError` (a cache miss), never a stray
``TypeError`` or ``KeyError``.  The values themselves are protected by
the checksum the cache seals every entry with.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

from ..errors import IRSchemaError
from .ir import Param, ProgramIR
from .lower import Instr, KernelBytecode, ProgramBytecode
from .types import (ADDRESS_SPACES, SCALAR_TYPES, VOID, ArrayType, CLType,
                    PointerType, ScalarType, VoidType)

#: Version of the encoding.  Part of the disk-cache key, so entries of
#: another version miss; :meth:`ProgramBinary.from_bytes` rejects them
#: with :class:`~repro.errors.IRSchemaError` as well.
#: v2: the whole ProgramIR tree; v3: signatures + bytecode, flat.
IR_SCHEMA_VERSION = 3

#: magic prefix identifying a serialized ProgramBinary
_MAGIC = b"HPLBIN"


@dataclass
class Signature:
    """A function without its body: what binding and launching need."""
    name: str
    return_type: CLType
    params: list                    # [Param]
    is_kernel: bool = False
    #: names of __local arrays declared in the body
    local_arrays: list = field(default_factory=list)
    #: whether the function (transitively) executes a barrier
    uses_barrier: bool = False
    #: whether the function (transitively) uses double precision
    uses_fp64: bool = False


@dataclass
class ProgramBinary:
    """A compiled translation unit as the engines consume it."""
    source: str = ""
    #: opt level the middle-end ran at
    opt_level: int = 0
    #: :class:`~repro.clc.lower.ProgramBytecode`; every engine rejects a
    #: program without it
    bytecode: ProgramBytecode | None = None
    functions: dict = field(default_factory=dict)   # name -> Signature

    @property
    def kernels(self) -> dict:
        return {n: f for n, f in self.functions.items() if f.is_kernel}

    @classmethod
    def from_ir(cls, program: ProgramIR) -> "ProgramBinary":
        """The binary of an optimized (or, for tests, front-end-only)
        program: its bytecode and the signatures of its functions."""
        return cls(
            source=program.source, opt_level=program.opt_level,
            bytecode=program.bytecode,
            functions={name: Signature(
                f.name, f.return_type, list(f.params), f.is_kernel,
                list(f.local_arrays), f.uses_barrier, f.uses_fp64)
                for name, f in program.functions.items()})

    # -- serialization (persistent kernel cache) -------------------------

    def to_bytes(self) -> bytes:
        pbc = self.bytecode
        if pbc is None:
            raise IRSchemaError("cannot serialize a program without "
                                "bytecode")
        funcs = []
        for name, sig in self.functions.items():
            bc = pbc.functions[name]
            funcs.append([
                name, _encode_type(sig.return_type),
                [[p.name, _encode_type(p.type), p.is_read, p.is_written]
                 for p in sig.params],
                sig.is_kernel, sig.local_arrays, sig.uses_barrier,
                sig.uses_fp64,
                bc.params, bc.n_regs, bc.n_mems, bc.reg_names,
                bc.ret_dtype, bc.instrs])
        doc = [IR_SCHEMA_VERSION, self.source, self.opt_level,
               [pbc.version, pbc.opt_level, pbc.pipeline_version], funcs]
        payload = json.dumps(doc, separators=(",", ":"), default=_plain)
        return _MAGIC + zlib.compress(payload.encode("utf-8"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProgramBinary":
        """Decode a blob written by :meth:`to_bytes`; any malformed blob
        raises :class:`~repro.errors.IRSchemaError`."""
        if not isinstance(data, (bytes, bytearray)) \
                or not data.startswith(_MAGIC):
            raise IRSchemaError("not a serialized ProgramBinary (bad magic)")
        try:
            doc = json.loads(zlib.decompress(data[len(_MAGIC):]))
        except (zlib.error, ValueError) as exc:
            raise IRSchemaError(
                f"corrupt ProgramBinary payload: {exc}") from exc
        if type(doc) is not list:
            raise IRSchemaError("corrupt ProgramBinary payload: not a list")
        if not doc or doc[0] != IR_SCHEMA_VERSION:
            version = doc[0] if doc else None
            raise IRSchemaError(
                f"ProgramBinary schema version {version!r} is not "
                f"supported by this build (expected {IR_SCHEMA_VERSION})")
        _, source, opt_level, header, funcs = _fields(doc, 5, "document")
        _expect(type(source) is str, "source", source)
        _expect(type(opt_level) is int, "opt level", opt_level)
        version, bc_level, pipeline = _fields(header, 3, "bytecode header")
        _expect(type(version) is int and type(bc_level) is int
                and type(pipeline) is int, "bytecode header", header)
        _expect(type(funcs) is list, "function table", funcs)
        signatures, bytecodes = {}, {}
        for func in funcs:
            sig, bc = _decode_function(func)
            signatures[sig.name] = sig
            bytecodes[sig.name] = bc
        return cls(source=source, opt_level=opt_level,
                   bytecode=ProgramBytecode(
                       version=version, opt_level=bc_level,
                       pipeline_version=pipeline, functions=bytecodes),
                   functions=signatures)


# -- encoding helpers ------------------------------------------------------------


def _plain(value):
    """``json.dumps`` fallback: NumPy scalars as their Python value."""
    if hasattr(value, "item"):
        return value.item()
    raise IRSchemaError(
        f"cannot serialize {type(value).__name__!r} in ProgramBinary")


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


# -- decoding helpers ------------------------------------------------------------


def _expect(ok: bool, what: str, value) -> None:
    if not ok:
        raise IRSchemaError(f"malformed ProgramBinary: bad {what}: "
                            f"{value!r:.80}")


def _fields(value, n: int, what: str) -> list:
    """``value`` checked to be a list of exactly ``n`` fields."""
    if type(value) is not list or len(value) != n:
        raise IRSchemaError(f"malformed ProgramBinary: {what} is not a "
                            f"list of {n} fields: {value!r:.80}")
    return value


def _decode_type(value) -> CLType:
    _expect(type(value) is dict, "type", value)
    kind = value.get("$t")
    if kind == "scalar":
        name = value.get("name")
        t = SCALAR_TYPES.get(name) if type(name) is str else None
        if t is None:
            raise IRSchemaError(f"unknown scalar type {name!r}")
        return t
    if kind == "void":
        return VOID
    space = value.get("space")
    if kind in ("pointer", "array"):
        _expect(space in ADDRESS_SPACES, "address space", space)
    if kind == "pointer":
        return PointerType(_decode_type(value.get("pointee")), space)
    if kind == "array":
        size = value.get("size")
        _expect(type(size) is int, "array size", size)
        return ArrayType(_decode_type(value.get("element")), size, space)
    raise IRSchemaError(f"unknown type kind {kind!r}")


def _typed(*types):
    """Check: a list of exactly ``types``, element by element."""
    expected = list(types)
    return lambda value: (type(value) is list
                          and list(map(type, value)) == expected)


_bind = _typed(str, int)


def _never(aux) -> bool:
    return False


#: op name -> check of its ``aux`` payload (see repro.clc.lower); None
#: for the ops that carry none
_AUX_CHECKS = dict.fromkeys((
    "mov", "castf", "cast", "neg", "bnot", "lnot", "add", "sub", "mul",
    "div", "mod", "shl", "shr", "band", "bor", "bxor", "ceq", "cne",
    "clt", "cgt", "cle", "cge", "land", "lor", "select", "break",
    "continue", "ret"))
_AUX_CHECKS.update({
    "const": lambda aux: type(aux) in (int, float, bool),
    "wiq": _typed(str, int),
    "builtin": lambda aux: (type(aux) is list and len(aux) == 2
                            and type(aux[0]) is str
                            and type(aux[1]) is list
                            and all(type(r) is int for r in aux[1])),
    "call": lambda aux: (type(aux) is list and len(aux) == 2
                         and type(aux[0]) is str and type(aux[1]) is list
                         and all(map(_bind, aux[1]))),
    "ld": _typed(int, int),
    "st": _typed(int, int),
    "atomic": _typed(str, int, int),
    "declarr": _typed(int, int, str, int, str, int),
    "if": _typed(int, int),
    "loop": _typed(int, int, int, int),
    "barrier": lambda aux: type(aux) is int,
})

_mem_param = _typed(str, str, str, int, str, int)
_scalar_param = _typed(str, str, str, int)
_param = _typed(str, dict, bool, bool)


def _decode_instrs(rows) -> list:
    _expect(type(rows) is list, "instruction list", rows)
    new = tuple.__new__
    out = []
    for row in rows:
        if type(row) is not list or len(row) != 9:
            _fields(row, 9, "instruction")
        op, dst, a, b, c, aux, dtype, line, uniform = row
        check = (_AUX_CHECKS.get(op, _never) if type(op) is str
                 else _never)
        if not (type(dst) is type(a) is type(b) is type(c) is type(line)
                is type(uniform) is int
                and (dtype is None or (type(dtype) is str
                                       and dtype in SCALAR_TYPES))
                and (aux is None if check is None else check(aux))):
            _expect(False, "instruction", row)
        out.append(new(Instr, row))
    return out


def _decode_function(func) -> tuple:
    (name, ret, params, is_kernel, local_arrays, uses_barrier, uses_fp64,
     bc_params, n_regs, n_mems, reg_names, ret_dtype, instrs) = \
        _fields(func, 13, "function")
    _expect(type(name) is str and type(is_kernel) is bool
            and type(uses_barrier) is bool and type(uses_fp64) is bool
            and type(n_regs) is int and type(n_mems) is int,
            "function header", func[:10])
    _expect(type(local_arrays) is list
            and all(type(n) is str for n in local_arrays),
            "local arrays", local_arrays)
    _expect(type(params) is list and all(_param(p) for p in params),
            "parameters", params)
    _expect(type(bc_params) is list
            and all(_mem_param(p) or _scalar_param(p) for p in bc_params),
            "bytecode parameters", bc_params)
    _expect(type(reg_names) is list and len(reg_names) == n_regs
            and all(type(n) is str for n in reg_names),
            "register names", reg_names)
    _expect(ret_dtype is None or (type(ret_dtype) is str
                                  and ret_dtype in SCALAR_TYPES),
            "return dtype", ret_dtype)
    sig = Signature(
        name, _decode_type(ret),
        [Param(p, _decode_type(t), r, w) for p, t, r, w in params],
        is_kernel, local_arrays, uses_barrier, uses_fp64)
    bc = KernelBytecode(
        name=name, params=bc_params, n_regs=n_regs, n_mems=n_mems,
        reg_names=reg_names, instrs=_decode_instrs(instrs),
        ret_dtype=ret_dtype, is_kernel=is_kernel)
    return sig, bc
