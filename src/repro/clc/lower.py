"""Lowering of the typed tree IR into flat register bytecode.

Bytecode is the only form the engines execute, at every opt level: at
``-O0`` the lowerer sees the front-end's tree unchanged, at ``-O1``/``-O2``
the tree the rewriting passes left behind.  Walking the tree directly
would cost Python ``isinstance`` dispatch per node per work-item and
re-derive facts (operand dtypes, operator costs, memory spaces) on every
visit, so this module flattens each function once into a register
machine:

* every parameter and declared variable gets a *named register* (flat,
  name-keyed — inner-scope redeclarations share the outer register, as
  C scoping allows once sema has resolved every name);
* every sub-expression gets a dedicated temp register, so register
  indices are fully static;
* constants and work-item queries are deduplicated and hoisted into a
  prologue executed once per activation;
* structured control flow stays structured: ``if`` and ``loop``
  instructions carry the lengths of their nested instruction spans,
  so the serial engine can still implement barriers by yielding from
  nested generators.

Only ``mov`` instructions ever target a variable register; each carries
the variable's uniformity level from the analysis pass, which is what
lets the lock-step engine keep launch-uniform values as true NumPy scalars
(one arithmetic op per *launch* instead of per work-item).

The bytecode is what the engines run: :mod:`repro.clc.binary` stores it,
with the function signatures, in the persistent kernel cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, NamedTuple

import numpy as np

from .builtins import BUILTINS
from . import ir as I
from .types import DOUBLE, PointerType, ScalarType

#: Version of the bytecode encoding.  Part of the disk-cache key (via
#: ``opt_signature``) and checked by the engines before execution.
BYTECODE_VERSION = 1

#: uniformity level meaning "identical across the whole launch"
#: (mirrors repro.clc.passes.uniformity.LAUNCH without the import cycle)
UNIFORM_LAUNCH = 2


# -- serializable containers ------------------------------------------------

class Instr(NamedTuple):
    """One flat instruction.  ``dst``/``a``/``b``/``c`` are register
    indices (-1 = unused); ``aux`` holds op-specific payload.  A tuple,
    so it encodes as the flat 9-element list it decodes from."""
    op: str = ""
    dst: int = -1
    a: int = -1
    b: int = -1
    c: int = -1
    aux: Any = None
    dtype: str | None = None
    line: int = 0
    uniform: int = 0


@dataclass
class KernelBytecode:
    """Flat bytecode of one function (kernel or helper)."""
    name: str = ""
    params: list = field(default_factory=list)
    n_regs: int = 0
    n_mems: int = 0
    reg_names: list = field(default_factory=list)
    instrs: list = field(default_factory=list)
    ret_dtype: str | None = None
    is_kernel: bool = False


@dataclass
class ProgramBytecode:
    """All functions of a translation unit, post-optimization."""
    version: int = BYTECODE_VERSION
    opt_level: int = 0
    pipeline_version: int = 0
    functions: dict = field(default_factory=dict)


# -- opcodes (explicit constants; linked code dispatches on these ints) -----

OP_CONST = 0
OP_MOV = 1
OP_CASTF = 2     # free cast: uncounted implicit conversion
OP_CAST = 3      # counted cast: an explicit Convert node
OP_NEG = 4
OP_BNOT = 5
OP_LNOT = 6
OP_ADD = 7
OP_SUB = 8
OP_MUL = 9
OP_DIV = 10
OP_MOD = 11
OP_SHL = 12
OP_SHR = 13
OP_BAND = 14
OP_BOR = 15
OP_BXOR = 16
OP_CEQ = 17
OP_CNE = 18
OP_CLT = 19
OP_CGT = 20
OP_CLE = 21
OP_CGE = 22
OP_LAND = 23
OP_LOR = 24
OP_SELECT = 25
OP_WIQ = 26
OP_BUILTIN = 27
OP_CALL = 28
OP_LD = 29
OP_ST = 30
OP_ATOMIC = 31
OP_DECLARR = 32
OP_IF = 33
OP_LOOP = 34
OP_BREAK = 35
OP_CONTINUE = 36
OP_RET = 37
OP_BARRIER = 38

_OPCODES = {
    "const": OP_CONST, "mov": OP_MOV, "castf": OP_CASTF, "cast": OP_CAST,
    "neg": OP_NEG, "bnot": OP_BNOT, "lnot": OP_LNOT,
    "add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV,
    "mod": OP_MOD, "shl": OP_SHL, "shr": OP_SHR,
    "band": OP_BAND, "bor": OP_BOR, "bxor": OP_BXOR,
    "ceq": OP_CEQ, "cne": OP_CNE, "clt": OP_CLT, "cgt": OP_CGT,
    "cle": OP_CLE, "cge": OP_CGE, "land": OP_LAND, "lor": OP_LOR,
    "select": OP_SELECT, "wiq": OP_WIQ, "builtin": OP_BUILTIN,
    "call": OP_CALL, "ld": OP_LD, "st": OP_ST, "atomic": OP_ATOMIC,
    "declarr": OP_DECLARR, "if": OP_IF, "loop": OP_LOOP,
    "break": OP_BREAK, "continue": OP_CONTINUE, "ret": OP_RET,
    "barrier": OP_BARRIER,
}

_BINARY_OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
    "<<": "shl", ">>": "shr", "&": "band", "|": "bor", "^": "bxor",
    "==": "ceq", "!=": "cne", "<": "clt", ">": "cgt", "<=": "cle",
    ">=": "cge", "&&": "land", "||": "lor",
}

#: work-item query codes: (qcode, needs dim)
_WIQ_CODES = {
    "get_global_id": 0, "get_local_id": 1, "get_group_id": 2,
    "get_work_dim": 3, "get_global_offset": 4,
    # every other get_* resolves through NDRange.size_of
}

#: address-space codes carried by ld/st/atomic/declarr
SPACE_GLOBAL = 0     # global or constant buffers
SPACE_LOCAL = 1
SPACE_PRIVATE = 2

_SPACE_CODES = {"global": SPACE_GLOBAL, "constant": SPACE_GLOBAL,
                "local": SPACE_LOCAL, "private": SPACE_PRIVATE}


def lower_program(program: I.ProgramIR, opt_level: int,
                  pipeline_version: int) -> ProgramBytecode:
    functions = {
        name: _FuncLowerer(func).lower()
        for name, func in program.functions.items()
    }
    return ProgramBytecode(version=BYTECODE_VERSION, opt_level=opt_level,
                           pipeline_version=pipeline_version,
                           functions=functions)


class _FuncLowerer:
    def __init__(self, func: I.Function) -> None:
        self.func = func
        self.reg_names: list[str] = []
        self.var_regs: dict[str, int] = {}
        self.var_types: dict[str, ScalarType] = {}
        self.mem_slots: dict[str, int] = {}
        self.mem_names: list[str] = []
        self.consts: dict[tuple, int] = {}
        self.wiqs: dict[tuple, int] = {}
        self.prologue: list[Instr] = []
        self.code: list[Instr] = []
        self.uniform_vars = getattr(func, "_uniform_vars", {})

    def lower(self) -> KernelBytecode:
        func = self.func
        params = []
        for p in func.params:
            if isinstance(p.type, PointerType):
                slot = self._mem_slot(p.name)
                elem = p.type.pointee
                params.append(["mem", p.name, elem.name, slot,
                               p.type.address_space, elem.size])
            else:
                reg = self._var_reg(p.name, p.type)
                params.append(["scalar", p.name, p.type.name, reg])
        for stmt in func.body:
            self._stmt(stmt)
        ret = func.return_type
        return KernelBytecode(
            name=func.name, params=params,
            n_regs=len(self.reg_names), n_mems=len(self.mem_names),
            reg_names=list(self.reg_names),
            instrs=self.prologue + self.code,
            ret_dtype=None if ret.is_void else ret.name,
            is_kernel=func.is_kernel)

    # -- registers / slots --------------------------------------------------

    def _new_reg(self, name: str) -> int:
        self.reg_names.append(name)
        return len(self.reg_names) - 1

    def _temp(self) -> int:
        return self._new_reg(f"%t{len(self.reg_names)}")

    def _var_reg(self, name: str, type_) -> int:
        reg = self.var_regs.get(name)
        if reg is None:
            reg = self._new_reg(name)
            self.var_regs[name] = reg
        self.var_types[name] = type_
        return reg

    def _mem_slot(self, name: str) -> int:
        slot = self.mem_slots.get(name)
        if slot is None:
            slot = len(self.mem_names)
            self.mem_names.append(name)
            self.mem_slots[name] = slot
        return slot

    def _const_reg(self, type_: ScalarType, value) -> int:
        key = (type_.name, repr(value))
        reg = self.consts.get(key)
        if reg is None:
            reg = self._new_reg(f"%c{len(self.reg_names)}")
            self.consts[key] = reg
            self.prologue.append(Instr("const", dst=reg, aux=value,
                                       dtype=type_.name,
                                       uniform=UNIFORM_LAUNCH))
        return reg

    def _wiq_reg(self, name: str, dim: int, type_: ScalarType) -> int:
        key = (name, dim)
        reg = self.wiqs.get(key)
        if reg is None:
            reg = self._new_reg(f"%{name.replace('get_', '')}{dim}")
            self.wiqs[key] = reg
            self.prologue.append(Instr("wiq", dst=reg, aux=[name, dim],
                                       dtype=type_.name))
        return reg

    def _var_uniform(self, name: str) -> int:
        return int(self.uniform_vars.get(name, 0))

    def _coerce(self, reg: int, src_type, dst_type, line: int = 0) -> int:
        """Free cast (castf) when the value needs an uncounted implicit
        conversion at an assignment/call/return boundary."""
        if isinstance(src_type, ScalarType) and src_type is dst_type:
            return reg
        tmp = self._temp()
        self.code.append(Instr("castf", dst=tmp, a=reg,
                               dtype=dst_type.name, line=line))
        return tmp

    def _emit_mov(self, name: str, src: int, line: int) -> None:
        dst = self.var_regs[name]
        self.code.append(Instr("mov", dst=dst, a=src,
                               dtype=self.var_types[name].name, line=line,
                               uniform=self._var_uniform(name)))

    def _subspan(self, thunk) -> list[Instr]:
        saved = self.code
        self.code = []
        thunk()
        span = self.code
        self.code = saved
        return span

    # -- statements ---------------------------------------------------------

    def _block(self, stmts: list) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt) -> None:
        if isinstance(stmt, I.DeclVar):
            self._var_reg(stmt.name, stmt.type)
            if stmt.init is not None:
                src = self._expr(stmt.init)
                src = self._coerce(src, stmt.init.type, stmt.type,
                                   stmt.line)
            else:
                src = self._const_reg(stmt.type, 0)
            self._emit_mov(stmt.name, src, stmt.line)
        elif isinstance(stmt, I.DeclArray):
            slot = self._mem_slot(stmt.name)
            nbytes = stmt.size * stmt.element.size
            self.code.append(Instr(
                "declarr", line=stmt.line,
                aux=[slot, stmt.size, stmt.element.name,
                     _SPACE_CODES[stmt.space], stmt.name, nbytes]))
        elif isinstance(stmt, I.Store):
            self._lower_store(stmt)
        elif isinstance(stmt, I.AtomicRMW):
            idx = self._expr(stmt.target.index)
            val = self._expr(stmt.value) if stmt.value is not None else -1
            slot = self._mem_slot(stmt.target.name)
            self.code.append(Instr(
                "atomic", b=idx, c=val, line=stmt.line,
                aux=[stmt.op, slot, _SPACE_CODES[stmt.target.space]]))
        elif isinstance(stmt, I.EvalExpr):
            self._expr(stmt.expr)
        elif isinstance(stmt, I.If):
            cond = self._expr(stmt.cond)
            then_span = self._subspan(lambda: self._block(stmt.then))
            else_span = self._subspan(lambda: self._block(stmt.otherwise))
            self.code.append(Instr(
                "if", a=cond, line=stmt.line,
                aux=[len(then_span), len(else_span)],
                uniform=getattr(stmt.cond, "_uniform", 0)))
            self.code.extend(then_span)
            self.code.extend(else_span)
        elif isinstance(stmt, I.While):
            cond_holder = [-1]

            def lower_cond():
                cond_holder[0] = self._expr(stmt.cond)

            cond_span = self._subspan(lower_cond)
            body_span = self._subspan(lambda: self._block(stmt.body))
            update_span = self._subspan(lambda: self._block(stmt.update))
            self.code.append(Instr(
                "loop", a=cond_holder[0], line=stmt.line,
                aux=[len(cond_span), len(body_span), len(update_span),
                     1 if stmt.is_do_while else 0],
                uniform=getattr(stmt.cond, "_uniform", 0)))
            self.code.extend(cond_span)
            self.code.extend(body_span)
            self.code.extend(update_span)
        elif isinstance(stmt, I.Break):
            self.code.append(Instr("break", line=stmt.line))
        elif isinstance(stmt, I.Continue):
            self.code.append(Instr("continue", line=stmt.line))
        elif isinstance(stmt, I.Return):
            if stmt.value is not None \
                    and not self.func.return_type.is_void:
                src = self._expr(stmt.value)
                src = self._coerce(src, stmt.value.type,
                                   self.func.return_type, stmt.line)
            else:
                src = -1
            self.code.append(Instr("ret", a=src, line=stmt.line))
        elif isinstance(stmt, I.BarrierStmt):
            self.code.append(Instr("barrier", aux=stmt.flags,
                                   line=stmt.line))
        else:  # pragma: no cover
            raise TypeError(
                f"cannot lower statement {type(stmt).__name__}")

    def _lower_store(self, stmt: I.Store) -> None:
        target = stmt.target
        val = self._expr(stmt.value)
        if target.index is None:
            if target.name not in self.var_regs:
                # scalar parameter written before any declaration
                self._var_reg(target.name, target.type)
            val = self._coerce(val, stmt.value.type, target.type,
                               stmt.line)
            self._emit_mov(target.name, val, stmt.line)
            return
        idx = self._expr(target.index)
        slot = self._mem_slot(target.name)
        elem = target.type
        self.code.append(Instr(
            "st", b=idx, c=val, line=stmt.line,
            dtype=elem.name if isinstance(elem, ScalarType) else None,
            aux=[slot, _SPACE_CODES[target.space]]))

    # -- expressions --------------------------------------------------------

    def _expr(self, expr) -> int:
        if isinstance(expr, I.Const):
            value = expr.value
            if hasattr(value, "item"):
                value = value.item()
            return self._const_reg(expr.type, value)
        if isinstance(expr, I.Var):
            reg = self.var_regs.get(expr.name)
            if reg is None:  # pragma: no cover - sema guarantees decls
                raise TypeError(f"undeclared variable {expr.name!r}")
            return reg
        if isinstance(expr, I.Load):
            idx = self._expr(expr.index)
            slot = self._mem_slot(expr.base)
            dst = self._temp()
            self.code.append(Instr(
                "ld", dst=dst, b=idx, line=expr.line,
                dtype=expr.type.name if isinstance(expr.type, ScalarType)
                else None,
                aux=[slot, _SPACE_CODES[expr.space]]))
            return dst
        if isinstance(expr, I.Convert):
            src = self._expr(expr.operand)
            dst = self._temp()
            self.code.append(Instr("cast", dst=dst, a=src,
                                   dtype=expr.type.name, line=expr.line))
            return dst
        if isinstance(expr, I.Unary):
            src = self._expr(expr.operand)
            dst = self._temp()
            op = {"-": "neg", "~": "bnot", "!": "lnot"}[expr.op]
            self.code.append(Instr(op, dst=dst, a=src,
                                   dtype=expr.type.name, line=expr.line))
            return dst
        if isinstance(expr, I.Binary):
            lhs = self._expr(expr.lhs)
            rhs = self._expr(expr.rhs)
            dst = self._temp()
            self.code.append(Instr(
                _BINARY_OPS[expr.op], dst=dst, a=lhs, b=rhs,
                dtype=expr.type.name, line=expr.line))
            return dst
        if isinstance(expr, I.Select):
            cond = self._expr(expr.cond)
            then = self._expr(expr.then)
            other = self._expr(expr.otherwise)
            dst = self._temp()
            self.code.append(Instr(
                "select", dst=dst, a=cond, b=then, c=other,
                dtype=expr.type.name, line=expr.line))
            return dst
        if isinstance(expr, I.CallBuiltin):
            return self._lower_builtin(expr)
        if isinstance(expr, I.CallFunction):
            return self._lower_call(expr)
        raise TypeError(  # pragma: no cover
            f"cannot lower expression {type(expr).__name__}")

    def _lower_builtin(self, expr: I.CallBuiltin) -> int:
        name = expr.name
        if name.startswith("get_"):
            dim = int(expr.args[0].value) if expr.args else 0
            return self._wiq_reg(name, dim, expr.type)
        args = [self._expr(a) for a in expr.args]
        dst = self._temp()
        self.code.append(Instr("builtin", dst=dst, aux=[name, args],
                               dtype=expr.type.name, line=expr.line))
        return dst

    def _lower_call(self, expr: I.CallFunction) -> int:
        # binds are resolved against the callee's param table at link
        # time (the callee may not be lowered yet while we run)
        binds = []
        for arg in expr.args:
            if isinstance(arg, I.Var) and arg.name in self.mem_slots:
                binds.append(["mem", self.mem_slots[arg.name]])
            elif (isinstance(arg, I.Var)
                  and not isinstance(arg.type, ScalarType)):
                binds.append(["mem", self._mem_slot(arg.name)])
            else:
                binds.append(["scalar", self._expr(arg)])
        dst = self._temp()
        self.code.append(Instr(
            "call", dst=dst, aux=[expr.name, binds],
            dtype=expr.type.name if isinstance(expr.type, ScalarType)
            else None,
            line=expr.line))
        return dst


# -- linking ----------------------------------------------------------------
#
# Instr tuples are convenient to store but slow to execute; linking
# converts each into a plain tuple with integer opcodes, numpy dtypes,
# precomputed costs and the temporaries it releases, shared by every
# engine.  The result is cached on the ProgramBytecode instance (an
# ad-hoc attribute the binary codec never sees).

L_OP = 0
L_DST = 1
L_A = 2
L_B = 3
L_C = 4
L_AUX = 5
L_NP = 6
L_SCOST = 7
L_VCOST = 8
L_ISDBL = 9
L_ISFLOAT = 10
L_LINE = 11
L_UNI = 12
#: operand mask of the temporaries that die at an instruction (bit 0
#: ``a``, bit 1 ``b``, bit 2 ``c``, bit 3 + i a builtin's argument i);
#: see :func:`killed_regs`
L_KILL = 13

#: per-op weighted ALU cost of the lock-step engines, in fp32-add units
#: (every other counted op costs 1.0)
_VCOSTS = {OP_DIV: 8.0, OP_MOD: 16.0}

_COUNTED_OPS = frozenset({
    OP_CAST, OP_NEG, OP_BNOT, OP_LNOT, OP_ADD, OP_SUB, OP_MUL, OP_DIV,
    OP_MOD, OP_SHL, OP_SHR, OP_BAND, OP_BOR, OP_BXOR, OP_CEQ, OP_CNE,
    OP_CLT, OP_CGT, OP_CLE, OP_CGE, OP_LAND, OP_LOR, OP_SELECT,
})


#: readers that never release a temporary: they change the mask, run
#: other code or leave the span
_CONTROL_OPS = frozenset({OP_IF, OP_LOOP, OP_CALL, OP_BREAK, OP_CONTINUE,
                          OP_RET})


def killed_regs(ins) -> list:
    """The temporaries a linked instruction releases once it has run:
    the registers its :data:`L_KILL` mask names."""
    kill = ins[L_KILL]
    if not kill:
        return []
    if ins[L_OP] == OP_BUILTIN:
        return [r for i, r in enumerate(ins[L_AUX][1]) if kill >> 3 + i & 1]
    return [ins[L] for bit, L in ((1, L_A), (2, L_B), (4, L_C))
            if kill & bit]


def linked_program(pbc: ProgramBytecode) -> dict:
    """name -> (linked instr tuple list, KernelBytecode) for ``pbc``."""
    cache = getattr(pbc, "_linked", None)
    if cache is None:
        cache = {name: (_link(bc, pbc), bc)
                 for name, bc in pbc.functions.items()}
        pbc._linked = cache
    return cache


#: (op name, dtype name) -> (opcode, NumPy dtype, scalar cost, vector
#: cost, is double, is float, the kill bits it may keep): what linking
#: derives from those two
_STATIC: dict = {}


def _static(op: str, dtype: str | None) -> tuple:
    """The memoized ``_STATIC`` entry of ``(op, dtype)``."""
    from .types import SCALAR_TYPES

    opcode = _OPCODES[op]
    stype = SCALAR_TYPES.get(dtype) if dtype else None
    cost = 1.0 if opcode in _COUNTED_OPS else 0.0
    static = (opcode, stype.np_dtype if stype is not None else None,
              cost, _VCOSTS.get(opcode, cost), stype is DOUBLE,
              bool(stype is not None and stype.is_float),
              0 if opcode in _CONTROL_OPS else 7)
    _STATIC[(op, dtype)] = static
    return static


def _link(bc: KernelBytecode, pbc: ProgramBytecode) -> list:
    from .types import SCALAR_TYPES

    # Temporaries (``%t`` registers) die at their use.  The lowerer
    # writes each once and reads it once, at a later instruction of the
    # same straight-line run, or at the ``loop`` whose condition span
    # computes it.  The instructions are linked last to first, and
    # ``live[r]`` says temporary ``r`` has no read further on, so a read
    # that finds it set is the last one and releases the register
    # (unless the reader is a control instruction).  A temporary read
    # twice is released at its last read only, one written twice at the
    # last read of its second value, and ``live[-1]`` is False: -1
    # names no register.
    live = [*map(str.startswith, bc.reg_names, repeat("%t")), False]
    out = []
    for op, dst, a, b, c, aux, dtype, line, uniform in reversed(bc.instrs):
        static = _STATIC.get((op, dtype)) or _static(op, dtype)
        opcode, np_dtype, scost, vcost, is_double, is_float, keep = static
        kill = live[a] | live[b] << 1 | live[c] << 2
        if kill:
            live[a] = live[b] = live[c] = False
            kill &= keep
        if OP_CONST < opcode <= OP_SELECT:
            pass                            # no payload
        elif opcode == OP_CONST:
            aux = np_dtype.type(aux)
        elif opcode == OP_WIQ:
            name, dim = aux
            aux = (_WIQ_CODES.get(name, 5), int(dim), name)
        elif opcode == OP_BUILTIN:
            name, arg_regs = aux
            builtin = BUILTINS[name]
            scost = vcost = builtin.cost
            aux = (builtin.impl, tuple(arg_regs), name)
            for i, reg in enumerate(arg_regs):
                if live[reg]:
                    live[reg] = False
                    kill |= 8 << i
        elif opcode == OP_CALL:
            fname, binds = aux
            callee = pbc.functions[fname]
            resolved = []
            for bind, p in zip(binds, callee.params):
                if bind[0] == "mem":
                    resolved.append(("mem", bind[1], p[3]))
                else:
                    live[bind[1]] = False
                    pdtype = SCALAR_TYPES[p[2]].np_dtype
                    resolved.append(("scalar", bind[1], p[3], pdtype))
            ret_np = (SCALAR_TYPES[callee.ret_dtype].np_dtype
                      if callee.ret_dtype else None)
            aux = (fname, tuple(resolved), ret_np)
        elif opcode == OP_LD or opcode == OP_ST:
            aux = (int(aux[0]), int(aux[1]))
        elif opcode == OP_ATOMIC:
            aux = (aux[0], int(aux[1]), int(aux[2]))
        elif opcode == OP_DECLARR:
            slot, size, ename, space, name, nbytes = aux
            aux = (int(slot), int(size), SCALAR_TYPES[ename].np_dtype,
                   int(space), name, int(nbytes))
        elif opcode == OP_IF:
            aux = (int(aux[0]), int(aux[1]))
        elif opcode == OP_LOOP:
            aux = (int(aux[0]), int(aux[1]), int(aux[2]), bool(aux[3]))
        elif opcode == OP_BARRIER:
            aux = int(aux or 0)
        out.append((opcode, dst, a, b, c, aux, np_dtype, scost, vcost,
                    is_double, is_float, line, uniform, kill))
    out.reverse()
    return out


# -- disassembly ------------------------------------------------------------

def disassemble(bc: KernelBytecode) -> str:
    """Readable listing of one function's bytecode (for the dump CLI)."""
    lines = [f"{'kernel' if bc.is_kernel else 'function'} {bc.name}"
             f"({', '.join(p[1] for p in bc.params)})"
             f" regs={bc.n_regs} mems={bc.n_mems}"
             + (f" -> {bc.ret_dtype}" if bc.ret_dtype else "")]

    def reg(i):
        return f"r{i}:{bc.reg_names[i]}" if 0 <= i < len(bc.reg_names) \
            else "-"

    indent = 0
    closers: list[int] = []     # instruction counts until dedent
    for pc, ins in enumerate(bc.instrs):
        while closers and closers[-1] == 0:
            closers.pop()
            indent -= 1
        closers = [n - 1 for n in closers]
        parts = [f"{pc:4d}  " + "  " * indent + ins.op]
        if ins.dst >= 0:
            parts.append(reg(ins.dst) + " <-")
        for r in (ins.a, ins.b, ins.c):
            if r >= 0:
                parts.append(reg(r))
        if ins.aux is not None:
            parts.append(f"aux={ins.aux!r}")
        if ins.dtype:
            parts.append(f":{ins.dtype}")
        if ins.uniform:
            parts.append(f"U{ins.uniform}")
        lines.append(" ".join(parts))
        if ins.op == "if":
            spans = int(ins.aux[0]) + int(ins.aux[1])
            if spans:
                closers.append(spans)
                indent += 1
        elif ins.op == "loop":
            spans = int(ins.aux[0]) + int(ins.aux[1]) + int(ins.aux[2])
            if spans:
                closers.append(spans)
                indent += 1
    return "\n".join(lines)
