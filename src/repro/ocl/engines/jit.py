"""The SIMT execution engine: a tiered bytecode JIT.

A program's first launch runs the lock-step bytecode interpreter this
class inherits from :class:`~repro.ocl.engines.vector.VectorEngine`.
From its second launch on, the engine compiles every bytecode function
of the program into generated Python source that executes the whole
work-group as straight NumPy operations with masked divergence — the
per-instruction dispatch loop, tuple indexing and opcode chains of the
interpreter disappear, and consecutive counted ALU instructions charge
the cost counters in one batched add per basic block (exact, because
every static op cost is an integer-valued float).  A kernel launched
once never pays for code generation and Python's ``compile()``.

The generated code mirrors :meth:`VectorEngine._bx_span` operation for
operation — same ``to_dtype`` coercions, same mask algebra, same
transaction counting from actual byte addresses — so buffers, cost
counters and per-line profiler attribution are bit-identical on both
sides of the tier boundary.  Per-line profiling works through the same
``LaunchCollector`` calls, emitted as literal ``(line, cost)`` replay
statements from the instruction→line sidecar the lowerer already stamps
on every instruction.  One shortcut has no interpreter counterpart: a
global access indexed by ``get_global_id(0)`` in a full 1-D launch is a
slice, and its transactions come from the closed form
:func:`~repro.ocl.costmodel.count_contiguous_transactions` — the same
numbers the gather and the measured count give.

Launch counts and compiled functions live on the program's bytecode
object, so they die with the program (``reset_runtime()`` drops both).
A codegen or ``compile()`` failure raises
:class:`~repro.errors.KernelLaunchError` with the cause chained.
"""

from __future__ import annotations

import numpy as np

from ... import trace
from ...clc.builtins import BUILTINS
from ...clc.lower import (L_A, L_AUX, L_B, L_C, L_DST,
                          L_ISDBL, L_ISFLOAT, L_LINE, L_NP, L_UNI,
                          L_VCOST, OP_ADD, OP_ATOMIC, OP_BAND,
                          OP_BARRIER, OP_BNOT, OP_BOR, OP_BREAK,
                          OP_BUILTIN, OP_BXOR,
                          OP_CALL, OP_CAST, OP_CASTF, OP_CEQ, OP_CGE,
                          OP_CGT, OP_CLE, OP_CLT, OP_CNE, OP_CONST,
                          OP_CONTINUE, OP_DECLARR, OP_DIV, OP_IF,
                          OP_LAND, OP_LD, OP_LNOT, OP_LOOP, OP_LOR,
                          OP_MOD, OP_MOV, OP_MUL, OP_NEG, OP_RET,
                          OP_SELECT, OP_SHL, OP_SHR, OP_ST, OP_SUB,
                          OP_WIQ, SPACE_GLOBAL, SPACE_LOCAL,
                          linked_program)
from ...errors import KernelLaunchError
from ..costmodel import (count_contiguous_transactions,
                         count_index_transactions, count_transactions)
from .base import (ATOMIC_UFUNCS, GLOBAL_ID_KEYS, GROUP_ID_KEYS,
                   LOCAL_ID_KEYS, MAX_LOOP_ITERATIONS, Mem,
                   register_engine)
from .carith import (c_idiv_raw, c_imod_raw, c_shl, c_shr, to_dtype,
                     truth)
from .vector import VectorEngine, _BFrame

#: names the generated source expects in its exec namespace
_EXEC_ENV = {
    "np": np,
    "BUILTINS": BUILTINS,
    "ATOMIC_UFUNCS": ATOMIC_UFUNCS,
    "to_dtype": to_dtype,
    "truth": truth,
    # raw variants: generated code always runs under the launch loop's
    # np.errstate(all="ignore"), so per-call errstate guards are waste
    "c_idiv": c_idiv_raw,
    "c_imod": c_imod_raw,
    "c_shl": c_shl,
    "c_shr": c_shr,
    "count_transactions": count_transactions,
    "count_index_transactions": count_index_transactions,
    "count_contiguous_transactions": count_contiguous_transactions,
    "Mem": Mem,
    "BFrame": _BFrame,
    "KernelLaunchError": KernelLaunchError,
}

#: what a bug in the emitter, in ``compile()`` or in the generated
#: module's top level raises
_CODEGEN_ERRORS = (ArithmeticError, AttributeError, LookupError,
                   NameError, RuntimeError, SyntaxError, TypeError,
                   ValueError)


# -- code generation -----------------------------------------------------------------

_ARITH_EXPR = {
    OP_ADD: "R[{a}] + R[{b}]",
    OP_SUB: "R[{a}] - R[{b}]",
    OP_MUL: "R[{a}] * R[{b}]",
    OP_MOD: "c_imod(R[{a}], R[{b}])",
    OP_SHL: "c_shl(R[{a}], R[{b}])",
    OP_SHR: "c_shr(R[{a}], R[{b}])",
    # OP_DIV handled separately (needs the is_float flag)
    OP_BAND: "R[{a}] & R[{b}]",
    OP_BOR: "R[{a}] | R[{b}]",
    OP_BXOR: "R[{a}] ^ R[{b}]",
}

_CMP_EXPR = {
    OP_CEQ: "R[{a}] == R[{b}]",
    OP_CNE: "R[{a}] != R[{b}]",
    OP_CLT: "R[{a}] < R[{b}]",
    OP_CGT: "R[{a}] > R[{b}]",
    OP_CLE: "R[{a}] <= R[{b}]",
    OP_CGE: "R[{a}] >= R[{b}]",
    OP_LAND: "truth(R[{a}]) & truth(R[{b}])",
    OP_LOR: "truth(R[{a}]) | truth(R[{b}])",
}


class _ModuleEmitter:
    """Emits one Python module for a whole ``ProgramBytecode``."""

    def __init__(self, pbc) -> None:
        self.linked = linked_program(pbc)
        self.dtypes: dict[str, str] = {}     # np dtype name -> ref
        self.consts: dict[tuple, str] = {}   # (dtype ref, literal) -> ref
        self.const_lines: list[str] = []
        self.builtins: dict[str, str] = {}
        self.atomics: dict[str, str] = {}

    # -- constant pools --------------------------------------------------------

    def dtype_ref(self, np_dtype) -> str:
        name = np.dtype(np_dtype).name
        ref = f"_D_{name}"
        self.dtypes[name] = ref
        return ref

    def const_ref(self, value) -> str:
        dref = self.dtype_ref(value.dtype)
        if np.issubdtype(value.dtype, np.floating):
            lit = f"float.fromhex({float(value).hex()!r})"
        else:
            lit = repr(int(value))
        key = (dref, lit)
        ref = self.consts.get(key)
        if ref is None:
            ref = f"_K{len(self.consts)}"
            self.consts[key] = ref
            self.const_lines.append(f"{ref} = {dref}.type({lit})")
        return ref

    def builtin_ref(self, name: str) -> str:
        ref = f"_B_{name}"
        self.builtins[name] = ref
        return ref

    def atomic_ref(self, op: str) -> str:
        if op == "dec":
            op = "sub"
        ref = f"_AT_{op}"
        self.atomics[op] = ref
        return ref

    # -- assembly --------------------------------------------------------------

    def generate(self) -> str:
        fn_blocks = []
        for fname in self.linked:
            code, kbc = self.linked[fname]
            fn_blocks.append(_FnEmitter(self, code, kbc).emit())
        lines = [
            "# generated by repro.ocl.engines.jit codegen -- do not edit",
            "import numpy as np",
            "_asarray = np.asarray",
            "_cnz = np.count_nonzero",
            "_ndim = np.ndim",
            "_nmin = np.minimum",
            "_nmax = np.maximum",
            "_where = np.where",
        ]
        for name in sorted(self.dtypes):
            lines.append(f"{self.dtypes[name]} = np.dtype({name!r})")
        lines.extend(self.const_lines)
        for name in sorted(self.builtins):
            lines.append(
                f"{self.builtins[name]} = BUILTINS[{name!r}].impl")
        for op in sorted(self.atomics):
            lines.append(f"{self.atomics[op]} = ATOMIC_UFUNCS[{op!r}].at")
        for block in fn_blocks:
            lines.append("")
            lines.extend(block)
        pairs = ", ".join(f"{name!r}: f_{name}" for name in self.linked)
        lines.append("")
        lines.append(f"FUNCS = {{{pairs}}}")
        return "\n".join(lines) + "\n"


def _gid0_registers(code) -> frozenset:
    """Registers of one linked function that always hold
    ``get_global_id(0)``: every instruction writing one is a work-item
    query of the global id in dimension 0.  A global access indexed by
    such a register gets the contiguous fast path.  The lowerer hoists
    work-item queries into the function's prologue, and a query writes
    every lane, so the register holds the id wherever it is read."""
    gid0: set[int] = set()
    other: set[int] = set()
    for ins in code:
        d = ins[L_DST]
        if d < 0:
            continue
        if ins[0] == OP_WIQ and ins[L_AUX][:2] == (0, 0):
            gid0.add(d)
        else:
            other.add(d)
    return frozenset(gid0 - other)


class _FnEmitter:
    """Emits ``def f_<name>(E, F, mask, full)`` for one bytecode
    function, mirroring ``VectorEngine._bx_span`` exactly."""

    def __init__(self, mod: _ModuleEmitter, code, kbc) -> None:
        self.mod = mod
        self.code = code
        self.kbc = kbc
        self.spans: list[list[str]] = []
        self.n_spans = 0
        self.gid0 = _gid0_registers(code)

    def emit(self) -> list[str]:
        top = self.span_fn(0, len(self.code))
        lines = [f"def f_{self.kbc.name}(E, F, mask, full):"]
        for pre in ("R = F.regs", "M = F.mems", "counters = E.counters",
                    "col = E._col", "n = E.n",
                    "_seg = E.spec.segment_bytes",
                    "_ww = E.spec.warp_size",
                    # lane == get_global_id(0) in a 1-D launch only
                    "_d1 = E.nd.dim == 1"):
            lines.append("    " + pre)
        for span in self.spans:
            lines.extend("    " + s for s in span)
        lines.append(f"    return {top}(mask, full)")
        return lines

    def span_fn(self, pos: int, end: int) -> str:
        name = f"_s{self.n_spans}"
        self.n_spans += 1
        body = self.span_body(pos, end)
        fn = [f"def {name}(mask, full):",
              "    n_act = n if full else int(_cnz(mask))"]
        fn.extend("    " + s for s in body)
        fn.append("    return mask, full")
        self.spans.append(fn)
        return name

    # -- span emission ---------------------------------------------------------

    def _coerce(self, out: list[str], expr: str, np_dtype, dst: int,
                trunc: bool) -> None:
        """Emit ``R[dst] = <expr coerced to np_dtype>``.

        The interpreter coerces through :func:`to_dtype` (``trunc``) or
        ``.astype(dt, copy=False)``; both are identity when the value
        already has the target dtype — the overwhelmingly common case —
        so the generated code guards the (expensive) coercion call with
        a pointer comparison against the interned dtype singleton.  A
        false-negative ``is`` merely re-runs the exact interpreter
        coercion, never changes a value.
        """
        dt = self.mod.dtype_ref(np_dtype)
        out.append(f"_r = {expr}")
        if trunc and np.issubdtype(np_dtype, np.integer):
            # to_dtype differs from a plain cast only for float sources
            # (C truncation toward zero); the target dtype is static, so
            # only the source kind needs a runtime test
            out.append(f"R[{dst}] = _r if _r.dtype is {dt} "
                       f"else (to_dtype(_r, {dt}) if _r.dtype.kind == 'f' "
                       f"else _r.astype({dt}, copy=False))")
        else:
            out.append(f"R[{dst}] = _r if _r.dtype is {dt} "
                       f"else _r.astype({dt}, copy=False)")

    def span_body(self, pos: int, end: int) -> list[str]:
        out: list[str] = []
        #: pending batched ALU charges: (line, cost, is_double)
        pend: list[tuple[int, float, bool]] = []

        def flush() -> None:
            if not pend:
                return
            alu = sum(c for _, c, d in pend if not d)
            fp64 = sum(c for _, c, d in pend if d)
            if alu:
                out.append(f"counters.alu_ops += {alu!r} * n_act")
            if fp64:
                out.append(f"counters.fp64_ops += {fp64!r} * n_act")
            out.append("if col is not None:")
            for line, cost, dbl in pend:
                out.append(f"    col.op({line}, n_act, {cost!r}, "
                           f"{bool(dbl)}, n)")
            pend.clear()

        code = self.code
        while pos < end:
            ins = code[pos]
            op = ins[0]
            d, a, b, c = ins[L_DST], ins[L_A], ins[L_B], ins[L_C]
            line = ins[L_LINE]
            if OP_ADD <= op <= OP_BXOR:
                if op == OP_DIV:
                    # float / inlined: the launch loop's errstate already
                    # ignores divide warnings, so this equals c_div
                    expr = (f"R[{a}] / R[{b}]" if ins[L_ISFLOAT]
                            else f"c_idiv(R[{a}], R[{b}])")
                else:
                    expr = _ARITH_EXPR[op].format(a=a, b=b)
                self._coerce(out, expr, ins[L_NP], d, trunc=True)
                pend.append((line, ins[L_VCOST], bool(ins[L_ISDBL])))
            elif OP_CEQ <= op <= OP_LOR:
                expr = _CMP_EXPR[op].format(a=a, b=b)
                out.append(f"R[{d}] = _asarray({expr}).astype(np.int32)")
                pend.append((line, 1.0, False))
            elif op == OP_MOV:
                if ins[L_UNI] == 2:
                    out.append(f"R[{d}] = R[{a}]")
                else:
                    dt = self.mod.dtype_ref(ins[L_NP])
                    out.extend([
                        "if full:",
                        f"    R[{d}] = R[{a}]",
                        "else:",
                        f"    _o = R[{d}]",
                        "    if _o is None:",
                        f"        _o = {dt}.type(0)",
                        f"    _r = _where(mask, R[{a}], _o)",
                        f"    R[{d}] = _r if _r.dtype is {dt} "
                        f"else _r.astype({dt}, copy=False)",
                    ])
            elif op == OP_CASTF or op == OP_CAST:
                self._coerce(out, f"R[{a}]", ins[L_NP], d, trunc=True)
                if op == OP_CAST:
                    pend.append((line, 1.0, bool(ins[L_ISDBL])))
            elif op == OP_CONST:
                ref = self.mod.const_ref(ins[L_AUX])
                out.append(f"R[{d}] = {ref}")
            elif op == OP_SELECT:
                pend.append((line, 1.0, bool(ins[L_ISDBL])))
                self._coerce(out,
                             f"_where(truth(R[{a}]), R[{b}], R[{c}])",
                             ins[L_NP], d, trunc=False)
            elif op == OP_NEG:
                self._coerce(out, f"(-R[{a}])", ins[L_NP], d,
                             trunc=False)
                pend.append((line, 1.0, bool(ins[L_ISDBL])))
            elif op == OP_BNOT:
                self._coerce(out, f"(~R[{a}])", ins[L_NP], d,
                             trunc=False)
                pend.append((line, 1.0, False))
            elif op == OP_LNOT:
                out.append(f"R[{d}] = np.logical_not(truth(R[{a}]))"
                           ".astype(np.int32)")
                pend.append((line, 1.0, False))
            elif op == OP_WIQ:
                qcode, dim, name = ins[L_AUX]
                if qcode == 0:
                    expr = f"E.ids[{GLOBAL_ID_KEYS[dim]!r}]"
                elif qcode == 1:
                    expr = f"E.ids[{LOCAL_ID_KEYS[dim]!r}]"
                elif qcode == 2:
                    expr = f"E.ids[{GROUP_ID_KEYS[dim]!r}]"
                elif qcode == 3:
                    expr = "np.int32(E.nd.dim)"
                elif qcode == 4:
                    expr = "np.int64(0)"
                else:
                    expr = f"np.int64(E.nd.size_of({name!r}, {dim}))"
                self._coerce(out, expr, ins[L_NP], d, trunc=True)
            elif op == OP_BUILTIN:
                _impl, arg_regs, name = ins[L_AUX]
                bref = self.mod.builtin_ref(name)
                args = ", ".join(f"R[{r}]" for r in arg_regs)
                pend.append((line, ins[L_VCOST], bool(ins[L_ISDBL])))
                self._coerce(out, f"{bref}({args})", ins[L_NP], d,
                             trunc=True)
            elif op == OP_LD:
                flush()
                self._emit_ld(out, ins)
            elif op == OP_ST:
                flush()
                self._emit_st(out, ins)
            elif op == OP_ATOMIC:
                flush()
                self._emit_atomic(out, ins)
            elif op == OP_DECLARR:
                flush()
                self._emit_declarr(out, ins)
            elif op == OP_BARRIER:
                flush()
                out.extend([
                    "if full:",
                    "    _ag = E.nd.total_groups",
                    "else:",
                    "    _ag = int(np.unique(E.group_flat[mask]).size)",
                    "counters.barriers += _ag",
                    "if col is not None:",
                    f"    col.barrier({line}, _ag)",
                ])
            elif op == OP_CALL:
                flush()
                self._emit_call(out, ins)
            elif op == OP_IF:
                flush()
                tlen, elen = ins[L_AUX]
                body = pos + 1
                self._emit_if(out, ins, body, tlen, elen)
                pos = body + tlen + elen
                continue
            elif op == OP_LOOP:
                flush()
                self._emit_loop(out, ins, pos)
                clen, blen, ulen, _ = ins[L_AUX]
                pos = pos + 1 + clen + blen + ulen
                continue
            elif op == OP_BREAK:
                flush()
                out.append("return E._dead, False")
                return out
            elif op == OP_CONTINUE:
                flush()
                out.extend([
                    "_cm = E._bloops[-1]",
                    "E._bloops[-1] = mask if _cm is None else (_cm | mask)",
                    "return E._dead, False",
                ])
                return out
            elif op == OP_RET:
                flush()
                if a >= 0:
                    out.extend([
                        "if F.ret_np is not None:",
                        f"    _v = R[{a}]",
                        "    if _v.dtype is not F.ret_np:",
                        "        _v = to_dtype(_v, F.ret_np)",
                        "    _p = F.ret_value",
                        "    if _p is None:",
                        "        _p = np.zeros(n, dtype=F.ret_np)",
                        "    F.ret_value = _where(mask, _v, _p)"
                        ".astype(F.ret_np, copy=False)",
                    ])
                out.extend([
                    "if F.return_mask is None:",
                    "    F.return_mask = mask",
                    "else:",
                    "    F.return_mask = F.return_mask | mask",
                    "return E._dead, False",
                ])
                return out
            else:  # pragma: no cover - lowerer never emits others
                raise NotImplementedError(f"jit: opcode {op}")
            pos += 1
        flush()
        return out

    # -- memory / structured ops ----------------------------------------------

    def _emit_index(self, out: list[str], b: int, line: int) -> None:
        """Shared ST/ATOMIC (and non-global LD) prologue, with the
        memory in ``_m``: broadcast the index register, bounds-check,
        clamp (``np.clip`` equivalent, via the cheaper minimum/maximum
        ufuncs)."""
        out.extend([
            f"_i = E._broadcast(R[{b}])",
            # when every lane (active or not) is in bounds, the exact
            # check cannot raise and the clamp is the identity
            "if 0 <= _i.min() and _i.max() < _m.size:",
            "    _s = _i",
            "else:",
            f"    E._check_bounds(_i, _m, mask, {line})",
            "    _s = _nmin(_nmax(_i, 0), _m.size - 1)",
        ])

    def _emit_global(self, out: list[str], slot: int, b: int,
                     fast: list[str], general: list[str]) -> None:
        """Emit a global access: ``general`` always works; when the
        index register ``b`` is ``get_global_id(0)`` (see
        :func:`_gid0_registers`), ``fast`` runs instead whenever lane
        ``i`` touches element ``i``, i.e. a full 1-D launch that fits
        the buffer.  Both leave the transaction count in ``_t``."""
        out.extend([f"_m = M[{slot}]", "_z = _m.array.dtype.itemsize"])
        if b not in self.gid0:
            out.extend(general)
            return
        out.append("if full and _d1 and n <= _m.size:")
        out.extend("    " + s for s in fast)
        out.append("    _t = count_contiguous_transactions(n, _seg, _z, _ww)")
        out.append("else:")
        out.extend("    " + s for s in general)

    def _emit_ld(self, out: list[str], ins) -> None:
        slot, space = ins[L_AUX]
        d, b, line = ins[L_DST], ins[L_B], ins[L_LINE]
        if space == SPACE_GLOBAL:
            # ``take`` fuses the upper-bound check into the gather (it
            # raises IndexError past the end, and the min() guard rules
            # out the negative wrap-around), so the general path runs
            # one reduction + one gather instead of two reductions + a
            # fancy index.  The contiguous path copies its slice: a
            # view would see later stores to the same buffer.
            self._emit_global(out, slot, b, ["_r = _m.array[:n].copy()"], [
                f"_i = E._broadcast(R[{b}])",
                "_r = None",
                "if 0 <= _i.min():",
                "    try:",
                "        _r = _m.array.take(_i)",
                "        _s = _i",
                "    except IndexError:",
                "        pass",
                "if _r is None:",
                f"    E._check_bounds(_i, _m, mask, {line})",
                "    _s = _nmin(_nmax(_i, 0), _m.size - 1)",
                "    _r = _m.array[_s]",
                "_wp = E.warp_ids",
                "_t = count_index_transactions(_s if full else _s[mask],"
                " _wp if full else _wp[mask], _seg, _z,"
                " _ww if full else 0)",
            ])
            out.extend([
                "counters.global_loads += n_act",
                "counters.global_load_bytes += n_act * _z",
                "counters.global_load_transactions += _t",
                "if col is not None:",
                f"    col.mem({line}, n_act, n_act * _z, _t, False, n)",
                f"R[{d}] = _r",
            ])
            return
        out.append(f"_m = M[{slot}]")
        self._emit_index(out, b, line)
        if space == SPACE_LOCAL:
            out.extend([
                "counters.local_accesses += n_act",
                "if col is not None:",
                f"    col.local({line}, n_act, n)",
                f"R[{d}] = _m.array[E.group_flat, _s]",
            ])
        else:
            out.extend([
                "counters.alu_ops += n_act",
                "if col is not None:",
                f"    col.op({line}, n_act, 1.0, False, n)",
                f"R[{d}] = _m.array[E.lane, _s]",
            ])

    def _emit_st(self, out: list[str], ins) -> None:
        slot, space = ins[L_AUX]
        b, c, line = ins[L_B], ins[L_C], ins[L_LINE]
        value = [
            f"_v = E._broadcast(R[{c}])",
            "if _v.dtype is not _m.array.dtype:",
            "    _v = to_dtype(_v, _m.array.dtype)",
        ]
        if space == SPACE_GLOBAL:
            general: list[str] = []
            self._emit_index(general, b, line)
            general.extend(value)
            general.extend([
                "_sm = _s if full else _s[mask]",
                "_m.array[_sm] = _v if full else _v[mask]",
                "_wp = E.warp_ids",
                "_t = count_index_transactions(_sm,"
                " _wp if full else _wp[mask], _seg, _z,"
                " _ww if full else 0)",
            ])
            self._emit_global(out, slot, b, value + ["_m.array[:n] = _v"],
                              general)
            out.extend([
                "counters.global_stores += n_act",
                "counters.global_store_bytes += n_act * _z",
                "counters.global_store_transactions += _t",
                "if col is not None:",
                f"    col.mem({line}, n_act, n_act * _z, _t, True, n)",
            ])
            return
        out.append(f"_m = M[{slot}]")
        self._emit_index(out, b, line)
        out.extend(value)
        out.extend([
            "_sm = _s if full else _s[mask]",
            "_vm = _v if full else _v[mask]",
        ])
        if space == SPACE_LOCAL:
            out.extend([
                "_g = E.group_flat",
                "_m.array[_g if full else _g[mask], _sm] = _vm",
                "counters.local_accesses += n_act",
                "if col is not None:",
                f"    col.local({line}, n_act, n)",
            ])
        else:
            out.extend([
                "_l = E.lane",
                "_m.array[_l if full else _l[mask], _sm] = _vm",
                "counters.alu_ops += n_act",
                "if col is not None:",
                f"    col.op({line}, n_act, 1.0, False, n)",
            ])

    def _emit_atomic(self, out: list[str], ins) -> None:
        opstr, slot, space = ins[L_AUX]
        b, c, line = ins[L_B], ins[L_C], ins[L_LINE]
        at = self.mod.atomic_ref(opstr)
        out.append(f"_m = M[{slot}]")
        self._emit_index(out, b, line)
        out.append("_sm = _s if full else _s[mask]")
        if c >= 0:
            out.extend([
                f"_v = E._broadcast(R[{c}])",
                "if _v.dtype is not _m.array.dtype:",
                "    _v = to_dtype(_v, _m.array.dtype)",
                "_vm = _v if full else _v[mask]",
            ])
        else:
            out.append("_vm = np.ones(n_act, dtype=_m.array.dtype)")
        if space == SPACE_LOCAL:
            out.extend([
                "_g = E.group_flat",
                "_g = _g if full else _g[mask]",
                "counters.local_accesses += 2 * n_act",
                "if col is not None:",
                f"    col.local({line}, 2 * n_act, n)",
                f"{at}(_m.array, (_g, _sm), _vm)",
            ])
        else:
            out.extend([
                "_z = _m.array.dtype.itemsize",
                "counters.global_loads += n_act",
                "counters.global_stores += n_act",
                "counters.global_load_bytes += n_act * _z",
                "counters.global_store_bytes += n_act * _z",
                "_wp = E.warp_ids",
                "_t = count_index_transactions(_sm,"
                " _wp if full else _wp[mask], _seg, _z,"
                " _ww if full else 0)",
                "counters.global_load_transactions += _t",
                "counters.global_store_transactions += _t",
                "if col is not None:",
                f"    col.mem({line}, n_act, n_act * _z, _t, False, n)",
                f"    col.mem({line}, n_act, n_act * _z, _t, True, n)",
                f"{at}(_m.array, _sm, _vm)",
            ])

    def _emit_declarr(self, out: list[str], ins) -> None:
        slot, size, np_dtype, space, name, nbytes = ins[L_AUX]
        dt = self.mod.dtype_ref(np_dtype)
        out.append(f"if M[{slot}] is None:")
        if space == SPACE_LOCAL:
            out.extend([
                f"    E._account_local({nbytes})",
                f"    M[{slot}] = Mem(np.zeros((E.nd.total_groups, "
                f"{size}), dtype={dt}), 'local', 'local', {name!r})",
            ])
        else:
            out.append(
                f"    M[{slot}] = Mem(np.zeros((n, {size}), dtype={dt}),"
                f" 'private', 'private', {name!r})")

    def _emit_call(self, out: list[str], ins) -> None:
        fname, binds, ret_np = ins[L_AUX]
        d = ins[L_DST]
        _ccode, ckbc = self.mod.linked[fname]
        if ret_np is None:
            rref = "None"
        else:
            rref = self.mod.dtype_ref(ret_np)
        out.append(f"_cf = BFrame({ckbc.n_regs}, {ckbc.n_mems}, {rref})")
        for bind in binds:
            if bind[0] == "mem":
                out.append(f"_cf.mems[{bind[2]}] = M[{bind[1]}]")
            else:
                pdt = self.mod.dtype_ref(bind[3])
                out.append(f"_r = R[{bind[1]}]")
                out.append(f"_cf.regs[{bind[2]}] = _r if _r.dtype is "
                           f"{pdt} else to_dtype(_r, {pdt})")
        out.append(f"f_{fname}(E, _cf, mask, full)")
        if ret_np is None:
            out.append(f"R[{d}] = np.int32(0)")
        else:
            out.extend([
                "_rv = _cf.ret_value",
                f"R[{d}] = _rv if _rv is not None else {rref}.type(0)",
            ])

    # -- control flow -----------------------------------------------------------

    def _emit_if(self, out: list[str], ins, body: int, tlen: int,
                 elen: int) -> None:
        creg, line = ins[L_A], ins[L_LINE]
        s_then = self.span_fn(body, body + tlen)
        s_else = (self.span_fn(body + tlen, body + tlen + elen)
                  if elen else None)
        out.append(f"_c = R[{creg}]")
        out.append("if _ndim(_c) == 0:")
        out.append("    if _c != 0:")
        out.append(f"        mask, full = {s_then}(mask, full)")
        if s_else is not None:
            out.append("    else:")
            out.append(f"        mask, full = {s_else}(mask, full)")
        out.extend([
            "else:",
            "    _cb = truth(_c)",
            "    _tm = mask & _cb",
            "    _em = mask & ~_cb",
            "    if col is not None:",
            f"        col.branch({line}, n_act, int(_cnz(_tm)))",
            "    if _tm.any():",
            f"        _ot, _x = {s_then}(_tm, False)",
            "    else:",
            "        _ot = _tm",
        ])
        if s_else is not None:
            out.extend([
                "    if _em.any():",
                f"        _oe, _x = {s_else}(_em, False)",
                "    else:",
                "        _oe = _em",
            ])
        else:
            out.append("    _oe = _em")
        out.extend([
            "    mask = _ot | _oe",
            "    full = bool(mask.all())",
            "if not full and not mask.any():",
            "    return mask, full",
            "n_act = n if full else int(_cnz(mask))",
        ])

    def _emit_loop(self, out: list[str], ins, pos: int) -> None:
        clen, blen, ulen, is_do = ins[L_AUX]
        creg, line = ins[L_A], ins[L_LINE]
        cond_start = pos + 1
        body_start = cond_start + clen
        upd_start = body_start + blen
        end_pos = upd_start + ulen
        s_cond = self.span_fn(cond_start, body_start)
        s_body = self.span_fn(body_start, upd_start)
        s_upd = self.span_fn(upd_start, end_pos) if ulen else None
        out.extend([
            "_act = mask",
            "_af = full",
            f"_first = {bool(is_do)}",
            "_it = 0",
            "while True:",
            "    if not _first:",
            "        if not (_af or _act.any()):",
            "            break",
            f"        _act, _af = {s_cond}(_act, _af)",
            f"        _c = R[{creg}]",
            "        if _ndim(_c) == 0:",
            "            if _c == 0:",
            "                break",
            "        else:",
            "            _cb = truth(_c)",
            "            if not (_af and bool(_cb.all())):",
            "                _act = _act & _cb",
            "                _af = False",
            "    _first = False",
            "    if not (_af or _act.any()):",
            "        break",
            "    E._bloops.append(None)",
            f"    _aft, _x = {s_body}(_act, _af)",
            "    _cm = E._bloops.pop()",
            "    if _cm is not None:",
            "        _aft = _aft | _cm",
            "    _af = bool(_aft.all())",
        ])
        if s_upd is not None:
            out.extend([
                "    if _af or _aft.any():",
                f"        {s_upd}(_aft, _af)",
            ])
        out.extend([
            "    _act = _aft",
            "    _it += 1",
            f"    if _it > {MAX_LOOP_ITERATIONS}:",
            "        raise KernelLaunchError(",
            f"            'loop at line {line} exceeded "
            f"{MAX_LOOP_ITERATIONS} iterations (infinite loop?)')",
            "if F.return_mask is not None:",
            "    mask = mask & ~F.return_mask",
            "    full = bool(mask.all())",
            "    if not full and not mask.any():",
            "        return mask, full",
            "    n_act = n if full else int(_cnz(mask))",
        ])


def generate_module(pbc) -> str:
    """Generated Python module source for every function of ``pbc``."""
    return _ModuleEmitter(pbc).generate()


def load_module(source: str):
    """Exec generated module source; returns its name->function dict."""
    ns = dict(_EXEC_ENV)
    exec(compile(source, "<hpl-jit>", "exec"), ns)
    return ns["FUNCS"]


# -- the engine ----------------------------------------------------------------------


@register_engine
class JitEngine(VectorEngine):
    """Whole-NDRange lock-step execution: interpreted while a program is
    cold, through generated NumPy code once it is hot.

    Inherits the vector engine's launch plumbing, argument binding,
    interpreter and bounds/atomic helpers; a hot program's launches
    replace only the bytecode execution path with compiled functions.
    """

    name = "jit"

    #: a program runs compiled code from this launch of it on
    _HOT_LAUNCHES = 2

    @staticmethod
    def prebuild(binary, spec) -> None:
        """Compile every function of ``binary``'s bytecode (the tier-up
        step) and memoize the result on the bytecode object, which
        every later engine instance for the program shares.  ``spec``
        is the device the launch runs on; the generated code reads its
        warp and segment sizes at run time."""
        pbc = binary.bytecode
        with trace.span("jit_compile", category="simcl",
                        device=spec.name):
            try:
                pbc._jit = load_module(generate_module(pbc))
            except _CODEGEN_ERRORS as exc:
                raise KernelLaunchError(
                    f"code generation failed for kernels "
                    f"{sorted(binary.kernels)}: "
                    f"{type(exc).__name__}: {exc}") from exc

    def _run_bytecode(self, entry, args) -> str:
        pbc = self.program.bytecode
        # unlocked: a count lost to a concurrent launch only delays the
        # tier-up, and two concurrent tier-ups build the same functions
        pbc._launches = getattr(pbc, "_launches", 0) + 1
        if pbc._launches < self._HOT_LAUNCHES:
            return super()._run_bytecode(entry, args)
        if getattr(pbc, "_jit", None) is None:
            # through the class attribute, where the benchmark's
            # per-layer ledger looks it up
            JitEngine.prebuild(self.program, self.spec)
        _code, kbc = entry
        frame = self._bc_frame(kbc, args)
        self._bloops = []
        self._dead = np.zeros(self.n, dtype=bool)
        mask = np.ones(self.n, dtype=bool)
        pbc._jit[kbc.name](self, frame, mask, True)
        return "compiled"
