"""Per-work-item reference interpreter.

Executes work-groups one at a time; inside a group, every work-item runs
as a Python generator that yields when it reaches a ``barrier()``.  The
group driver advances all items to the barrier before any item proceeds —
real OpenCL barrier semantics, including detection of divergent barriers
(some items reach a barrier other items never execute), which the real
hardware turns into a hang.

This engine is deliberately simple and slow.  It exists as the correctness
oracle for :class:`~repro.ocl.engines.vector.VectorEngine` (the two are
differentially tested) and to run small problems in tests.
"""

from __future__ import annotations

import numpy as np

from ... import prof, trace
from ...clc.lower import (L_A, L_AUX, L_B, L_C, L_DST,
                          L_ISDBL, L_ISFLOAT, L_LINE, L_NP, L_SCOST,
                          OP_ADD, OP_ATOMIC,
                          OP_BARRIER, OP_BNOT, OP_BREAK,
                          OP_BUILTIN, OP_BXOR, OP_CALL, OP_CAST, OP_CASTF,
                          OP_CEQ,
                          OP_CONST, OP_CONTINUE, OP_DECLARR,
                          OP_IF, OP_LD, OP_LNOT, OP_LOOP,
                          OP_LOR,
                          OP_MOV, OP_NEG, OP_RET, OP_SELECT,
                          OP_ST, OP_WIQ,
                          SPACE_GLOBAL, SPACE_LOCAL)
from ...clc.types import SCALAR_TYPES
from ...errors import InvalidKernelArgs, KernelLaunchError, OutOfResources
from ..costmodel import CostCounters
from .base import (ATOMIC_UFUNCS, MAX_LOOP_ITERATIONS, BufferBinding,
                   LocalBinding, check_args, launch_ndrange, linked_entry,
                   register_engine, wiq_value)
from .carith import binary_value, compare_value, to_dtype

_MAX_LOOP_ITERATIONS = MAX_LOOP_ITERATIONS


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value=None) -> None:
        self.value = value
        super().__init__()


class _SMem:
    """Shared or private memory object (serial engine)."""

    __slots__ = ("array", "name")

    def __init__(self, array: np.ndarray, name: str) -> None:
        self.array = array
        self.name = name

    @property
    def size(self) -> int:
        return self.array.shape[-1]


@register_engine
class SerialEngine:
    """Execute a kernel launch one work-item at a time (with barriers)."""

    name = "serial"

    def __init__(self, program, spec) -> None:
        self.program = program
        self.spec = spec
        #: per-launch profiler collector; None whenever profiling is off
        self._col = None

    def run(self, kernel_name: str, args: list, global_size,
            local_size=None) -> CostCounters:
        kernel = self.program.functions.get(kernel_name)
        if kernel is None or not kernel.is_kernel:
            raise InvalidKernelArgs(f"no kernel named {kernel_name!r}")
        check_args(kernel, args, self.spec)
        nd = launch_ndrange(global_size, local_size, self.spec)
        self.nd = nd
        self.counters = CostCounters(work_items=nd.total_items,
                                     work_groups=nd.total_groups)

        self._linked, entry = linked_entry(self.program, kernel_name)
        self._col = prof.begin_launch(kernel_name, self.name, self.spec,
                                      self.program.source,
                                      nd.total_items, nd.total_groups)
        try:
            with trace.span("engine_run", category="simcl",
                            engine=self.name, kernel=kernel_name,
                            work_items=nd.total_items):
                with np.errstate(all="ignore"):
                    self._run_bytecode(entry, kernel, args)
                prof.finish_launch(self._col, self.counters)
        finally:
            self._col = None
        return self.counters

    # -- group driving -------------------------------------------------------------

    def _drive_group(self, gens: list) -> None:
        live = list(range(len(gens)))
        while live:
            arrived: dict[int, object] = {}
            finished: list[int] = []
            for i in live:
                try:
                    arrived[i] = next(gens[i])
                except StopIteration:
                    finished.append(i)
            if arrived and finished:
                raise KernelLaunchError(
                    "barrier divergence: some work-items of a group "
                    "finished while others wait at a barrier")
            if arrived:
                stmts = set(id(s) for s in arrived.values())
                if len(stmts) > 1:
                    raise KernelLaunchError(
                        "barrier divergence: work-items of a group reached "
                        "different barrier() statements")
                self.counters.barriers += 1
                col = self._col
                if col is not None:
                    col.barrier(next(iter(arrived.values()))[L_LINE], 1)
            live = [i for i in live if i not in finished]
            if not arrived:
                break

    # -- setup ----------------------------------------------------------------------

    def _make_local_mems(self, kernel, args) -> dict[str, _SMem]:
        mems: dict[str, _SMem] = {}
        local_bytes = 0
        for param, arg in zip(kernel.params, args):
            if isinstance(arg, LocalBinding):
                elem = param.type.pointee
                nelems = arg.nbytes // elem.size
                local_bytes += arg.nbytes
                mems[param.name] = _SMem(
                    np.zeros(nelems, dtype=elem.np_dtype), param.name)
        if local_bytes > self.spec.local_mem_bytes:
            raise OutOfResources(
                f"work-group needs {local_bytes} B of local memory; "
                f"{self.spec.name} provides {self.spec.local_mem_bytes} B")
        return mems

    # -- bytecode interpreter ------------------------------------------------
    #
    # One flat dispatch per instruction.  Every result goes through the
    # same to_dtype coercions as the lock-step engines, and the
    # generators yield the barrier instruction itself, so _drive_group
    # detects divergence by instruction identity.

    def _run_bytecode(self, entry, kernel, args) -> None:
        code, kbc = entry
        nd = self.nd
        ipg = nd.items_per_group
        scalar_binds = []
        buffer_binds = []
        local_params = []
        for p, arg in zip(kbc.params, args):
            if p[0] == "scalar":
                dtype = SCALAR_TYPES[p[2]].np_dtype
                scalar_binds.append((p[3], dtype.type(arg.value)))
            elif isinstance(arg, BufferBinding):
                buffer_binds.append((p[3], _SMem(arg.array, p[1])))
            else:
                local_params.append((p[3], p[1]))
        for group in range(nd.total_groups):
            local_mems = self._make_local_mems(kernel, args)
            group_decls: dict[int, _SMem] = {}
            gens = []
            for within in range(ipg):
                flat = group * ipg + within
                gens.append(self._bc_item(code, kbc, flat, scalar_binds,
                                          buffer_binds, local_params,
                                          local_mems, group_decls))
            self._drive_group(gens)

    def _bc_item(self, code, kbc, flat, scalar_binds, buffer_binds,
                 local_params, local_mems, group_decls):
        regs: list = [None] * kbc.n_regs
        mems: list = [None] * kbc.n_mems
        for reg, value in scalar_binds:
            regs[reg] = value
        for slot, mem in buffer_binds:
            mems[slot] = mem
        for slot, name in local_params:
            mems[slot] = local_mems[name]
        ids = self.nd.item_ids(flat)
        try:
            yield from self._bc_span(code, 0, len(code), regs, mems, ids,
                                     group_decls)
        except _ReturnSignal:
            pass

    def _bc_span(self, code, pos, end, regs, mems, ids, gl):
        counters = self.counters
        col = self._col
        while pos < end:
            ins = code[pos]
            op = ins[0]
            if OP_ADD <= op <= OP_BXOR:
                result = binary_value(op, regs[ins[L_A]], regs[ins[L_B]],
                                      ins[L_ISFLOAT])
                dtype = ins[L_NP]
                regs[ins[L_DST]] = dtype.type(
                    np.asarray(to_dtype(result, dtype)))
                if ins[L_ISDBL]:
                    counters.fp64_ops += 1.0
                else:
                    counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, ins[L_ISDBL])
            elif OP_CEQ <= op <= OP_LOR:
                r = compare_value(op, regs[ins[L_A]], regs[ins[L_B]])
                regs[ins[L_DST]] = np.int32(1) if r else np.int32(0)
                counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, False)
            elif op == OP_MOV:
                regs[ins[L_DST]] = regs[ins[L_A]]
            elif op == OP_LD:
                slot, space = ins[L_AUX]
                mem: _SMem = mems[slot]
                idx = int(regs[ins[L_B]])
                self._bounds(idx, mem, ins[L_LINE])
                if space == SPACE_GLOBAL:
                    itemsize = mem.array.dtype.itemsize
                    counters.global_loads += 1
                    counters.global_load_bytes += itemsize
                    counters.global_load_transactions += 1
                    if col is not None:
                        col.mem(ins[L_LINE], 1, itemsize, 1, False)
                elif space == SPACE_LOCAL:
                    counters.local_accesses += 1
                    if col is not None:
                        col.local(ins[L_LINE], 1)
                else:
                    counters.alu_ops += 1
                    if col is not None:
                        col.op(ins[L_LINE], 1, 1.0, False)
                regs[ins[L_DST]] = mem.array[idx]
            elif op == OP_ST:
                value = regs[ins[L_C]]
                slot, space = ins[L_AUX]
                mem = mems[slot]
                idx = int(regs[ins[L_B]])
                self._bounds(idx, mem, ins[L_LINE])
                mem.array[idx] = np.asarray(to_dtype(value,
                                                     mem.array.dtype))
                if space == SPACE_GLOBAL:
                    itemsize = mem.array.dtype.itemsize
                    counters.global_stores += 1
                    counters.global_store_bytes += itemsize
                    counters.global_store_transactions += 1
                    if col is not None:
                        col.mem(ins[L_LINE], 1, itemsize, 1, True)
                elif space == SPACE_LOCAL:
                    counters.local_accesses += 1
                    if col is not None:
                        col.local(ins[L_LINE], 1)
            elif op == OP_CASTF or op == OP_CAST:
                dtype = ins[L_NP]
                regs[ins[L_DST]] = dtype.type(
                    np.asarray(to_dtype(regs[ins[L_A]], dtype)))
                if op == OP_CAST:
                    if ins[L_ISDBL]:
                        counters.fp64_ops += 1.0
                    else:
                        counters.alu_ops += 1.0
                    if col is not None:
                        col.op(ins[L_LINE], 1, 1.0, ins[L_ISDBL])
            elif op == OP_CONST:
                regs[ins[L_DST]] = ins[L_AUX]
            elif op == OP_SELECT:
                if ins[L_ISDBL]:
                    counters.fp64_ops += 1.0
                else:
                    counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, ins[L_ISDBL])
                regs[ins[L_DST]] = (regs[ins[L_B]]
                                    if regs[ins[L_A]] != 0
                                    else regs[ins[L_C]])
            elif op == OP_NEG:
                dtype = ins[L_NP]
                regs[ins[L_DST]] = dtype.type(
                    np.asarray(to_dtype(-regs[ins[L_A]], dtype)))
                if ins[L_ISDBL]:
                    counters.fp64_ops += 1.0
                else:
                    counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, ins[L_ISDBL])
            elif op == OP_BNOT:
                regs[ins[L_DST]] = ins[L_NP].type(~regs[ins[L_A]])
                counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, False)
            elif op == OP_LNOT:
                regs[ins[L_DST]] = (np.int32(0) if regs[ins[L_A]] != 0
                                    else np.int32(1))
                counters.alu_ops += 1.0
                if col is not None:
                    col.op(ins[L_LINE], 1, 1.0, False)
            elif op == OP_WIQ:
                qcode, dim, name = ins[L_AUX]
                value = wiq_value(qcode, dim, name, ids, self.nd)
                regs[ins[L_DST]] = ins[L_NP].type(value)
            elif op == OP_BUILTIN:
                impl, arg_regs, _name = ins[L_AUX]
                bargs = [regs[r] for r in arg_regs]
                if ins[L_ISDBL]:
                    counters.fp64_ops += ins[L_SCOST]
                else:
                    counters.alu_ops += ins[L_SCOST]
                if col is not None:
                    col.op(ins[L_LINE], 1, ins[L_SCOST], ins[L_ISDBL])
                dtype = ins[L_NP]
                regs[ins[L_DST]] = dtype.type(
                    np.asarray(to_dtype(impl(*bargs), dtype)))
            elif op == OP_IF:
                tlen, elen = ins[L_AUX]
                body = pos + 1
                if regs[ins[L_A]] != 0:
                    yield from self._bc_span(code, body, body + tlen,
                                             regs, mems, ids, gl)
                else:
                    yield from self._bc_span(code, body + tlen,
                                             body + tlen + elen,
                                             regs, mems, ids, gl)
                pos = body + tlen + elen
                continue
            elif op == OP_LOOP:
                clen, blen, ulen, is_do = ins[L_AUX]
                cond_start = pos + 1
                body_start = cond_start + clen
                upd_start = body_start + blen
                end_pos = upd_start + ulen
                creg = ins[L_A]
                first = is_do
                iterations = 0
                while True:
                    if not first:
                        yield from self._bc_span(code, cond_start,
                                                 body_start, regs, mems,
                                                 ids, gl)
                        if not regs[creg] != 0:
                            break
                    first = False
                    try:
                        yield from self._bc_span(code, body_start,
                                                 upd_start, regs, mems,
                                                 ids, gl)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        pass
                    if ulen:
                        yield from self._bc_span(code, upd_start, end_pos,
                                                 regs, mems, ids, gl)
                    iterations += 1
                    if iterations > _MAX_LOOP_ITERATIONS:
                        raise KernelLaunchError(
                            f"loop at line {ins[L_LINE]} exceeded "
                            f"iteration limit")
                pos = end_pos
                continue
            elif op == OP_BARRIER:
                yield ins
            elif op == OP_ATOMIC:
                self._bc_atomic(ins, regs, mems)
            elif op == OP_DECLARR:
                slot, size, np_dtype, space, name, _nbytes = ins[L_AUX]
                if space == SPACE_LOCAL:
                    mem = gl.get(slot)
                    if mem is None:
                        mem = _SMem(np.zeros(size, dtype=np_dtype), name)
                        gl[slot] = mem
                    mems[slot] = mem
                else:
                    mems[slot] = _SMem(np.zeros(size, dtype=np_dtype),
                                       name)
            elif op == OP_CALL:
                yield from self._bc_call(ins, regs, mems, ids, gl)
            elif op == OP_BREAK:
                raise _BreakSignal()
            elif op == OP_CONTINUE:
                raise _ContinueSignal()
            elif op == OP_RET:
                raise _ReturnSignal(regs[ins[L_A]]
                                    if ins[L_A] >= 0 else None)
            else:  # pragma: no cover
                raise KernelLaunchError(f"bad opcode {op}")
            pos += 1

    def _bounds(self, idx: int, mem: _SMem, line: int) -> None:
        if idx < 0 or idx >= mem.size:
            raise KernelLaunchError(
                f"access {mem.name}[{idx}] out of bounds "
                f"(size {mem.size}) at line {line}")

    def _bc_atomic(self, ins, regs, mems) -> None:
        opstr, slot, space = ins[L_AUX]
        mem: _SMem = mems[slot]
        idx = int(regs[ins[L_B]])
        self._bounds(idx, mem, ins[L_LINE])
        dtype = mem.array.dtype
        val = (np.asarray(to_dtype(regs[ins[L_C]], dtype))
               if ins[L_C] >= 0 else dtype.type(1))
        if opstr in ATOMIC_UFUNCS:
            mem.array[idx] = ATOMIC_UFUNCS[opstr](mem.array[idx], val)
        counters = self.counters
        col = self._col
        if space == SPACE_LOCAL:
            counters.local_accesses += 2
            if col is not None:
                col.local(ins[L_LINE], 2)
        else:
            itemsize = dtype.itemsize
            counters.global_loads += 1
            counters.global_stores += 1
            counters.global_load_bytes += itemsize
            counters.global_store_bytes += itemsize
            counters.global_load_transactions += 1
            counters.global_store_transactions += 1
            if col is not None:
                col.mem(ins[L_LINE], 1, itemsize, 1, False)
                col.mem(ins[L_LINE], 1, itemsize, 1, True)

    def _bc_call(self, ins, regs, mems, ids, gl):
        fname, binds, ret_np = ins[L_AUX]
        ccode, ckbc = self._linked[fname]
        cregs: list = [None] * ckbc.n_regs
        cmems: list = [None] * ckbc.n_mems
        for bind in binds:
            if bind[0] == "mem":
                cmems[bind[2]] = mems[bind[1]]
            else:
                pdt = bind[3]
                cregs[bind[2]] = pdt.type(
                    np.asarray(to_dtype(regs[bind[1]], pdt)))
        gen = self._bc_span(ccode, 0, len(ccode), cregs, cmems, ids, gl)
        try:
            for _ in gen:
                raise KernelLaunchError(
                    "barrier() executed inside a helper function")
        except _ReturnSignal as ret:
            if ret_np is None:
                regs[ins[L_DST]] = np.int32(0)
            else:
                regs[ins[L_DST]] = ret_np.type(
                    np.asarray(to_dtype(ret.value, ret_np)))
            return
        if ret_np is not None:
            raise KernelLaunchError(
                f"helper {fname!r} fell off the end without returning")
        regs[ins[L_DST]] = np.int32(0)
        return
        yield  # pragma: no cover - makes this a generator like _bc_span
