"""Lock-step SIMT bytecode interpreter.

The interpreter tier of the ``jit`` engine
(:class:`~repro.ocl.engines.jit.JitEngine` subclasses
:class:`VectorEngine` and runs a program's first launch through it); it
is not registered as an engine of its own.

Every work-item of the NDRange executes simultaneously as one NumPy
"lane"; private variables are length-``n`` arrays, divergent control flow
runs under boolean activity masks (the classic whole-NDRange vectorization
used by SIMT simulators).  Because all lanes advance in lock step,
work-group barriers are natural synchronisation points and cost only their
model time.

While executing, the engine measures the dynamic cost of the launch:
weighted ALU ops per active lane, global/local memory traffic and — from
the *actual byte addresses* each warp touches — the number of coalesced
memory transactions.  This is what makes the simulated GPU reward
contiguous accesses and punish scattered ones, reproducing the first-order
performance effects the paper's evaluation relies on.
"""

from __future__ import annotations

import numpy as np

from ... import prof, trace
from ...clc.lower import (L_A, L_AUX, L_B, L_C, L_DST,
                          L_ISDBL, L_ISFLOAT, L_KILL, L_LINE, L_NP, L_UNI,
                          L_VCOST, OP_ADD, OP_ATOMIC, OP_BARRIER,
                          OP_BNOT, OP_BREAK, OP_BUILTIN, OP_BXOR,
                          OP_CALL, OP_CAST, OP_CASTF, OP_CEQ, OP_CONST,
                          OP_CONTINUE, OP_DECLARR, OP_IF,
                          OP_LD, OP_LNOT, OP_LOOP, OP_LOR, OP_MOV,
                          OP_NEG, OP_RET, OP_SELECT,
                          OP_ST, OP_WIQ, SPACE_GLOBAL, SPACE_LOCAL,
                          killed_regs)
from ...clc.types import SCALAR_TYPES
from ...errors import InvalidKernelArgs, KernelLaunchError, OutOfResources
from ..costmodel import CostCounters, count_index_transactions
from .base import (ATOMIC_UFUNCS, MAX_LOOP_ITERATIONS, BufferBinding,
                   Mem as _Mem, check_args, launch_ndrange, linked_entry,
                   wiq_value)
from .carith import binary_value, compare_value, to_dtype, truth

_MAX_LOOP_ITERATIONS = MAX_LOOP_ITERATIONS


class _BFrame:
    """One bytecode function activation: register/memory files."""

    __slots__ = ("regs", "mems", "return_mask", "ret_value", "ret_np")

    def __init__(self, n_regs: int, n_mems: int, ret_np=None) -> None:
        self.regs: list = [None] * n_regs
        self.mems: list = [None] * n_mems
        self.return_mask = None    # lazily-created bool mask
        self.ret_value = None
        self.ret_np = ret_np


class VectorEngine:
    """Execute one kernel launch over a whole NDRange in lock step.

    Subclasses set the registry ``name``; :meth:`_run_bytecode` returns
    the tier a launch ran in, which the ``engine_run`` span records.
    """

    def __init__(self, program, spec) -> None:
        self.program = program
        self.spec = spec
        #: per-launch profiler collector; None whenever profiling is off
        self._col = None
        self._ids = None

    # -- lane ids of the current launch, read on demand -----------------------

    @property
    def ids(self) -> dict:
        """The lane-id arrays of the launch's NDRange, fetched on the
        first read: a compiled launch whose id queries all feed affine
        accesses never asks for them."""
        ids = self._ids
        if ids is None:
            ids = self._ids = self.nd.lane_ids()
        return ids

    @property
    def group_flat(self) -> np.ndarray:
        return self.ids["group_flat"]

    @property
    def lane(self) -> np.ndarray:
        return self.ids["lane"]

    @property
    def warp_ids(self) -> np.ndarray:
        """Each lane's warp, memoized next to the lane ids (the dict is
        shared across launches of this shape)."""
        return self.ids[f"_warp{self.spec.warp_size}"]

    # -- public ------------------------------------------------------------------

    def run(self, kernel_name: str, args: list, global_size,
            local_size=None) -> CostCounters:
        kernel = self.program.functions.get(kernel_name)
        if kernel is None or not kernel.is_kernel:
            raise InvalidKernelArgs(f"no kernel named {kernel_name!r}")
        check_args(kernel, args, self.spec)

        nd = launch_ndrange(global_size, local_size, self.spec)
        self.nd = nd
        self.n = nd.total_items
        self._ids = None

        self.counters = CostCounters(work_items=self.n,
                                     work_groups=nd.total_groups)
        self._local_bytes = 0

        self._linked, entry = linked_entry(self.program, kernel_name)
        self._col = prof.begin_launch(kernel_name, self.name, self.spec,
                                      self.program.source,
                                      self.n, nd.total_groups)
        try:
            with trace.span("engine_run", category="simcl",
                            engine=self.name, kernel=kernel_name,
                            work_items=self.n) as sp:
                with np.errstate(all="ignore"):
                    sp.set_attr("tier", self._run_bytecode(entry, args))
                prof.finish_launch(self._col, self.counters)
        finally:
            self._col = None
        return self.counters

    # -- launch helpers ----------------------------------------------------------

    def _account_local(self, nbytes: int) -> None:
        self._local_bytes += nbytes
        if self._local_bytes > self.spec.local_mem_bytes:
            raise OutOfResources(
                f"work-group needs {self._local_bytes} B of local memory; "
                f"{self.spec.name} provides {self.spec.local_mem_bytes} B")

    def _check_bounds(self, idx: np.ndarray, mem: _Mem,
                      mask: np.ndarray, line: int) -> None:
        bad = mask & ((idx < 0) | (idx >= mem.size))
        if bad.any():
            lane = int(np.argmax(bad))
            raise KernelLaunchError(
                f"work-item {lane} accessed {mem.name}[{int(idx[lane])}] "
                f"out of bounds (size {mem.size}) at line {line}")

    def _broadcast(self, value):
        arr = np.asarray(value)
        if arr.ndim == 0:
            return np.broadcast_to(arr, (self.n,))
        return arr

    # -- bytecode interpreter ------------------------------------------------
    #
    # Driven by the flat bytecode from repro.clc.lower.  Instructions
    # whose uniformity analysis proved them LAUNCH-uniform execute once
    # as numpy scalars instead of length-n lane arrays (masked blends are
    # skipped for their variable writes).  Cost counters still charge
    # every logically-active lane, so the cost model is unchanged by how
    # the host happens to evaluate an instruction.

    def _bc_frame(self, kbc, args) -> _BFrame:
        """Bind launch arguments into a fresh bytecode activation frame
        (shared with the JIT engine, which compiles the body but keeps
        the interpreter's binding semantics)."""
        frame = _BFrame(kbc.n_regs, kbc.n_mems)
        for p, arg in zip(kbc.params, args):
            if p[0] == "scalar":
                dtype = SCALAR_TYPES[p[2]].np_dtype
                frame.regs[p[3]] = dtype.type(arg.value)
            elif isinstance(arg, BufferBinding):
                frame.mems[p[3]] = _Mem(arg.array, "buffer", p[4], p[1])
            else:   # LocalBinding
                elem = SCALAR_TYPES[p[2]]
                nelems = arg.nbytes // elem.size
                self._account_local(arg.nbytes)
                storage = np.zeros((self.nd.total_groups, nelems),
                                   dtype=elem.np_dtype)
                frame.mems[p[3]] = _Mem(storage, "local", "local", p[1])
        return frame

    def _run_bytecode(self, entry, args) -> str:
        code, kbc = entry
        frame = self._bc_frame(kbc, args)
        self._bloops: list = []
        self._dead = np.zeros(self.n, dtype=bool)
        mask = np.ones(self.n, dtype=bool)
        self._bx_span(code, 0, len(code), frame, mask, True)
        return "interp"

    def _bx_span(self, code, pos, end, frame, mask, full):
        """Execute ``code[pos:end]`` under ``mask``; returns the
        (possibly narrowed) ``(mask, full)`` the caller continues with.
        Masks are never mutated in place — every narrowing makes a new
        array — so returned masks are safe to alias."""
        counters = self.counters
        regs = frame.regs
        mems = frame.mems
        col = self._col
        n = self.n
        n_act = n if full else int(np.count_nonzero(mask))
        while pos < end:
            ins = code[pos]
            op = ins[0]
            if OP_ADD <= op <= OP_BXOR:
                result = binary_value(op, regs[ins[L_A]], regs[ins[L_B]],
                                      ins[L_ISFLOAT])
                regs[ins[L_DST]] = to_dtype(result, ins[L_NP])
                if ins[L_ISDBL]:
                    counters.fp64_ops += ins[L_VCOST] * n_act
                else:
                    counters.alu_ops += ins[L_VCOST] * n_act
                if col is not None:
                    col.op(ins[L_LINE], n_act, ins[L_VCOST],
                           ins[L_ISDBL], n)
            elif OP_CEQ <= op <= OP_LOR:
                r = compare_value(op, regs[ins[L_A]], regs[ins[L_B]])
                regs[ins[L_DST]] = np.asarray(r).astype(np.int32)
                counters.alu_ops += n_act
                if col is not None:
                    col.op(ins[L_LINE], n_act, 1.0, False, n)
            elif op == OP_MOV:
                value = regs[ins[L_A]]
                if full or ins[L_UNI] == 2:
                    regs[ins[L_DST]] = value
                else:
                    old = regs[ins[L_DST]]
                    if old is None:
                        old = ins[L_NP].type(0)
                    regs[ins[L_DST]] = np.where(mask, value, old).astype(
                        ins[L_NP], copy=False)
            elif op == OP_LD:
                slot, space = ins[L_AUX]
                mem: _Mem = mems[slot]
                idx = self._broadcast(regs[ins[L_B]]).astype(np.int64,
                                                             copy=False)
                self._check_bounds(idx, mem, mask, ins[L_LINE])
                safe = np.clip(idx, 0, mem.size - 1)
                if space == SPACE_GLOBAL:
                    itemsize = mem.array.dtype.itemsize
                    tx = count_index_transactions(
                        safe if full else safe[mask],
                        self.warp_ids if full else self.warp_ids[mask],
                        self.spec.segment_bytes, itemsize,
                        self.spec.warp_size if full else 0)
                    counters.global_loads += n_act
                    counters.global_load_bytes += n_act * itemsize
                    counters.global_load_transactions += tx
                    if col is not None:
                        col.mem(ins[L_LINE], n_act, n_act * itemsize,
                                tx, False, n)
                    regs[ins[L_DST]] = mem.array[safe]
                elif space == SPACE_LOCAL:
                    counters.local_accesses += n_act
                    if col is not None:
                        col.local(ins[L_LINE], n_act, n)
                    regs[ins[L_DST]] = mem.array[self.group_flat, safe]
                else:
                    counters.alu_ops += n_act
                    if col is not None:
                        col.op(ins[L_LINE], n_act, 1.0, False, n)
                    regs[ins[L_DST]] = mem.array[self.lane, safe]
            elif op == OP_ST:
                slot, space = ins[L_AUX]
                mem = mems[slot]
                idx = self._broadcast(regs[ins[L_B]]).astype(np.int64,
                                                             copy=False)
                self._check_bounds(idx, mem, mask, ins[L_LINE])
                safe = np.clip(idx, 0, mem.size - 1)
                valm = to_dtype(self._broadcast(regs[ins[L_C]]),
                                mem.array.dtype)
                safe_m = safe if full else safe[mask]
                valm_m = valm if full else valm[mask]
                if space == SPACE_GLOBAL:
                    mem.array[safe_m] = valm_m
                    itemsize = mem.array.dtype.itemsize
                    tx = count_index_transactions(
                        safe_m,
                        self.warp_ids if full else self.warp_ids[mask],
                        self.spec.segment_bytes, itemsize,
                        self.spec.warp_size if full else 0)
                    counters.global_stores += n_act
                    counters.global_store_bytes += n_act * itemsize
                    counters.global_store_transactions += tx
                    if col is not None:
                        col.mem(ins[L_LINE], n_act, n_act * itemsize,
                                tx, True, n)
                elif space == SPACE_LOCAL:
                    gf = self.group_flat if full else self.group_flat[mask]
                    mem.array[gf, safe_m] = valm_m
                    counters.local_accesses += n_act
                    if col is not None:
                        col.local(ins[L_LINE], n_act, n)
                else:
                    ln = self.lane if full else self.lane[mask]
                    mem.array[ln, safe_m] = valm_m
                    counters.alu_ops += n_act
                    if col is not None:
                        col.op(ins[L_LINE], n_act, 1.0, False, n)
            elif op == OP_CASTF or op == OP_CAST:
                regs[ins[L_DST]] = to_dtype(regs[ins[L_A]], ins[L_NP])
                if op == OP_CAST:
                    if ins[L_ISDBL]:
                        counters.fp64_ops += n_act
                    else:
                        counters.alu_ops += n_act
                    if col is not None:
                        col.op(ins[L_LINE], n_act, 1.0, ins[L_ISDBL], n)
            elif op == OP_CONST:
                regs[ins[L_DST]] = ins[L_AUX]
            elif op == OP_SELECT:
                cond = truth(regs[ins[L_A]])
                if ins[L_ISDBL]:
                    counters.fp64_ops += n_act
                else:
                    counters.alu_ops += n_act
                if col is not None:
                    col.op(ins[L_LINE], n_act, 1.0, ins[L_ISDBL], n)
                regs[ins[L_DST]] = np.where(
                    cond, regs[ins[L_B]], regs[ins[L_C]]).astype(
                        ins[L_NP], copy=False)
            elif op == OP_NEG:
                regs[ins[L_DST]] = (-regs[ins[L_A]]).astype(ins[L_NP],
                                                            copy=False)
                if ins[L_ISDBL]:
                    counters.fp64_ops += n_act
                else:
                    counters.alu_ops += n_act
                if col is not None:
                    col.op(ins[L_LINE], n_act, 1.0, ins[L_ISDBL], n)
            elif op == OP_BNOT:
                regs[ins[L_DST]] = (~regs[ins[L_A]]).astype(ins[L_NP],
                                                            copy=False)
                counters.alu_ops += n_act
                if col is not None:
                    col.op(ins[L_LINE], n_act, 1.0, False, n)
            elif op == OP_LNOT:
                regs[ins[L_DST]] = np.logical_not(
                    truth(regs[ins[L_A]])).astype(np.int32)
                counters.alu_ops += n_act
                if col is not None:
                    col.op(ins[L_LINE], n_act, 1.0, False, n)
            elif op == OP_WIQ:
                qcode, dim, name = ins[L_AUX]
                value = wiq_value(qcode, dim, name, self.ids, self.nd)
                regs[ins[L_DST]] = to_dtype(value, ins[L_NP])
            elif op == OP_BUILTIN:
                impl, arg_regs, _name = ins[L_AUX]
                bargs = [regs[r] for r in arg_regs]
                if ins[L_ISDBL]:
                    counters.fp64_ops += ins[L_VCOST] * n_act
                else:
                    counters.alu_ops += ins[L_VCOST] * n_act
                if col is not None:
                    col.op(ins[L_LINE], n_act, ins[L_VCOST],
                           ins[L_ISDBL], n)
                regs[ins[L_DST]] = to_dtype(impl(*bargs), ins[L_NP])
            elif op == OP_IF:
                tlen, elen = ins[L_AUX]
                body = pos + 1
                cond = regs[ins[L_A]]
                if np.ndim(cond) == 0:
                    # uniform branch: no mask ops, single taken side
                    if cond != 0:
                        mask, full = self._bx_span(code, body,
                                                   body + tlen,
                                                   frame, mask, full)
                    elif elen:
                        mask, full = self._bx_span(code, body + tlen,
                                                   body + tlen + elen,
                                                   frame, mask, full)
                else:
                    condb = truth(cond)
                    tmask = mask & condb
                    emask = mask & ~condb
                    if col is not None:
                        col.branch(ins[L_LINE], n_act,
                                   int(np.count_nonzero(tmask)))
                    if tmask.any():
                        out_t, _ = self._bx_span(code, body, body + tlen,
                                                 frame, tmask, False)
                    else:
                        out_t = tmask
                    if elen and emask.any():
                        out_e, _ = self._bx_span(code, body + tlen,
                                                 body + tlen + elen,
                                                 frame, emask, False)
                    else:
                        out_e = emask
                    mask = out_t | out_e
                    full = bool(mask.all())
                if not full and not mask.any():
                    return mask, full
                n_act = n if full else int(np.count_nonzero(mask))
                pos = body + tlen + elen
                continue
            elif op == OP_LOOP:
                clen, blen, ulen, is_do = ins[L_AUX]
                cond_start = pos + 1
                body_start = cond_start + clen
                upd_start = body_start + blen
                end_pos = upd_start + ulen
                creg = ins[L_A]
                active, afull = mask, full
                first = is_do
                iterations = 0
                while True:
                    if not first:
                        if not (afull or active.any()):
                            break
                        active, afull = self._bx_span(
                            code, cond_start, body_start, frame, active,
                            afull)
                        cond = regs[creg]
                        if np.ndim(cond) == 0:
                            if cond == 0:
                                break
                        else:
                            condb = truth(cond)
                            if not (afull and bool(condb.all())):
                                active = active & condb
                                afull = False
                    first = False
                    if not (afull or active.any()):
                        break
                    self._bloops.append(None)
                    after, _ = self._bx_span(code, body_start, upd_start,
                                             frame, active, afull)
                    cm = self._bloops.pop()
                    if cm is not None:
                        after = after | cm
                    afull = bool(after.all())
                    if ulen and (afull or after.any()):
                        self._bx_span(code, upd_start, end_pos, frame,
                                      after, afull)
                    active = after
                    iterations += 1
                    if iterations > _MAX_LOOP_ITERATIONS:
                        raise KernelLaunchError(
                            f"loop at line {ins[L_LINE]} exceeded "
                            f"{_MAX_LOOP_ITERATIONS} iterations "
                            f"(infinite loop?)")
                if frame.return_mask is not None:
                    mask = mask & ~frame.return_mask
                    full = bool(mask.all())
                    if not full and not mask.any():
                        return mask, full
                    n_act = n if full else int(np.count_nonzero(mask))
                pos = end_pos
                continue
            elif op == OP_BARRIER:
                if full:
                    active_groups = self.nd.total_groups
                else:
                    active_groups = int(
                        np.unique(self.group_flat[mask]).size)
                counters.barriers += active_groups
                if col is not None:
                    col.barrier(ins[L_LINE], active_groups)
            elif op == OP_ATOMIC:
                self._bx_atomic(ins, regs, mems, mask, full, n_act)
            elif op == OP_DECLARR:
                slot, size, np_dtype, space, name, nbytes = ins[L_AUX]
                if mems[slot] is None:
                    if space == SPACE_LOCAL:
                        self._account_local(nbytes)
                        storage = np.zeros((self.nd.total_groups, size),
                                           dtype=np_dtype)
                        mems[slot] = _Mem(storage, "local", "local", name)
                    else:
                        storage = np.zeros((n, size), dtype=np_dtype)
                        mems[slot] = _Mem(storage, "private", "private",
                                          name)
            elif op == OP_CALL:
                fname, binds, ret_np = ins[L_AUX]
                ccode, ckbc = self._linked[fname]
                cframe = _BFrame(ckbc.n_regs, ckbc.n_mems, ret_np)
                for bind in binds:
                    if bind[0] == "mem":
                        cframe.mems[bind[2]] = mems[bind[1]]
                    else:
                        cframe.regs[bind[2]] = to_dtype(regs[bind[1]],
                                                        bind[3])
                self._bx_span(ccode, 0, len(ccode), cframe, mask, full)
                if ret_np is None:
                    regs[ins[L_DST]] = np.int32(0)
                elif cframe.ret_value is not None:
                    regs[ins[L_DST]] = cframe.ret_value
                else:
                    regs[ins[L_DST]] = ret_np.type(0)
            elif op == OP_BREAK:
                return self._dead, False
            elif op == OP_CONTINUE:
                cm = self._bloops[-1]
                self._bloops[-1] = mask if cm is None else (cm | mask)
                return self._dead, False
            elif op == OP_RET:
                if ins[L_A] >= 0 and frame.ret_np is not None:
                    value = to_dtype(regs[ins[L_A]], frame.ret_np)
                    prev = frame.ret_value
                    if prev is None:
                        prev = np.zeros(n, dtype=frame.ret_np)
                    frame.ret_value = np.where(mask, value, prev).astype(
                        frame.ret_np, copy=False)
                if frame.return_mask is None:
                    frame.return_mask = mask
                else:
                    frame.return_mask = frame.return_mask | mask
                return self._dead, False
            else:  # pragma: no cover
                raise KernelLaunchError(f"bad opcode {op}")
            kill = ins[L_KILL]
            if kill:
                # temporaries die at their use (see clc.lower._link)
                if kill & 1:
                    regs[ins[L_A]] = None
                if kill & 2:
                    regs[ins[L_B]] = None
                if kill & 4:
                    regs[ins[L_C]] = None
                if kill > 7:
                    for reg in killed_regs(ins):
                        regs[reg] = None
            pos += 1
        return mask, full

    def _bx_atomic(self, ins, regs, mems, mask, full, n_act) -> None:
        opstr, slot, space = ins[L_AUX]
        mem: _Mem = mems[slot]
        idx = self._broadcast(regs[ins[L_B]]).astype(np.int64, copy=False)
        self._check_bounds(idx, mem, mask, ins[L_LINE])
        safe = np.clip(idx, 0, mem.size - 1)
        safe_m = safe if full else safe[mask]
        if ins[L_C] >= 0:
            valm = to_dtype(self._broadcast(regs[ins[L_C]]),
                            mem.array.dtype)
            val = valm if full else valm[mask]
        else:
            val = np.ones(n_act, dtype=mem.array.dtype)
        op = opstr
        if op == "dec":
            op = "sub"
        counters = self.counters
        col = self._col
        if space == SPACE_LOCAL:
            gf = self.group_flat if full else self.group_flat[mask]
            index = (gf, safe_m)
            counters.local_accesses += 2 * n_act
            if col is not None:
                col.local(ins[L_LINE], 2 * n_act, self.n)
        else:
            index = safe_m
            itemsize = mem.array.dtype.itemsize
            counters.global_loads += n_act
            counters.global_stores += n_act
            counters.global_load_bytes += n_act * itemsize
            counters.global_store_bytes += n_act * itemsize
            tx = count_index_transactions(
                safe_m,
                self.warp_ids if full else self.warp_ids[mask],
                self.spec.segment_bytes, itemsize,
                self.spec.warp_size if full else 0)
            counters.global_load_transactions += tx
            counters.global_store_transactions += tx
            if col is not None:
                col.mem(ins[L_LINE], n_act, n_act * itemsize, tx, False,
                        self.n)
                col.mem(ins[L_LINE], n_act, n_act * itemsize, tx, True,
                        self.n)
        ufunc = ATOMIC_UFUNCS.get(op)
        if ufunc is None:  # pragma: no cover
            raise KernelLaunchError(f"unknown atomic op {op!r}")
        ufunc.at(mem.array, index, val)
