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
global or local access whose index is affine in the lane coordinates
(``x[i + u]``, ``y * n + x``, a grid-stride loop's ``i``, a tile's
``ly * 16 + lx``) moves its data through a strided view, under a
partial mask too, and a global one's transactions come from the
closed form :func:`~repro.ocl.costmodel.count_affine_transactions` or
its masked run count — the same numbers the gather and the measured
count give (see :class:`_AffineScan`).  Another: a variable write
whose old value no lane can read writes every lane instead of blending
under the mask (see :func:`_span_local_moves`), or does not run at all
when a write in the same straight-line run replaces it (see
:func:`_dead_moves`).

Launch counts and compiled functions live on the program's bytecode
object, so they die with the program (``reset_runtime()`` drops both).
A codegen or ``compile()`` failure raises
:class:`~repro.errors.KernelLaunchError` with the cause chained.
"""

from __future__ import annotations

import itertools

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
                          killed_regs, linked_program)
from ...errors import KernelLaunchError
from ...clc.types import SCALAR_TYPES
from ..costmodel import (count_affine_transactions,
                         count_index_transactions,
                         count_masked_affine_transactions,
                         count_transactions)
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


# -- affine accesses ----------------------------------------------------------------
#
# An index register is *affine* when its value at every lane is an
# affine function of the lane's coordinates (group y, group x, local y,
# local x).  A global or local access through such a register needs no
# gather: five lanes give its offset and strides, a range check in
# Python ints proves every lane in bounds, and the data moves through a
# strided view, under a partial mask too.  A full-mask global access's
# transactions have a closed form; a masked one's come from the runs of
# the full launch's keys when each key fills one run.

#: operations that keep a value affine: ``mul`` needs a uniform factor
_AFFINE_OPS = frozenset({OP_ADD, OP_SUB, OP_MUL, OP_NEG, OP_MOV, OP_CAST,
                         OP_CASTF})

#: pure operations whose result is uniform when their operands are
_PURE_OPS = frozenset(range(OP_ADD, OP_LOR + 1)) | {
    OP_NEG, OP_BNOT, OP_LNOT, OP_CAST, OP_CASTF, OP_SELECT}


def _operands(ins) -> tuple:
    return tuple(r for r in (ins[L_A], ins[L_B], ins[L_C]) if r >= 0)


def _is_int(dtype) -> bool:
    return dtype is not None and dtype.kind in "iu"


class _AffineScan:
    """Def scan of one linked function for the affine access path.

    * ``uniform``: registers identical across the launch — constants,
      size queries, kernel scalar parameters, variables the uniformity
      analysis marks launch-uniform, and pure arithmetic of these.
    * ``affine``: registers whose every definition is a global, local
      or group id query, or an ``add``, ``sub``, ``neg``, ``mov`` or
      integer cast of affine or uniform registers, or a ``mul`` of one
      by a uniform register.  Only ring operations and truncating
      casts, so each value is congruent, modulo ``2**bits`` of the
      narrowest type on its way, to an exact affine function of the
      lane coordinates.
    * ``static``: affine registers defined without a ``mov``.  A
      definition computes every lane, so their values are affine
      wherever they are read.  The rest (``flagged``) are variables or
      depend on one: a ``mov`` under a partial mask blends lanes, so
      each carries a runtime flag in the generated code.

    :meth:`access` says whether an access through a register may take
    the affine path, and how.
    """

    def __init__(self, code, kbc) -> None:
        defs: dict[int, list] = {}
        for ins in code:
            if ins[L_DST] >= 0:
                defs.setdefault(ins[L_DST], []).append(ins)
        params = {p[3]: SCALAR_TYPES[p[2]].np_dtype
                  for p in kbc.params if p[0] == "scalar"}
        dtype = dict(params)
        for reg, ins_list in defs.items():
            kinds = {ins[L_NP] for ins in ins_list}
            if reg in params:
                kinds.add(params[reg])
            dtype[reg] = kinds.pop() if len(kinds) == 1 else None
        self.dtype = dtype

        uniform = ({r for r in params if r not in defs} if kbc.is_kernel
                   else set())
        grew = True
        while grew:
            grew = False
            for reg, ins_list in defs.items():
                if reg in uniform or (reg in params and not kbc.is_kernel):
                    continue
                if all(self._uniform_def(ins, uniform) for ins in ins_list):
                    uniform.add(reg)
                    grew = True

        affine = {r for r, ins_list in defs.items()
                  if r not in uniform and r not in params
                  and _is_int(dtype[r])
                  and all(self._affine_kind(ins) for ins in ins_list)}
        shrunk = True
        while shrunk:
            shrunk = False
            for reg in list(affine):
                if not all(self._affine_operands(ins, affine, uniform)
                           for ins in defs[reg]):
                    affine.discard(reg)
                    shrunk = True

        static = {r for r in affine if all(ins[0] == OP_WIQ
                                           for ins in defs[r])}
        grew = True
        while grew:
            grew = False
            for reg in affine - static:
                if all(ins[0] != OP_MOV and all(
                        x in static or x in uniform for x in _operands(ins))
                       for ins in defs[reg]):
                    static.add(reg)
                    grew = True

        # the narrowest width on the way to each affine value
        bits = {r: dtype[r].itemsize * 8 for r in affine}
        narrowed = True
        while narrowed:
            narrowed = False
            for reg in affine:
                low = min([bits[reg]] + [
                    bits[x] for ins in defs[reg] for x in _operands(ins)
                    if x in affine])
                if low < bits[reg]:
                    bits[reg] = low
                    narrowed = True

        self.uniform = frozenset(uniform)
        self.static = frozenset(static)
        self.flagged = frozenset(affine - static)
        self.bits = bits
        #: id-query registers whose affine form the launch shape fixes
        self.ids = {r: _ID_KEYS[defs[r][0][L_AUX][:2]] for r in static
                    if len(defs[r]) == 1 and defs[r][0][0] == OP_WIQ}

    @staticmethod
    def _uniform_def(ins, uniform) -> bool:
        op = ins[0]
        if op == OP_CONST:
            return True
        if op == OP_WIQ:
            return ins[L_AUX][0] >= 3
        if op == OP_MOV:
            return ins[L_UNI] == 2
        return op in _PURE_OPS and all(r in uniform for r in _operands(ins))

    @staticmethod
    def _affine_kind(ins) -> bool:
        if not _is_int(ins[L_NP]):
            return False
        if ins[0] == OP_WIQ:
            return ins[L_AUX][0] <= 2
        return ins[0] in _AFFINE_OPS

    def _affine_operands(self, ins, affine, uniform) -> bool:
        if ins[0] == OP_WIQ:
            return True
        regs = _operands(ins)
        if not all((r in affine or r in uniform) and _is_int(self.dtype[r])
                   for r in regs):
            return False
        if len(regs) == 2:
            # a uint64 operand beside a signed one promotes to float64
            if np.result_type(*(self.dtype[r] for r in regs)).kind \
                    not in "iu":
                return False
            if ins[0] == OP_MUL and not (regs[0] in uniform
                                         or regs[1] in uniform):
                return False
        return True

    def access(self, reg):
        """``(guard, limit, key)`` for an access indexed by ``reg``, or
        None when it always takes the gather path.

        ``guard`` is the generated condition for the affine path, or
        None when it always holds.  ``limit`` bounds the size of the
        buffer or of a local array's rows: an affine range inside
        ``[0, size)`` with ``size <= limit`` fits the index type, and
        a value congruent to it modulo ``2**bits`` is then equal to it
        at every lane, so no lane wrapped.  ``key`` names the lane-id
        array a pure id query reads, whose form the launch shape
        fixes.
        """
        dtype = self.dtype.get(reg)
        if not _is_int(dtype):
            return None
        if reg in self.uniform:
            # every lane reads the register's own value: no wrap to rule out
            return None, 1 << 64, None
        bits = dtype.itemsize * 8
        if self.bits.get(reg) != bits:
            return None
        limit = 1 << (bits - (dtype.kind == "i"))
        if reg in self.static:
            return None, limit, self.ids.get(reg)
        return f"V[{reg}]", limit, None


# -- span-local variables -----------------------------------------------------------
#
# Under a partial mask a ``mov`` blends: inactive lanes keep the old
# value.  That matters only if some lane can later read the old value.
# Masks only narrow while a span runs, so when every reference to a
# register lies inside one span and the first of them is a write at
# that span's top level, each later read in the span sees a value the
# reading lane was active for, and each new run of the span writes
# first.  Such writes may set every lane (pocl keeps per-work-item
# state only for values live across a region boundary).


def _reads(ins) -> tuple:
    """The registers ``ins`` reads (an ``if`` or ``loop`` reads its
    condition at its own position, before its nested spans run)."""
    op = ins[0]
    if op == OP_BUILTIN:
        return ins[L_AUX][1]
    if op == OP_CALL:
        return tuple(b[1] for b in ins[L_AUX][1] if b[0] != "mem")
    return _operands(ins)


def _span_paths(code) -> list:
    """The span path of each instruction of ``code``: the ids of the
    spans holding it, outermost (the function body, 0) first."""
    paths: list = [()] * len(code)
    spans = itertools.count(1)

    def walk(pos: int, end: int, path: tuple) -> None:
        while pos < end:
            ins = code[pos]
            paths[pos] = path
            pos += 1
            if ins[0] == OP_IF or ins[0] == OP_LOOP:
                lengths = ins[L_AUX][:2 if ins[0] == OP_IF else 3]
                for length in lengths:
                    walk(pos, pos + length, path + (next(spans),))
                    pos += length

    walk(0, len(code), (0,))
    return paths


def _span_local_moves(code) -> frozenset:
    """Positions of the ``mov`` instructions of ``code`` that may write
    every lane instead of blending.

    For a register R, let S be the innermost span (a function body, an
    ``if`` arm, a loop's condition, body or update) holding every read
    and write of R, nested spans included.  When the first of those
    references in code order is a write at S's top level that does not
    read R, every ``mov`` to R at S's top level may write plainly.
    Writes in nested spans still blend."""
    paths = _span_paths(code)
    first: dict = {}        # register -> position of its first reference
    span: dict = {}         # register -> the path all its references share
    for pos, ins in enumerate(code):
        path = paths[pos]
        refs = _reads(ins)
        if ins[L_DST] >= 0:
            refs += (ins[L_DST],)
        for reg in refs:
            shared = span.get(reg)
            if shared is None:
                first[reg], span[reg] = pos, path
                continue
            depth = 0
            for outer, inner in zip(shared, path):
                if outer != inner:
                    break
                depth += 1
            span[reg] = shared[:depth]
    plain = []
    for pos, ins in enumerate(code):
        reg = ins[L_DST]
        if ins[0] != OP_MOV or paths[pos] != span[reg]:
            continue
        head = code[first[reg]]
        if paths[first[reg]] == span[reg] and head[L_DST] == reg \
                and reg not in _reads(head):
            plain.append(pos)
    return frozenset(plain)


#: instructions that end a straight-line run of a span: they change the
#: mask, run other code or leave the span
_CONTROL_OPS = frozenset({OP_IF, OP_LOOP, OP_CALL, OP_BREAK, OP_CONTINUE,
                          OP_RET})


def _dead_moves(code) -> frozenset:
    """Positions of the ``mov`` instructions of ``code`` that need not
    run: the next reference to the register is a write in the same
    span, and only straight-line instructions lie between, so no lane
    reads the moved value.  A write other than a blend sets every lane.
    A blend keeps the inactive lanes' old values, but then the dropped
    move blended too, under the same mask: a variable's moves are all
    launch-uniform or none is, and :func:`_span_local_moves` makes all
    of a register's moves at one span's top level plain or none."""
    paths = _span_paths(code)
    dead = []
    for pos, ins in enumerate(code):
        if ins[0] != OP_MOV:
            continue
        reg = ins[L_DST]
        nxt = pos + 1
        while nxt < len(code) and paths[nxt] == paths[pos] \
                and code[nxt][0] not in _CONTROL_OPS:
            later = code[nxt]
            if reg in _reads(later):
                break
            if later[L_DST] == reg:
                dead.append(pos)
                break
            nxt += 1
    return frozenset(dead)


#: (query code, dimension) of an id query -> its lane-id array key
_ID_KEYS = {(0, d): k for d, k in enumerate(GLOBAL_ID_KEYS)}
_ID_KEYS.update({(1, d): k for d, k in enumerate(LOCAL_ID_KEYS)})
_ID_KEYS.update({(2, d): k for d, k in enumerate(GROUP_ID_KEYS)})


def _access_plan(offset: int, coords, row: int, segment: int, warp: int,
                 itemsize: int) -> tuple:
    """``(low, high, index, offset, dims, transactions, injective)`` of
    an access whose index is ``offset + sum(stride * c)`` over the lane
    coordinates ``coords`` (``((extent, stride, group step), ...)``,
    outermost first, every extent above 1).

    ``low`` and ``high`` bound the index.  A global buffer (``row`` 0)
    holds a lane's element at the index itself; a local array, ``row``
    elements per work-group, at ``group_flat * row + index``, and a
    coordinate's group step is what one step along it adds to
    ``group_flat``.  That element is affine in the coordinates too, and
    the rest of the plan addresses it.  ``dims`` merges neighbours that
    step as one (an outer stride equal to the inner stride times the
    inner extent), so a contiguous 1-D or row-major access becomes a
    single dimension.  ``index`` is a slice of the (flattened) array
    when the lanes step through it in one direction, else None (the
    access goes through a strided view).  ``injective`` says no two
    lanes share an element: taken by increasing stride, each stride
    exceeds the reach of all smaller ones.  ``transactions`` is the
    full-mask count of a global access, None for a local one."""
    low = high = offset
    dims: list = []
    for extent, stride, group in coords:
        if stride > 0:
            high += stride * (extent - 1)
        else:
            low += stride * (extent - 1)
        stride += row * group
        if dims and dims[-1][1] == stride * extent:
            dims[-1] = (dims[-1][0] * extent, stride)
        else:
            dims.append((extent, stride))
    if not dims:
        index, injective = slice(offset, offset + 1), True
    elif len(dims) == 1:
        stride = dims[0][1]
        end = offset + stride * (dims[0][0] - 1) + 1
        index = slice(offset, end, stride) if stride > 0 else None
        injective = stride != 0
    else:
        index, injective = None, True
        reach = 0
        for extent, stride in sorted(dims, key=lambda d: abs(d[1])):
            if abs(stride) <= reach:
                injective = False
                break
            reach += abs(stride) * (extent - 1)
    dims = tuple(dims)
    count = None if row else count_affine_transactions(
        offset, dims, segment, itemsize, warp)
    return low, high, index, offset, dims, count, injective


def _id_plan(nd, pkey) -> tuple:
    """The access plan of the lane-id array of an id query, cached in
    ``nd.plans`` under ``pkey``: (id key, item size, segment bytes,
    warp size, row length), the first three 0 for a local array and
    the last 0 for a global buffer."""
    key, itemsize, segment, warp, row = pkey
    if key == "idx" and not row and (
            nd.dim == 1 or nd.num_groups[1] == nd.local_size[1] == 1):
        # a 1-D launch's global id, lane l: its unit stride is known,
        # and cluster chunks make most launch shapes new
        n = nd.total_items
        plan = (0, n - 1, slice(0, n), 0, ((n, 1),),
                count_affine_transactions(0, ((n, 1),), segment, itemsize,
                                          warp), True)
    else:
        ngy, ngx, ly, lx = nd.extents
        strides = {"idx": (0, lx, 0, 1), "idy": (ly, 0, 1, 0),
                   "lidx": (0, 0, 0, 1), "lidy": (0, 0, 1, 0),
                   "gidx": (0, 1, 0, 0), "gidy": (1, 0, 0, 0)}.get(
                       key, (0, 0, 0, 0))   # z ids are 0 below 3-D
        plan = _access_plan(
            0, [(e, s, g) for e, s, g in zip(nd.extents, strides,
                                             (ngx, 1, 0, 0)) if e > 1],
            row, segment, warp, itemsize)
    nd.plans[pkey] = plan
    return plan


def _plan(E, value, array, limit: int, key):
    """The access plan of an access to ``array`` through an affine
    index, or None when it must gather: a 3-D launch, or an array
    whose rows the index type cannot address without wrapping.
    ``array`` is a global buffer, or a local array with one row per
    work-group.  An id query's plan is cached on the launch's
    ``NDRange``; any other index is read at five lanes: the first gives
    the offset, and one lane along each coordinate its stride."""
    nd = E.nd
    shape = array.shape
    if nd.dim > 2 or shape[-1] > limit:
        return None
    row = shape[1] if len(shape) == 2 else 0
    spec = E.spec
    if key is not None:
        pkey = ((key, 0, 0, 0, row) if row else
                (key, array.itemsize, spec.segment_bytes, spec.warp_size, 0))
        return nd.plans.get(pkey) or _id_plan(nd, pkey)
    # lanes are group-major, so a probe lane's group is its flat group
    # step: 0 along a local coordinate
    ipg = nd.items_per_group
    if value.ndim:
        offset = int(value[0])
        coords = [(e, int(value[p]) - offset, p // ipg)
                  for e, p in nd.coords]
    else:
        offset = int(value)
        coords = [(e, 0, p // ipg) for e, p in nd.coords]
    return _access_plan(offset, coords, row, spec.segment_bytes,
                        spec.warp_size, array.itemsize)


def _view(E, value, array, limit: int, key, store: bool):
    """``(view, plan)`` of an access to ``array`` through an affine
    index, the view's row-major elements the lanes' elements in lane
    order, or None for the gather path.  The view covers every lane,
    active or not, so every lane's index must lie in range (the
    gather's loads read every lane too); a store must be injective
    (the gather keeps last-lane-wins order where two lanes share an
    element); and a non-contiguous buffer gathers."""
    plan = _plan(E, value, array, limit, key)
    if plan is None or plan[0] < 0 or plan[1] >= array.shape[-1] \
            or (store and not plan[6]):
        return None
    index = plan[2]
    if index is not None and array.ndim == 1:
        return array[index], plan
    if not array.flags.c_contiguous:
        return None
    if index is not None:
        return array.reshape(-1)[index], plan
    item = array.itemsize
    dims = plan[4]
    return np.ndarray(tuple(e for e, _s in dims), array.dtype, array,
                      plan[3] * item,
                      tuple(s * item for _e, s in dims)), plan


def _write(E, view, stored, mask, full) -> None:
    """Store ``stored`` through ``view`` at the lanes in ``mask``."""
    stored = E._broadcast(stored)
    if stored.dtype is not view.dtype:
        stored = to_dtype(stored, view.dtype)
    if view.ndim > 1:
        stored = stored.reshape(view.shape)
    if full:
        view[...] = stored
    else:
        np.copyto(view, stored, where=mask.reshape(view.shape))


def _masked_transactions(E, value, array, plan, mask) -> int:
    """The transactions of a global access by the lanes of a partial
    ``mask``: the runs of the full launch's keys that hold an active
    lane when each key fills one run, else the count over the active
    lanes."""
    spec = E.spec
    count = count_masked_affine_transactions(
        mask, plan[3], plan[4], spec.segment_bytes, array.itemsize,
        spec.warp_size)
    if count is None:
        count = count_index_transactions(
            E._broadcast(value)[mask], E.warp_ids[mask], spec.segment_bytes,
            array.itemsize, 0)
    return count


def _affine_load(E, value, m, limit: int, key, mask, full):
    """``(values, transactions)`` of a global load through an affine
    index, or None for the gather path.  The values are a copy: a view
    would see later stores."""
    got = _view(E, value, m.array, limit, key, False)
    if got is None:
        return None
    view, plan = got
    return view.flatten(), (plan[5] if full else _masked_transactions(
        E, value, m.array, plan, mask))


def _affine_store(E, value, stored, m, limit: int, key, mask, full):
    """Store ``stored`` into a global buffer through an affine index
    and return the transactions, or None for the gather path."""
    got = _view(E, value, m.array, limit, key, True)
    if got is None:
        return None
    view, plan = got
    _write(E, view, stored, mask, full)
    return plan[5] if full else _masked_transactions(E, value, m.array,
                                                     plan, mask)


def _local_load(E, value, m, limit: int, key):
    """A copy of every lane's element of a local array through an
    affine index, or None for the gather path."""
    got = _view(E, value, m.array, limit, key, False)
    return None if got is None else got[0].flatten()


def _local_store(E, value, stored, m, limit: int, key, mask, full):
    """Store ``stored`` into a local array through an affine index;
    None for the gather path."""
    got = _view(E, value, m.array, limit, key, True)
    if got is not None:
        _write(E, got[0], stored, mask, full)
    return got


def _lane_id_value(E, key, dtype):
    """What an id query's register holds: the launch's lane-id array
    ``key`` as ``dtype``, for an access that reads a register the
    generated code leaves unset (see :meth:`_FnEmitter._lazy_ids`)."""
    ids = E.ids[key]
    return ids if ids.dtype is dtype else ids.astype(dtype, copy=False)


_EXEC_ENV["_lid"] = _lane_id_value
_EXEC_ENV["_aff_ld"] = _affine_load
_EXEC_ENV["_aff_st"] = _affine_store
_EXEC_ENV["_loc_ld"] = _local_load
_EXEC_ENV["_loc_st"] = _local_store


class _FnEmitter:
    """Emits ``def f_<name>(E, F, mask, full)`` for one bytecode
    function, mirroring ``VectorEngine._bx_span`` exactly."""

    def __init__(self, mod: _ModuleEmitter, code, kbc) -> None:
        self.mod = mod
        self.code = code
        self.kbc = kbc
        self.spans: list[list[str]] = []
        self.n_spans = 0
        self.affine = _AffineScan(code, kbc)
        self.plain = _span_local_moves(code)
        self.dead = _dead_moves(code)
        self.lazy = self._lazy_ids()

    def _lazy_ids(self) -> dict:
        """Id-query registers that only index global or local accesses
        which may take the affine path, each with its lane-id key and
        type.  Their query emits nothing: an affine access needs the
        launch's geometry, not the ids, so the lane-id array is built
        only when an access falls back to the gather path or counts
        the transactions of a partial mask (see :func:`_lane_id_value`)."""
        lazy = {}
        for reg, key in self.affine.ids.items():
            access = self.affine.access(reg)
            if access is not None and access[2] is not None:
                lazy[reg] = key
        for ins in self.code:
            reads = _reads(ins)
            for reg in reads:
                if reg in lazy and not (
                        (ins[0] == OP_LD or ins[0] == OP_ST)
                        and ins[L_AUX][1] in (SPACE_GLOBAL, SPACE_LOCAL)
                        and ins[L_B] == reg and reads.count(reg) == 1):
                    del lazy[reg]
        for ins in self.code:
            if ins[L_DST] in lazy:
                lazy[ins[L_DST]] = (lazy[ins[L_DST]],
                                    self.mod.dtype_ref(ins[L_NP]))
        return lazy

    def _reg(self, reg: int) -> str:
        """The generated expression of a read of ``reg``'s value."""
        lazy = self.lazy.get(reg)
        if lazy is None:
            return f"R[{reg}]"
        return f"_lid(E, {lazy[0]!r}, {lazy[1]})"

    def emit(self) -> list[str]:
        top = self.span_fn(0, len(self.code))
        lines = [f"def f_{self.kbc.name}(E, F, mask, full):"]
        pres = ["R = F.regs", "M = F.mems", "counters = E.counters",
                "col = E._col", "n = E.n",
                "_seg = E.spec.segment_bytes",
                "_ww = E.spec.warp_size"]
        if self.affine.flagged:
            # per activation: is each flagged register affine right now?
            pres.append(f"V = [False] * {self.kbc.n_regs}")
        for pre in pres:
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
        #: (index register, item size) whose global access left its
        #: transactions in ``_t``: the same lanes through the same index
        #: count the same, until the register is written or a control
        #: instruction (the only ones that change the mask) runs
        counted = None
        while pos < end:
            ins = code[pos]
            op = ins[0]
            d, a, b, c = ins[L_DST], ins[L_A], ins[L_B], ins[L_C]
            line = ins[L_LINE]
            if counted is not None and d == counted[0]:
                counted = None
            if pos in self.dead:
                # overwritten before any lane reads it
                self._release(out, ins)
                pos += 1
                continue
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
                elif pos in self.plain:
                    # a span-local write: no lane reads what it
                    # overwrites, but the interpreter's blend makes a
                    # lane array of a scalar source, and so does this
                    out.extend([
                        f"_r = R[{a}]",
                        f"R[{d}] = _r if full or _r.ndim "
                        f"else _r.repeat(n)",
                    ])
                    if d in self.affine.flagged:
                        # every lane now holds the source's value
                        out.append(f"V[{d}] = {self._flag_of(a)}")
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
                    if d in self.affine.flagged:
                        # a blend under a partial mask mixes two values
                        out.append(f"V[{d}] = full and {self._flag_of(a)}")
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
            elif op == OP_WIQ and d in self.lazy:
                pass    # read through _lid by the gather paths only
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
            elif op == OP_LD or op == OP_ST:
                flush()
                key = None
                if ins[L_AUX][1] == SPACE_GLOBAL:
                    key = (b, ins[L_NP].itemsize)
                emit = self._emit_ld if op == OP_LD else self._emit_st
                emit(out, ins, key is not None and key == counted)
                if key is not None and d != b:
                    counted = key
            elif op == OP_ATOMIC:
                flush()
                self._emit_atomic(out, ins)
                counted = None
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
                counted = None
            elif op == OP_IF:
                flush()
                tlen, elen = ins[L_AUX]
                body = pos + 1
                self._emit_if(out, ins, body, tlen, elen)
                pos = body + tlen + elen
                counted = None
                continue
            elif op == OP_LOOP:
                flush()
                self._emit_loop(out, ins, pos)
                clen, blen, ulen, _ = ins[L_AUX]
                pos = pos + 1 + clen + blen + ulen
                counted = None
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
            if op != OP_MOV and d in self.affine.flagged:
                # every lane was computed: affine if the operands are
                out.append(f"V[{d}] = " + " and ".join(
                    [self._flag_of(r) for r in _operands(ins)
                     if r in self.affine.flagged] or ["True"]))
            self._release(out, ins)
            pos += 1
        flush()
        return out

    @staticmethod
    def _release(out: list[str], ins) -> None:
        """Emit the release of the temporaries that die at ``ins``, as
        the interpreter does (see ``clc.lower._link``)."""
        out.extend(f"R[{r}] = None" for r in killed_regs(ins))

    def _flag_of(self, reg: int) -> str:
        """The generated expression telling whether ``reg`` holds an
        affine value: its runtime flag, or a constant."""
        if reg in self.affine.flagged:
            return f"V[{reg}]"
        return repr(reg in self.affine.static
                    or reg in self.affine.uniform)

    # -- memory / structured ops ----------------------------------------------

    def _emit_index(self, out: list[str], b: int, line: int) -> None:
        """Shared ST/ATOMIC (and non-global LD) prologue, with the
        memory in ``_m``: broadcast the index register, bounds-check,
        clamp (``np.clip`` equivalent, via the cheaper minimum/maximum
        ufuncs)."""
        out.extend([
            f"_i = E._broadcast({self._reg(b)})",
            # when every lane (active or not) is in bounds, the exact
            # check cannot raise and the clamp is the identity
            "if 0 <= _i.min() and _i.max() < _m.size:",
            "    _s = _i",
            "else:",
            f"    E._check_bounds(_i, _m, mask, {line})",
            "    _s = _nmin(_nmax(_i, 0), _m.size - 1)",
        ])

    def _emit_affine(self, out: list[str], b: int, call: str, taken: str,
                     general: list[str]) -> None:
        """Emit an access through the index register ``b``: ``general``
        always works; when ``b`` may be affine (see
        :class:`_AffineScan`), the helper call ``call`` — its ``limit``
        and ``key`` filled in here — runs first, and ``taken`` consumes
        its result ``_x`` unless it is None, where ``general`` runs
        instead."""
        access = self.affine.access(b)
        if access is None:
            out.extend(general)
            return
        guard, limit, key = access
        call = call.format(limit=limit, key=repr(key))
        out.extend([f"_x = {call}" if guard is None
                    else f"_x = {call} if {guard} else None",
                    "if _x is not None:",
                    "    " + taken,
                    "else:"])
        out.extend("    " + g for g in general)

    def _keyed_reg(self, reg: int) -> str:
        """The index value an affine access helper gets: an id query's
        plan comes from the launch shape, so a lazy one passes None."""
        return "None" if reg in self.lazy else f"R[{reg}]"

    def _masked_reg(self, reg: int) -> str:
        """As :meth:`_keyed_reg` for a global access, whose transaction
        count under a partial mask may read the index."""
        if reg in self.lazy:
            return f"(None if full else {self._reg(reg)})"
        return f"R[{reg}]"

    def _emit_ld(self, out: list[str], ins, counted: bool) -> None:
        """Emit a load; ``counted`` says ``_t`` already holds the
        transactions of a global load or store by the same lanes
        through the same index (see :meth:`span_body`)."""
        slot, space = ins[L_AUX]
        d, b, line = ins[L_DST], ins[L_B], ins[L_LINE]
        if space == SPACE_GLOBAL:
            # ``take`` fuses the upper-bound check into the gather (it
            # raises IndexError past the end, and the min() guard rules
            # out the negative wrap-around), so the general path runs
            # one reduction + one gather instead of two reductions + a
            # fancy index.
            general = [
                f"_i = E._broadcast({self._reg(b)})",
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
            ]
            if not counted:
                general.extend([
                    "_wp = E.warp_ids",
                    "_t = count_index_transactions(_s if full else _s[mask],"
                    " _wp if full else _wp[mask], _seg, _z,"
                    " _ww if full else 0)",
                ])
            out.extend([f"_m = M[{slot}]", "_z = _m.array.dtype.itemsize"])
            self._emit_affine(
                out, b, f"_aff_ld(E, {self._masked_reg(b)}, _m, {{limit}}, "
                f"{{key}}, mask, full)", "_r, _t = _x", general)
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
        if space == SPACE_LOCAL:
            general: list[str] = []
            self._emit_index(general, b, line)
            general.append("_r = _m.array[E.group_flat, _s]")
            self._emit_affine(
                out, b, f"_loc_ld(E, {self._keyed_reg(b)}, _m, {{limit}}, "
                f"{{key}})", "_r = _x", general)
            out.extend([
                "counters.local_accesses += n_act",
                "if col is not None:",
                f"    col.local({line}, n_act, n)",
                f"R[{d}] = _r",
            ])
        else:
            self._emit_index(out, b, line)
            out.extend([
                "counters.alu_ops += n_act",
                "if col is not None:",
                f"    col.op({line}, n_act, 1.0, False, n)",
                f"R[{d}] = _m.array[E.lane, _s]",
            ])

    def _emit_st(self, out: list[str], ins, counted: bool) -> None:
        """Emit a store; ``counted`` as for :meth:`_emit_ld`."""
        slot, space = ins[L_AUX]
        b, c, line = ins[L_B], ins[L_C], ins[L_LINE]
        general: list[str] = []
        self._emit_index(general, b, line)
        general.extend([
            f"_v = E._broadcast(R[{c}])",
            "if _v.dtype is not _m.array.dtype:",
            "    _v = to_dtype(_v, _m.array.dtype)",
            "_sm = _s if full else _s[mask]",
        ])
        out.append(f"_m = M[{slot}]")
        if space == SPACE_GLOBAL:
            general.append("_m.array[_sm] = _v if full else _v[mask]")
            if not counted:
                general.extend([
                    "_wp = E.warp_ids",
                    "_t = count_index_transactions(_sm,"
                    " _wp if full else _wp[mask], _seg, _z,"
                    " _ww if full else 0)",
                ])
            out.append("_z = _m.array.dtype.itemsize")
            self._emit_affine(
                out, b, f"_aff_st(E, {self._masked_reg(b)}, R[{c}], _m, "
                f"{{limit}}, {{key}}, mask, full)", "_t = _x", general)
            out.extend([
                "counters.global_stores += n_act",
                "counters.global_store_bytes += n_act * _z",
                "counters.global_store_transactions += _t",
                "if col is not None:",
                f"    col.mem({line}, n_act, n_act * _z, _t, True, n)",
            ])
        elif space == SPACE_LOCAL:
            general.extend([
                "_g = E.group_flat",
                "_m.array[_g if full else _g[mask], _sm] = "
                "_v if full else _v[mask]",
            ])
            self._emit_affine(
                out, b, f"_loc_st(E, {self._keyed_reg(b)}, R[{c}], _m, "
                f"{{limit}}, {{key}}, mask, full)", "pass", general)
            out.extend([
                "counters.local_accesses += n_act",
                "if col is not None:",
                f"    col.local({line}, n_act, n)",
            ])
        else:
            out.extend(general)
            out.extend([
                "_l = E.lane",
                "_m.array[_l if full else _l[mask], _sm] = "
                "_v if full else _v[mask]",
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
