"""Differential fuzzing of the optimizing middle-end and the engines.

~300 seeded random OpenCL C kernels (integer/uint/float arithmetic,
nested ifs and for loops, selects, barriers with __local staging; 50
of them declare block-local variables in their bodies, and 50 store
to __local and global memory through affine indices under branches)
are executed six ways — the serial engine and the jit engine pinned to its
interpreted and to its compiled tier, each at -O0 (unoptimized
bytecode: no rewriting pass ran) and -O2 (optimized bytecode) — and
every output buffer must match **bit for bit**.  Any
unsound fold, wrong strength reduction, bad uniformity tag, bytecode
lowering bug or codegen emission bug shows up as a divergence with a
reproducible seed.

Two counter invariants ride along, at both levels:

* the compiled tier reports cost counters identical to the
  interpreter's (it is the same SIMT execution model on a different
  substrate; ``tests/ocl/counter_golden.json`` pins both);
* the serial engine agrees with the jit engine on every counter the
  execution model cannot influence (memory traffic, barriers, NDRange
  shape).  Its ALU and *transaction* counters legitimately differ — it
  models a CPU, one work-item at a time.

Also holds the satellite regression test that the cost model counts
*executed post-optimization* ops: -O2 must report fewer ALU ops than
-cl-opt-disable for a kernel full of foldable arithmetic, while the
memory traffic counters stay identical.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ocl as cl
from tests.conftest import run_cl_kernel

_KERNELS_PER_BATCH = 10
_BATCHES = 20                   # 200 kernels total
_LOCAL_BATCHES = 5              # 50 more with block-local variables
_AFFINE_BATCHES = 5             # 50 more with affine accesses in branches


# -- random kernel generator --------------------------------------------------

class _KernelGen:
    """Seeded random kernel source builder.

    Generated programs are UB-free by construction: every array index
    is reduced into bounds with ``(x % n + n) % n``, divisors and
    shift amounts are positive constants, and barriers only appear in
    top-level (uniform) control flow.
    """

    def __init__(self, seed: int, span_locals: bool = False,
                 affine: bool = False) -> None:
        self.rng = np.random.default_rng(seed)
        #: opt-in: bodies may open with a block-local variable (see
        #: :meth:`span_local`); off, a seed's source never changes
        self.span_locals = span_locals
        #: opt-in: the top level gets blocks of affine accesses (see
        #: :meth:`affine_block`); off, a seed's source never changes
        self.affine = affine
        self.n_locals = 0
        self.has_barrier = bool(self.rng.random() < 0.4)
        self.lsize = 16
        self.gsize = int(self.rng.choice([32, 48, 64])) \
            if self.has_barrier else int(self.rng.choice([16, 33, 64]))
        self.int_vars = ["gid", "lid", "grp", "i0", "i1", "i2"]
        self.uint_vars = ["u0", "u1"]
        self.float_vars = ["f0", "f1", "f2"]
        self.loop_depth = 0
        self.n_loops = 0
        if affine:
            # ``abuf[lid]`` needs every work-group to be 16 wide
            self.gsize = max(self.lsize, self.gsize // self.lsize
                             * self.lsize)
            #: the lane's own ``out`` element, as an id query or as an
            #: affine form the engines probe: another lane's element
            #: would race with that lane's final store
            self.gform = self._pick(["gid", f"lid + grp * {self.lsize}"])

    @property
    def lsize_arg(self):
        """The launch's local size, or None for the runtime's pick."""
        return (self.lsize,) if self.has_barrier or self.affine else None

    def _pick(self, seq):
        return seq[int(self.rng.integers(len(seq)))]

    # -- expressions ---------------------------------------------------------

    def int_expr(self, depth: int = 0) -> str:
        if depth >= 3 or self.rng.random() < 0.3:
            if self.rng.random() < 0.3:
                return str(int(self.rng.integers(-6, 13)))
            return self._pick(self.int_vars)
        roll = self.rng.random()
        a = self.int_expr(depth + 1)
        b = self.int_expr(depth + 1)
        if roll < 0.45:
            return f"({a} {self._pick('+-*&|^')} {b})"
        if roll < 0.60:     # safe division / remainder by a constant
            return f"({a} {self._pick(['/', '%'])} " \
                   f"{int(self.rng.integers(1, 9))})"
        if roll < 0.72:     # shifts by small constants
            return f"({a} {self._pick(['<<', '>>'])} " \
                   f"{int(self.rng.integers(0, 4))})"
        if roll < 0.88:
            return f"({a} {self._pick(['<', '>', '<=', '==', '!='])} {b})"
        return f"(({self.int_cond()}) ? {a} : {b})"

    def int_cond(self) -> str:
        return f"{self.int_expr(2)} {self._pick(['<', '>', '!='])} " \
               f"{self.int_expr(2)}"

    def uint_expr(self, depth: int = 0) -> str:
        if depth >= 2 or self.rng.random() < 0.35:
            if self.rng.random() < 0.25:
                return f"{int(self.rng.integers(0, 64))}u"
            return self._pick(self.uint_vars)
        a = self.uint_expr(depth + 1)
        roll = self.rng.random()
        if roll < 0.4:
            return f"({a} {self._pick('+*&|^')} " \
                   f"{self.uint_expr(depth + 1)})"
        if roll < 0.75:     # unsigned div/mod by powers of two hits the
            pow2 = 1 << int(self.rng.integers(1, 5))  # strength reducer
            return f"({a} {self._pick(['/', '%'])} {pow2}u)"
        return f"({a} {self._pick(['<<', '>>'])} " \
               f"{int(self.rng.integers(0, 4))})"

    def float_expr(self, depth: int = 0) -> str:
        if depth >= 3 or self.rng.random() < 0.3:
            if self.rng.random() < 0.25:
                return f"{round(float(self.rng.uniform(-4, 4)), 2)}f"
            if self.rng.random() < 0.3:
                return f"fin[(({self.int_expr(2)}) % n + n) % n]"
            return self._pick(self.float_vars)
        roll = self.rng.random()
        a = self.float_expr(depth + 1)
        b = self.float_expr(depth + 1)
        if roll < 0.5:
            return f"({a} {self._pick('+-*')} {b})"
        if roll < 0.62:     # division by a safely-nonzero constant
            return f"({a} / {round(float(self.rng.uniform(1, 4)), 2)}f)"
        if roll < 0.74:
            return f"{self._pick(['fmin', 'fmax'])}({a}, {b})"
        if roll < 0.86:
            return self._pick([f"sqrt(fabs({a}))", f"fabs({a})"])
        return f"(({self.int_cond()}) ? {a} : {b})"

    # -- statements ----------------------------------------------------------

    def body(self, depth: int) -> list:
        """The statements of an ``if``, ``else`` or loop body."""
        local = None
        lines = []
        if self.span_locals and self.rng.random() < 0.6:
            local, lines = self.span_local(depth)
        for _ in range(int(self.rng.integers(1, 3))):
            lines += self.statement(depth)
        if local is not None:
            self.float_vars.remove(local)
        return lines

    def span_local(self, depth: int) -> tuple:
        """A float declared at the top of a body, read there and in a
        nested ``if``: every reference lies inside the body, so the
        compiled tier writes it without a blend.  It stays readable
        and assignable in the rest of the body."""
        name = f"l{self.n_locals}"
        self.n_locals += 1
        pad = "    " * (depth + 1)
        lines = [
            f"{pad}float {name} = {self.float_expr()};",
            f"{pad}{self._pick(self.float_vars)} = "
            f"{self._pick(self.float_vars)} + {name};",
            f"{pad}if ({name} > {self.float_expr(2)}) {{",
            f"{pad}    {self._pick(self.float_vars)} = "
            f"{name} * {self.float_expr(2)};",
            f"{pad}}}",
        ]
        self.float_vars.append(name)
        return name, lines

    def statement(self, depth: int) -> list:
        roll = self.rng.random()
        pad = "    " * (depth + 1)
        if roll < 0.5 or depth >= 2:
            kind = self.rng.random()
            if kind < 0.45:
                return [f"{pad}{self._pick(self.float_vars)} = "
                        f"{self.float_expr()};"]
            if kind < 0.8:
                return [f"{pad}{self._pick(['i0', 'i1', 'i2'])} = "
                        f"{self.int_expr()};"]
            return [f"{pad}{self._pick(self.uint_vars)} = "
                    f"{self.uint_expr()};"]
        if roll < 0.8:
            lines = [f"{pad}if ({self.int_cond()}) {{"]
            lines += self.body(depth + 1)
            if self.rng.random() < 0.5:
                lines += [f"{pad}}} else {{"]
                lines += self.body(depth + 1)
            lines += [f"{pad}}}"]
            return lines
        k = f"k{self.n_loops}"
        self.n_loops += 1
        bound = int(self.rng.integers(2, 5))
        lines = [f"{pad}for (int {k} = 0; {k} < {bound}; {k}++) {{"]
        self.int_vars.append(k)
        lines += self.body(depth + 1)
        self.int_vars.remove(k)
        lines += [f"{pad}}}"]
        return lines

    def barrier_block(self) -> list:
        """__local staging around a barrier, in uniform control flow.

        The trailing barrier is load-bearing: without it, a later
        re-staging of ``lbuf`` races with this block's cross-lane reads
        and the engines may legally disagree.
        """
        shift = int(self.rng.integers(1, self.lsize))
        return [
            f"    lbuf[lid] = {self._pick(self.float_vars)};",
            "    barrier(CLK_LOCAL_MEM_FENCE);",
            f"    {self._pick(self.float_vars)} = "
            f"lbuf[(lid + {shift}) % {self.lsize}];",
            "    barrier(CLK_LOCAL_MEM_FENCE);",
        ]

    def affine_block(self) -> list:
        """``__local`` and global accesses through affine indices under
        branches, at the top level (it holds barriers): stores and a
        read-back of the lane's own element under one, reads of other
        lanes' elements after a barrier under another.  The read
        indices all stay in the array on every lane."""
        tile = self.lsize
        fv, fw = self._pick(self.float_vars), self._pick(self.float_vars)
        index = self._pick(["lid", f"{tile - 1} - lid",
                            str(int(self.rng.integers(0, tile))),
                            f"(lid + 3) % {tile}"])
        return [
            f"    abuf[lid] = {self.float_expr(2)};",
            f"    if ({self.int_cond()}) {{",
            f"        abuf[lid] = {self.float_expr(2)};",
            f"        out[{self.gform}] = {self.float_expr(2)};",
            f"        {fv} = {fv} + abuf[lid] * out[{self.gform}];",
            "    }",
            "    barrier(CLK_LOCAL_MEM_FENCE);",
            f"    if ({self.int_cond()}) {{",
            f"        {fw} = {fw} - abuf[{index}];",
            "    }",
            "    barrier(CLK_LOCAL_MEM_FENCE);",
        ]

    def source(self) -> str:
        body = [
            "    int gid = get_global_id(0);",
            "    int lid = get_local_id(0);",
            "    int grp = get_group_id(0);",
            "    int i0 = iin[gid];",
            "    int i1 = gid * 3 + 1;",
            "    int i2 = iin[(gid + 7) % n];",
            "    uint u0 = (uint)(i0 & 1023);",
            "    uint u1 = (uint)gid * 2654435761u;",
            "    float f0 = fin[gid];",
            "    float f1 = s;",
            "    float f2 = fin[(gid + 3) % n] - 0.5f;",
        ]
        if self.has_barrier:
            body.append(f"    __local float lbuf[{self.lsize}];")
        if self.affine:
            body.append(f"    __local float abuf[{self.lsize}];")
        n_stmts = int(self.rng.integers(4, 9))
        barrier_at = set(self.rng.integers(0, n_stmts, size=2)) \
            if self.has_barrier else set()
        affine_at = set(self.rng.integers(0, n_stmts, size=2)) \
            if self.affine else set()
        for i in range(n_stmts):
            if i in barrier_at:
                body += self.barrier_block()
            if i in affine_at:
                body += self.affine_block()
            body += self.statement(0)
        body += [
            "    out[gid] = f0 + f1 + f2;",
            "    iout[gid] = i0 + i1 + i2 + (int)(u0 ^ u1);",
        ]
        return ("__kernel void fuzz(__global float* out, "
                "__global int* iout,\n"
                "                   __global const float* fin, "
                "__global const int* iin,\n"
                "                   int n, float s) {\n"
                + "\n".join(body) + "\n}\n")


def _run_config(engine: str, options: str, source: str, gsize, lsize,
                fin, iin, s):
    device = cl.Device(cl.TESLA_C2050, engine)
    out = np.zeros(gsize[0], np.float32)
    iout = np.zeros(gsize[0], np.int32)
    event = run_cl_kernel(device, source, "fuzz",
                          [out, iout, fin.copy(), iin.copy(),
                           np.int32(gsize[0]), np.float32(s)],
                          gsize, lsize, options=options)
    return out, iout, event.counters


#: the engines and opt levels every fuzz kernel runs on
_ENGINES = ("serial", "jit-interp", "jit-compiled")
_LEVELS = ("-O0", "-O2")

#: counters independent of the engine's execution model
_MODEL_INDEPENDENT = ("global_loads", "global_stores", "global_load_bytes",
                      "global_store_bytes", "local_accesses", "barriers",
                      "work_items", "work_groups")


def _check_kernel(seed: int, gen: _KernelGen) -> None:
    """Run ``gen``'s kernel on every engine and level; outputs agree
    bit for bit, compiled counters equal interpreted ones field for
    field, and serial equals jit on the model-independent fields."""
    source = gen.source()
    gsize = (gen.gsize,)
    lsize = gen.lsize_arg
    rng = np.random.default_rng(seed)
    fin = rng.uniform(0.1, 4.0, gen.gsize).astype(np.float32)
    iin = rng.integers(-100, 100, gen.gsize).astype(np.int32)
    s = round(float(rng.uniform(-2, 2)), 2)

    legs = {
        f"{engine} {level}": _run_config(engine, level, source, gsize,
                                         lsize, fin, iin, s)
        for level in _LEVELS for engine in _ENGINES
    }
    ref_name, (ref_out, ref_iout, _c) = next(iter(legs.items()))
    for name, (out, iout, _c) in legs.items():
        # byte-level compare: exact bits, NaN-safe
        assert out.tobytes() == ref_out.tobytes(), (
            f"seed {seed}: float outputs of {name} != {ref_name}\n"
            f"{source}")
        assert iout.tobytes() == ref_iout.tobytes(), (
            f"seed {seed}: int outputs of {name} != {ref_name}\n"
            f"{source}")
    for level in _LEVELS:
        interp = vars(legs[f"jit-interp {level}"][2])
        # compiling swaps the execution substrate, not the model:
        # every counter (ALU, traffic, transactions, barriers) must
        # match the interpreter exactly
        assert vars(legs[f"jit-compiled {level}"][2]) == interp, (
            f"seed {seed}: compiled {level} counters diverge from "
            f"interpreted {level}\n{source}")
        serial = vars(legs[f"serial {level}"][2])
        diff = {k: (serial[k], interp[k]) for k in _MODEL_INDEPENDENT
                if serial[k] != interp[k]}
        assert not diff, (
            f"seed {seed}: serial {level} != jit {level} on "
            f"model-independent counters (serial, jit): {diff}\n"
            f"{source}")


@pytest.mark.parametrize("batch", range(_BATCHES))
def test_random_kernels_bit_identical_across_engines(batch):
    """serial and both jit tiers at -O0 and -O2 agree bit for bit on 10
    random kernels per batch (seeds are stable, failures name the
    kernel); at each level compiled counters == interpreted counters
    field for field, and serial == jit on the model-independent
    fields."""
    for i in range(_KERNELS_PER_BATCH):
        seed = 1000 + batch * _KERNELS_PER_BATCH + i
        _check_kernel(seed, _KernelGen(seed))


@pytest.mark.parametrize("batch", range(_LOCAL_BATCHES))
def test_random_kernels_with_span_locals_bit_identical(batch):
    """The same six-way check on kernels whose ``if``, ``else`` and
    loop bodies declare block-local variables, which the compiled tier
    writes without a masked blend."""
    for i in range(_KERNELS_PER_BATCH):
        seed = 5000 + batch * _KERNELS_PER_BATCH + i
        _check_kernel(seed, _KernelGen(seed, span_locals=True))


@pytest.mark.parametrize("batch", range(_AFFINE_BATCHES))
def test_random_kernels_with_affine_accesses_bit_identical(batch):
    """The same six-way check on kernels that store to ``__local`` and
    global memory through affine indices under branches and read back
    through affine and non-affine ones, which the compiled tier moves
    through strided views under the branch mask."""
    for i in range(_KERNELS_PER_BATCH):
        seed = 7000 + batch * _KERNELS_PER_BATCH + i
        _check_kernel(seed, _KernelGen(seed, affine=True))


# -- cost model counts executed, post-optimization ops ------------------------

_FOLDABLE_SRC = """
__kernel void folded(__global float* y, __global const float* x) {
    int i = get_global_id(0);
    int dead = (3 * 4 + 5) * i;
    float zero = 2.0f - 2.0f;
    y[i] = (x[i] * 1.0f + zero) + (float)(8 / 4 - 2);
}
"""


class TestPostOptCosts:
    def test_o2_executes_fewer_ops_than_o0(self, any_engine_device):
        """-O2 folds `x*1`, `2-2`, the dead int chain … so the counters
        (which charge *executed* instructions) must drop, while the
        memory traffic — untouched by the passes — stays identical."""
        n = 64
        x = np.random.default_rng(7).random(n).astype(np.float32)

        def run(options):
            y = np.zeros(n, np.float32)
            event = run_cl_kernel(any_engine_device, _FOLDABLE_SRC,
                                  "folded", [y, x], (n,),
                                  options=options)
            return y, event.counters

        y0, c0 = run("-cl-opt-disable")
        y2, c2 = run("-O2")
        assert y0.tobytes() == y2.tobytes()
        assert c2.alu_ops < c0.alu_ops
        assert c2.global_loads == c0.global_loads
        assert c2.global_stores == c0.global_stores
        assert c2.global_load_bytes == c0.global_load_bytes
        assert c2.global_store_bytes == c0.global_store_bytes
