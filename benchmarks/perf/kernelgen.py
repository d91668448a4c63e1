"""Seeded generator of HPL kernels, each with a NumPy float32 twin.

A kernel *spec* is a nested tuple of plain values (strings, ints and
floats).  :func:`build` turns it into an HPL kernel function that is a
closure over that one tuple, so the HPL runtime keys every spec by value
(``HPLRuntime._func_key``): each spec gets its own cache entry and its
own OpenCL C source.  :func:`twin` evaluates the same spec with NumPy in
float32/int32 and serves as the output oracle.

Every kernel has the signature ``(fo, io, fa, fb, ia)``: float outputs,
int outputs, two float inputs in [0, 1) and one int input in [-16, 16].
The body uses private float and int scalars, ``if_``/``else_``,
constant-trip ``for_`` loops (not nested) and ``sqrt(fabs)``/``fmin``/
``fmax``/``floor``.  Values stay bounded by construction (assignments are
clamped when their bound could exceed ``FLOAT_LIMIT``/``INT_LIMIT``) and
no operation combines two literals, so the compiled kernel and the twin
perform the same float32 operations on the same operands.
"""

from __future__ import annotations

import math
import random

import numpy as np

#: private float / int scalars per kernel (int scalar 0 is the work-item id)
N_FLOAT = 3
N_INT = 3
#: magnitude every private scalar is clamped to
FLOAT_LIMIT = 64.0
INT_LIMIT = 4096
#: products whose bound exceeds this take an input operand instead
PRODUCT_LIMIT = 1.0e4
#: a kernel's body grows one statement at a time until the work it
#: executes (see :func:`_work`) reaches a budget taken log-uniformly from
#: this range, which spans the generated-source sizes of the paper
#: kernels, from reduction's (~0.7 kB) up to EP's (~5 kB)
MIN_WORK = 20
MAX_WORK = 450

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FLOAT_OPS = ("+", "-", "*", "sqrt", "fmin", "fmax", "floor", "itof")
_INT_OPS = ("i+", "i-", "i*", "imin", "imax")


def _is_const(expr) -> bool:
    return expr[0] in ("fc", "ic")


def _work(spec) -> int:
    """Tuples a (nested) spec executes; a loop body counts once per trip."""
    if spec and spec[0] == "for":
        return 1 + spec[1] * _work(spec[2])
    return 1 + sum(_work(x) for x in spec if isinstance(x, tuple))


class _Draw:
    """Random spec construction with magnitude bounds."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.trip = 0           # trip count of the enclosing for_, if any
        self.scalars = False    # private scalars declared yet

    # -- expressions: each returns (expr, bound) ----------------------------

    def fleaf(self, const_ok: bool):
        r = self.rng.random()
        if const_ok and r < 0.2:
            c = self.rng.randrange(-32, 33) / 8.0
            return ("fc", c), abs(c)
        if r < 0.45:
            return ("fa",), 1.0
        if r < 0.7 or not self.scalars:
            return ("fb",), 1.0
        return ("fv", self.rng.randrange(N_FLOAT)), FLOAT_LIMIT

    def fexpr(self, depth: int, const_ok: bool = True):
        if depth <= 0 or self.rng.random() < 0.25:
            return self.fleaf(const_ok)
        op = self.rng.choice(_FLOAT_OPS)
        if op == "sqrt":
            a, b = self.fexpr(depth - 1, False)
            return (op, a), math.sqrt(b)
        if op == "floor":
            a, b = self.fexpr(depth - 1, False)
            return (op, a), b + 1.0
        if op == "itof":
            a, b = self.iexpr(depth - 1, False)
            return (op, a), float(b)
        a, ba = self.fexpr(depth - 1)
        b, bb = self.fexpr(depth - 1, not _is_const(a))
        if op == "*":
            if ba * bb > PRODUCT_LIMIT:
                b, bb = self.fleaf(False)
                if ba * bb > PRODUCT_LIMIT:
                    b, bb = ("fa",), 1.0
            return (op, a, b), ba * bb
        if op in ("fmin", "fmax"):
            return (op, a, b), max(ba, bb)
        return (op, a, b), ba + bb

    def ileaf(self, const_ok: bool):
        r = self.rng.random()
        if const_ok and r < 0.2:
            c = self.rng.randrange(-8, 9)
            return ("ic", c), abs(c)
        if self.trip and r < 0.4:
            return ("lv",), self.trip
        if r < 0.65 or not self.scalars:
            return ("ia",), 16
        return ("iv", self.rng.randrange(N_INT)), INT_LIMIT

    def iexpr(self, depth: int, const_ok: bool = True):
        if depth <= 0 or self.rng.random() < 0.3:
            return self.ileaf(const_ok)
        op = self.rng.choice(_INT_OPS)
        a, ba = self.iexpr(depth - 1, False)
        if op == "i*":
            c = self.rng.choice((2, 3, -2))
            return (op, a, c), ba * abs(c)
        b, bb = self.iexpr(depth - 1, True)
        if op in ("imin", "imax"):
            return (op, a, b), max(ba, bb)
        return (op, a, b), ba + bb

    def cond(self):
        if self.rng.random() < 0.6:
            a, _ = self.fexpr(1)
            b, _ = self.fexpr(1, not _is_const(a))
            return ("f<", a, b)
        a, _ = self.iexpr(1)
        b, _ = self.iexpr(1, not _is_const(a))
        return ("i<", a, b)

    # -- statements ---------------------------------------------------------

    def stmt(self, nest: int):
        r = self.rng.random()
        if nest < 2 and r < 0.16:
            then = self.block(self.rng.randint(1, 3), nest + 1)
            other = self.block(self.rng.randint(0, 2), nest + 1)
            return ("if", self.cond(), then, other)
        if nest < 2 and not self.trip and r < 0.28:
            self.trip = self.rng.randint(2, 3)
            body = self.block(self.rng.randint(1, 3), nest + 1)
            trip, self.trip = self.trip, 0
            return ("for", trip, body)
        if r < 0.7:
            e, b = self.fexpr(self.rng.randint(1, 3))
            if b > FLOAT_LIMIT:
                e = ("fclamp", e)
            return ("fset", self.rng.randrange(N_FLOAT), e)
        e, b = self.iexpr(self.rng.randint(1, 3))
        if b > INT_LIMIT:
            e = ("iclamp", e)
        return ("iset", self.rng.randrange(N_INT - 1) + 1, e)

    def block(self, count: int, nest: int) -> tuple:
        return tuple(self.stmt(nest) for _ in range(count))


def generate(seed: int, index: int) -> tuple:
    """The spec of kernel ``index`` of stream ``seed`` (deterministic)."""
    rng = random.Random(f"hplgen:{seed}:{index}")
    draw = _Draw(rng)
    # private scalars start from inputs and literals only
    finit = tuple(draw.fexpr(1)[0] for _ in range(N_FLOAT))
    iinit = tuple(draw.iexpr(1)[0] for _ in range(N_INT - 1))
    draw.scalars = True
    # the work budget comes from a seed-independent low-discrepancy
    # sequence, so every seed's stream has the same mix of kernel sizes
    # and only the kernels' contents depend on the seed
    share = ((index + 1) * _GOLDEN) % 1.0
    lo, hi = math.log(MIN_WORK), math.log(MAX_WORK)
    budget = math.exp(lo + share * (hi - lo))
    body = []
    work = _work(finit) + _work(iinit)
    while work < budget:
        body.append(draw.stmt(0))
        work += _work(body[-1])
    body = tuple(body)
    fout, _ = draw.fexpr(2, False)
    iout, _ = draw.iexpr(2, False)
    return ("hplgen", finit, iinit, body, fout, iout)


def inputs(seed: int, index: int, n: int = 256):
    """Seeded ``(fa, fb, ia)`` input arrays for one kernel launch."""
    key = random.Random(f"inputs:{seed}:{index}").getrandbits(64)
    rng = np.random.default_rng(key)
    fa = rng.random(n, dtype=np.float32)
    fb = rng.random(n, dtype=np.float32)
    ia = rng.integers(-16, 17, size=n, dtype=np.int32)
    return fa, fb, ia


# -- HPL kernel ---------------------------------------------------------------


def build(spec: tuple):
    """The HPL kernel function for ``spec`` (a closure over ``spec`` only,
    so the runtime's cache key is the spec's value)."""
    def hplgen(fo, io, fa, fb, ia):
        _emit(spec, fo, io, fa, fb, ia)
    return hplgen


class _Emitter:
    def __init__(self, hpl, fa, fb, ia) -> None:
        self.hpl = hpl
        self.fa, self.fb, self.ia = fa, fb, ia
        self.fv: list = []
        self.iv: list = []
        self.loop = None

    def f(self, x):
        h, t = self.hpl, x[0]
        if t == "fa":
            return self.fa[h.idx]
        if t == "fb":
            return self.fb[h.idx]
        if t == "fv":
            return self.fv[x[1]]
        if t == "fc":
            return x[1]
        if t == "+":
            return self.f(x[1]) + self.f(x[2])
        if t == "-":
            return self.f(x[1]) - self.f(x[2])
        if t == "*":
            return self.f(x[1]) * self.f(x[2])
        if t == "sqrt":
            return h.sqrt(h.fabs(self.f(x[1])))
        if t == "fmin":
            return h.fmin(self.f(x[1]), self.f(x[2]))
        if t == "fmax":
            return h.fmax(self.f(x[1]), self.f(x[2]))
        if t == "floor":
            return h.floor(self.f(x[1]))
        if t == "itof":
            return h.cast(self.i(x[1]), h.float_)
        if t == "fclamp":
            return h.fmin(h.fmax(self.f(x[1]), -FLOAT_LIMIT), FLOAT_LIMIT)
        raise ValueError(f"unknown float node {t!r}")

    def i(self, x):
        h, t = self.hpl, x[0]
        if t == "ia":
            return self.ia[h.idx]
        if t == "iv":
            return self.iv[x[1]]
        if t == "ic":
            return x[1]
        if t == "lv":
            return self.loop
        if t == "i+":
            return self.i(x[1]) + self.i(x[2])
        if t == "i-":
            return self.i(x[1]) - self.i(x[2])
        if t == "i*":
            return self.i(x[1]) * x[2]
        if t == "imin":
            return h.min_(self.i(x[1]), self.i(x[2]))
        if t == "imax":
            return h.max_(self.i(x[1]), self.i(x[2]))
        if t == "iclamp":
            return h.min_(h.max_(self.i(x[1]), -INT_LIMIT), INT_LIMIT)
        raise ValueError(f"unknown int node {t!r}")

    def cond(self, x):
        if x[0] == "f<":
            return self.f(x[1]) < self.f(x[2])
        return self.i(x[1]) < self.i(x[2])

    def block(self, stmts) -> None:
        h = self.hpl
        for s in stmts:
            t = s[0]
            if t == "fset":
                self.fv[s[1]].assign(self.f(s[2]))
            elif t == "iset":
                self.iv[s[1]].assign(self.i(s[2]))
            elif t == "if":
                h.if_(self.cond(s[1]))
                self.block(s[2])
                if s[3]:
                    h.else_()
                    self.block(s[3])
                h.endif_()
            else:                       # "for"
                self.loop = h.Int()
                h.for_(self.loop, 0, s[1])
                self.block(s[2])
                h.endfor_()


def _emit(spec, fo, io, fa, fb, ia) -> None:
    # imported here, not at module level: the benchmark times the import
    # of the program as part of its set-up, after generating inputs
    from repro import hpl
    _tag, finit, iinit, body, fout, iout = spec
    em = _Emitter(hpl, fa, fb, ia)
    em.fv = [hpl.Float(em.f(x)) for x in finit]
    em.iv = [hpl.Int(hpl.idx)] + [hpl.Int(em.i(x)) for x in iinit]
    em.block(body)
    fo[hpl.idx] = em.f(fout)
    io[hpl.idx] = em.i(iout)


# -- NumPy twin -----------------------------------------------------------------


class _Twin:
    def __init__(self, fa, fb, ia) -> None:
        self.fa, self.fb, self.ia = fa, fb, ia
        n = fa.shape[0]
        self.fv: list = []
        self.iv = [np.arange(n, dtype=np.int32)]
        self.loop = None

    def f(self, x):
        t = x[0]
        if t == "fa":
            return self.fa
        if t == "fb":
            return self.fb
        if t == "fv":
            return self.fv[x[1]]
        if t == "fc":
            return np.float32(x[1])
        if t == "+":
            return self.f(x[1]) + self.f(x[2])
        if t == "-":
            return self.f(x[1]) - self.f(x[2])
        if t == "*":
            return self.f(x[1]) * self.f(x[2])
        if t == "sqrt":
            return np.sqrt(np.abs(self.f(x[1])))
        if t == "fmin":
            return np.fmin(self.f(x[1]), self.f(x[2]))
        if t == "fmax":
            return np.fmax(self.f(x[1]), self.f(x[2]))
        if t == "floor":
            return np.floor(self.f(x[1]))
        if t == "itof":
            return np.asarray(self.i(x[1])).astype(np.float32)
        if t == "fclamp":
            lim = np.float32(FLOAT_LIMIT)
            return np.fmin(np.fmax(self.f(x[1]), -lim), lim)
        raise ValueError(f"unknown float node {t!r}")

    def i(self, x):
        t = x[0]
        if t == "ia":
            return self.ia
        if t == "iv":
            return self.iv[x[1]]
        if t == "ic":
            return np.int32(x[1])
        if t == "lv":
            return self.loop
        if t == "i+":
            return self.i(x[1]) + self.i(x[2])
        if t == "i-":
            return self.i(x[1]) - self.i(x[2])
        if t == "i*":
            return self.i(x[1]) * np.int32(x[2])
        if t == "imin":
            return np.minimum(self.i(x[1]), self.i(x[2]))
        if t == "imax":
            return np.maximum(self.i(x[1]), self.i(x[2]))
        if t == "iclamp":
            lim = np.int32(INT_LIMIT)
            return np.minimum(np.maximum(self.i(x[1]), -lim), lim)
        raise ValueError(f"unknown int node {t!r}")

    def cond(self, x):
        if x[0] == "f<":
            return self.f(x[1]) < self.f(x[2])
        return self.i(x[1]) < self.i(x[2])

    def block(self, stmts, mask) -> None:
        for s in stmts:
            t = s[0]
            if t == "fset":
                self.fv[s[1]] = np.where(mask, self.f(s[2]),
                                         self.fv[s[1]]).astype(np.float32)
            elif t == "iset":
                self.iv[s[1]] = np.where(mask, self.i(s[2]),
                                         self.iv[s[1]]).astype(np.int32)
            elif t == "if":
                taken = self.cond(s[1])
                self.block(s[2], mask & taken)
                self.block(s[3], mask & ~taken)
            else:                       # "for"
                for trip in range(s[1]):
                    self.loop = np.int32(trip)
                    self.block(s[2], mask)


def twin(spec: tuple, fa, fb, ia):
    """NumPy evaluation of ``spec``: the expected ``(fo, io)`` outputs."""
    _tag, finit, iinit, body, fout, iout = spec
    n = fa.shape[0]
    tw = _Twin(fa, fb, ia)
    tw.fv = [np.broadcast_to(tw.f(x), (n,)).astype(np.float32)
             for x in finit]
    tw.iv += [np.broadcast_to(tw.i(x), (n,)).astype(np.int32)
              for x in iinit]
    all_lanes = np.ones(n, dtype=bool)
    tw.block(body, all_lanes)
    fo = np.broadcast_to(tw.f(fout), (n,)).astype(np.float32)
    io = np.broadcast_to(tw.i(iout), (n,)).astype(np.int32)
    return fo, io


def matches(spec: tuple, fa, fb, ia, fo, io) -> bool:
    """Whether kernel outputs ``(fo, io)`` agree with the twin."""
    want_f, want_i = twin(spec, fa, fb, ia)
    return bool(np.allclose(fo, want_f, rtol=1e-4, atol=1e-6)
                and np.array_equal(io, want_i))
