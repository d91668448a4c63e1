"""One constant evaluator: sema's constant contexts and the implicit
conversion of a constant follow the fold pass's C rules, which are the
engines' rules.

Array sizes, ``barrier`` flags, work-item dimensions and ``char c =
300;`` wrap and truncate exactly as the same expression does at run
time, and an integer literal that no C type can hold fails the build
with a located error instead of crashing the launch.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.ocl as cl
from repro import hpl
from repro.clc import compile_source
from repro.clc import ir as I
from repro.clc.passes.manager import walk_exprs
from repro.clc.sema import Sema
from repro.errors import BuildProgramFailure, CompileError
from repro.ocl import TESLA_C2050
from tests.conftest import ENGINE_LEGS, run_cl_kernel

LEVELS = ["-O0", "-O2"]

INT_TYPES = ["char", "uchar", "short", "ushort", "int", "uint", "long",
             "ulong"]


def _run(engine, source, out, options):
    run_cl_kernel(cl.Device(TESLA_C2050, engine), source, "k", [out], (1,),
                  options=options)
    return out


@pytest.mark.parametrize("options", LEVELS)
@pytest.mark.parametrize("engine", ENGINE_LEGS)
class TestConstantContexts:
    def test_array_size_wraps_like_c(self, engine, options):
        source = """__kernel void k(__global int* o) {
            __local int b[(uint)-1 >> 28];
            for (int i = 0; i < 15; i++) b[i] = i;
            o[0] = b[14];
        }"""
        decl = compile_source(source).kernels["k"].body[0]
        assert isinstance(decl, I.DeclArray) and decl.size == 15
        assert _run(engine, source, np.zeros(1, np.int32), options)[0] == 14

    def test_char_initializer_wraps_like_c(self, engine, options):
        source = """__kernel void k(__global char* o) {
            char c = 300;
            o[0] = c;
        }"""
        assert _run(engine, source, np.zeros(1, np.int8), options)[0] == 44

    def test_hpl_char_store_wraps_like_c(self, engine, options,
                                         fresh_runtime):
        def kernel(a):
            a[hpl.idx] = 300

        hpl.configure(engine=engine, opt_level=int(options[2]))
        try:
            a = hpl.Array(hpl.char_, 4)
            hpl.eval(kernel)(a)
            assert a.read().tolist() == [44] * 4
        finally:
            hpl.configure(engine=None, opt_level=None)

    def test_literal_too_wide_for_any_type_fails_the_build(self, engine,
                                                            options):
        source = ("__kernel void k(__global ulong* o) {\n"
                  "    o[0] = 18446744073709551616;\n"
                  "}\n")
        with pytest.raises(BuildProgramFailure, match=r"<kernel>:2:12: "
                           "integer literal is too large"):
            _run(engine, source, np.zeros(1, np.uint64), options)
        with pytest.raises(CompileError) as info:
            compile_source(source)
        assert (info.value.line, info.value.col) == (2, 12)


def test_barrier_flags_and_dimensions_fold_like_c():
    k = compile_source("""__kernel void k(__global int* o) {
        barrier((uint)-1 >> 30);
        o[get_global_id((char)256 + 1)] = 0;
    }""").kernels["k"]
    assert k.body[0].flags == 3
    assert k.body[1].target.index.args[0].value == 1


# -- differential: sema's constant evaluator vs the serial engine ----------

_LITERALS = st.one_of(
    st.integers(0, 300),
    st.sampled_from([127, 128, 255, 256, 32767, 32768, 65535, 65536,
                     2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**63 - 1, 2**63,
                     2**64 - 1]),
    st.integers(0, 2**64 - 1))


@st.composite
def _leaf(draw) -> str:
    value = draw(_LITERALS)
    suffix = draw(st.sampled_from(["", "u", "l", "ul"]))
    if value > 2**63 - 1 and "u" not in suffix:
        suffix += "u"               # no signed type holds it
    text = f"{hex(value) if draw(st.booleans()) else value}{suffix}"
    if draw(st.booleans()):
        text = f"(({draw(st.sampled_from(INT_TYPES))}){text})"
    return text


def _extend(children):
    binary = st.tuples(children, st.sampled_from(
        ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"]), children)
    return st.one_of(
        binary.map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["~", "-"]), children).map(
            lambda t: f"({t[0]}{t[1]})"),
        st.tuples(st.sampled_from(INT_TYPES), children).map(
            lambda t: f"(({t[0]}){t[1]})"))


_EXPRESSIONS = st.recursive(_leaf(), _extend, max_leaves=8)


def _zero_divisor(expr) -> bool:
    return any(isinstance(e, I.Binary) and e.op in ("/", "%")
               and Sema._fold(copy.deepcopy(e.rhs)) == 0
               for e in walk_exprs(expr))


def _condition(text):
    """``text`` lowered as a condition, which keeps the expression's
    own type (no conversion)."""
    return compile_source(
        f"__kernel void k(__global int* o) {{ if ({text}) o[0] = 1; }}"
    ).kernels["k"].body[0].cond


def _check_against_serial(text, expr):
    folded = Sema._fold(expr)
    assert folded is not None, text
    out = np.zeros(1, expr.type.np_dtype)
    _run("serial", f"__kernel void k(__global {expr.type.name}* o) "
                   f"{{ o[0] = {text}; }}", out, "-O0")
    assert int(out[0]) == folded, text
    return folded


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(text=_EXPRESSIONS)
def test_sema_folds_constants_like_the_serial_engine(text):
    expr = _condition(text)
    assume(not _zero_divisor(expr))
    _check_against_serial(text, expr)


# C99 6.4.4.1, 32-bit int and 64-bit long: an unsuffixed hex or octal
# literal tries int, uint, long, ulong; a decimal one int, long; a ``u``
# suffix uint, ulong.
@pytest.mark.parametrize("text,type_name,value", [
    ("0xFFFFFFFF + 1", "uint", 0),
    ("-1 < 0xFFFFFFFF", "int", 0),
    ("-1 < 4294967295", "int", 1),
    ("2147483648u", "uint", 2**31),
    ("4294967296u", "ulong", 2**32),
    ("0x7FFFFFFF", "int", 2**31 - 1),
    ("0x80000000", "uint", 2**31),
    ("2147483648", "long", 2**31),
    ("0x100000000", "long", 2**32),
    ("0x8000000000000000", "ulong", 2**63),
    ("0x80000000l", "long", 2**31),
    ("00", "int", 0),
    ("(uint)3 * 2654435761u", "uint", 3 * 2654435761 % 2**32),
])
def test_integer_literal_types_follow_c99(text, type_name, value):
    expr = _condition(text)
    assert expr.type.name == type_name
    assert _check_against_serial(text, expr) == value
