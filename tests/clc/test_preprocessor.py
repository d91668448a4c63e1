"""Preprocessor tests."""

import importlib
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clc.preprocessor import Preprocessor, preprocess
from repro.errors import PreprocessorError


def squeeze(text):
    """Collapse whitespace for content comparisons."""
    return " ".join(text.split())


class TestObjectMacros:
    def test_simple_define(self):
        out = preprocess("#define N 16\nint x = N;")
        assert "16" in out and "N" not in squeeze(out).replace("16", "")

    def test_define_is_erased_from_output(self):
        out = preprocess("#define N 16\nN")
        assert out.split("\n")[0] == ""

    def test_line_count_preserved(self):
        src = "#define A 1\n\nA\nA"
        out = preprocess(src)
        assert len(out.split("\n")) == len(src.split("\n"))

    def test_recursive_expansion(self):
        out = preprocess("#define A B\n#define B 7\nA")
        assert squeeze(out) == "7"

    def test_self_reference_does_not_loop(self):
        out = preprocess("#define X X + 1\nX")
        assert squeeze(out) == "X + 1"

    def test_undef(self):
        out = preprocess("#define N 5\n#undef N\nN")
        assert squeeze(out) == "N"

    def test_redefinition_takes_latest(self):
        out = preprocess("#define N 1\n#define N 2\nN")
        assert squeeze(out) == "2"

    def test_no_expansion_inside_identifier(self):
        out = preprocess("#define N 5\nint NN = N;")
        assert "NN" in out and "55" not in out

    def test_line_continuation(self):
        out = preprocess("#define SUM 1 + \\\n2\nSUM")
        assert squeeze(out) == "1 + 2"


class TestFunctionMacros:
    def test_basic_call(self):
        out = preprocess("#define SQR(x) ((x) * (x))\nSQR(3)")
        assert squeeze(out) == "((3) * (3))"

    def test_two_parameters(self):
        out = preprocess("#define ADD(a, b) (a + b)\nADD(1, 2)")
        assert squeeze(out) == "(1 + 2)"

    def test_nested_parens_in_argument(self):
        out = preprocess("#define ID(x) x\nID(f(1, 2))")
        assert squeeze(out) == "f(1, 2)"

    def test_argument_expansion(self):
        out = preprocess("#define N 4\n#define ID(x) x\nID(N)")
        assert squeeze(out) == "4"

    def test_name_without_call_left_alone(self):
        out = preprocess("#define F(x) x\nint F = 3;")
        assert "int F = 3" in out

    def test_wrong_arity_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#define ADD(a, b) a+b\nADD(1)")

    def test_zero_arg_macro(self):
        out = preprocess("#define GET() 42\nGET()")
        assert squeeze(out) == "42"


class TestConditionals:
    def test_ifdef_taken(self):
        out = preprocess("#define ON 1\n#ifdef ON\nyes\n#endif")
        assert "yes" in out

    def test_ifdef_skipped(self):
        out = preprocess("#ifdef OFF\nno\n#endif")
        assert "no" not in out

    def test_ifndef(self):
        out = preprocess("#ifndef OFF\nyes\n#endif")
        assert "yes" in out

    def test_else_branch(self):
        out = preprocess("#ifdef OFF\nno\n#else\nyes\n#endif")
        assert "yes" in out and "no" not in out

    def test_nested_conditionals(self):
        src = ("#define A 1\n#ifdef A\n#ifdef B\nno\n#else\nyes\n#endif\n"
               "#endif")
        out = preprocess(src)
        assert "yes" in out and "no" not in out

    def test_unterminated_if_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#ifdef X\nfoo")

    def test_stray_endif_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("#endif")

    def test_defines_inside_inactive_branch_ignored(self):
        out = preprocess("#ifdef OFF\n#define N 5\n#endif\nN")
        assert squeeze(out) == "N"


class TestBuildOptions:
    def test_dash_d_with_value(self):
        out = preprocess("N", options="-DN=32")
        assert squeeze(out) == "32"

    def test_dash_d_without_value_defaults_to_1(self):
        out = preprocess("#ifdef FLAG\nyes\n#endif", options="-D FLAG")
        assert "yes" in out

    def test_unknown_options_ignored(self):
        out = preprocess("x", options="-cl-fast-relaxed-math")
        assert squeeze(out) == "x"

    def test_bad_macro_name_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("x", options="-D1BAD=2")


class TestDirectives:
    def test_pragma_ignored(self):
        out = preprocess("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\nx")
        assert squeeze(out) == "x"

    def test_include_rejected(self):
        with pytest.raises(PreprocessorError):
            preprocess('#include "foo.h"')

    def test_unknown_directive_rejected(self):
        with pytest.raises(PreprocessorError):
            preprocess("#frobnicate")


@given(st.text(alphabet="abcdefghij XY+-*/()0123456789\n", max_size=200))
def test_no_directives_roundtrip(text):
    """Directive-free, macro-free text passes through unchanged."""
    if "#" in text:
        return
    assert preprocess(text) == text


# -- macro-free pass-through ----------------------------------------------------

FP64_SOURCE = """#pragma OPENCL EXTENSION cl_khr_fp64 : enable
__kernel void twice(__global double* y) {
    y[get_global_id(0)] = y[get_global_id(0)] * 2.0; // in place
}
"""


class _FullExpansion(Preprocessor):
    """The preprocessor without its pass-through: every line is
    tokenized and expanded, defined macros or not."""

    def _expand_line(self, line, lineno):
        return self._expand(line, lineno, frozenset())


def _benchsuite_sources() -> dict:
    """The hand-written OpenCL C of the benchsuite (some define
    macros, so their later lines take the expanding path)."""
    out = {}
    for bench in ("ep", "floyd", "reduction", "spmv", "transpose"):
        kernels = importlib.import_module(f"repro.benchsuite.{bench}.kernels")
        out[bench] = getattr(kernels, f"{bench.upper()}_OPENCL_SOURCE")
        table1 = importlib.import_module(
            f"repro.benchsuite.table1.{bench}_opencl")
        out[f"table1/{bench}"] = table1.KERNEL_SOURCE
    return out


def _kernelgen_sources(count: int) -> dict:
    """HPL codegen output for the perf benchmark's generated kernels."""
    import repro.hpl as hpl
    from repro.hpl import get_runtime, reset_runtime

    path = (Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
            / "kernelgen.py")
    spec = importlib.util.spec_from_file_location("kernelgen", path)
    kernelgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernelgen)
    out = {}
    reset_runtime()
    for index in range(count):
        fa, fb, ia = kernelgen.inputs(0, index, n=4)
        args = (hpl.Array(hpl.float_, 4), hpl.Array(hpl.int_, 4),
                hpl.Array(hpl.float_, 4, data=fa),
                hpl.Array(hpl.float_, 4, data=fb),
                hpl.Array(hpl.int_, 4, data=ia))
        kernel = kernelgen.build(kernelgen.generate(0, index))
        out[f"kernelgen/{index}"] = \
            get_runtime().get_captured(kernel, args).source
    reset_runtime()
    return out


@pytest.fixture(scope="module")
def generated():
    """Sources of generated kernels: none defines a macro."""
    from tests.clc.corpus import fuzz_sources, paper_sources

    return {**paper_sources(), **fuzz_sources(20), **_kernelgen_sources(20)}


class TestMacroFreePassThrough:
    def test_output_equals_the_full_expansion(self, generated):
        corpus = {**_benchsuite_sources(), **generated, "fp64": FP64_SOURCE}
        for name, source in corpus.items():
            assert Preprocessor().process(source) == \
                _FullExpansion().process(source), name

    def test_macro_free_sources_skip_expansion(self, generated,
                                               monkeypatch):
        calls = []
        real = Preprocessor._expand
        monkeypatch.setattr(Preprocessor, "_expand",
                            lambda self, *a: calls.append(a) or real(self, *a))
        for name, source in generated.items():
            assert preprocess(source) == source, name
        assert preprocess(FP64_SOURCE) == "\n" + FP64_SOURCE.split("\n", 1)[1]
        assert calls == []

    def test_expansion_resumes_after_a_define(self):
        text = "A B\n#define A 1\nA B\n#undef A\nA B"
        assert preprocess(text) == "A B\n\n1 B\n\nA B"
        assert preprocess(text) == _FullExpansion().process(text)

    def test_dash_d_option_still_expands(self):
        assert preprocess("x = N;", "-DN=4") == "x = 4;"
