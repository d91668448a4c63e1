"""Semantic analysis tests."""

import pytest

from repro.clc import compile_source
from repro.clc import ir as I
from repro.clc.types import DOUBLE, FLOAT, INT, LONG, UINT, ULONG
from repro.errors import SemanticError


def compile_kernel_body(body, params="__global int* a"):
    src = f"__kernel void k({params}) {{ {body} }}"
    return compile_source(src).kernels["k"]


def expect_error(body, match, params="__global int* a"):
    with pytest.raises(SemanticError, match=match):
        compile_kernel_body(body, params)


class TestSignatures:
    def test_kernel_must_return_void(self):
        with pytest.raises(SemanticError, match="return void"):
            compile_source("__kernel int k() { return 1; }")

    def test_kernel_pointer_needs_address_space(self):
        with pytest.raises(SemanticError, match="__global"):
            compile_source("__kernel void k(float* p) {}")

    def test_helper_pointer_defaults_to_global(self):
        prog = compile_source(
            "void f(float* p) { p[0] = 1.0f; } __kernel void k() {}")
        assert str(prog.functions["f"].params[0].type) == \
            "__global float*"

    def test_duplicate_param_rejected(self):
        with pytest.raises(SemanticError, match="duplicate"):
            compile_source("__kernel void k(int x, int x) {}")

    def test_redefining_function_rejected(self):
        with pytest.raises(SemanticError, match="redefinition"):
            compile_source("void f() {} void f() {}")

    def test_pointer_to_pointer_rejected(self):
        with pytest.raises(SemanticError, match="pointer-to-pointer"):
            compile_source("__kernel void k(__global float** p) {}")


class TestTyping:
    def test_int_plus_float_is_float(self):
        k = compile_kernel_body("float x = a[0] + 1.5f;",
                                "__global float* a")
        decl = [s for s in k.body if isinstance(s, I.DeclVar)][0]
        assert decl.init.type is FLOAT

    def test_double_literal_promotes(self):
        k = compile_kernel_body("double x = a[0] * 0.5;",
                                "__global float* a")
        assert k.uses_fp64

    def test_float_only_kernel_has_no_fp64(self):
        k = compile_kernel_body("a[0] = a[0] * 2.0f;",
                                "__global float* a")
        assert not k.uses_fp64

    def test_comparison_yields_int(self):
        k = compile_kernel_body("int x = a[0] < a[1];")
        decl = [s for s in k.body if isinstance(s, I.DeclVar)][0]
        assert decl.init.type is INT

    def test_small_ints_promote_to_int(self):
        src = ("__kernel void k(__global char* a) "
               "{ int x = a[0] + a[1]; }")
        prog = compile_source(src)
        decl = [s for s in prog.kernels["k"].body
                if isinstance(s, I.DeclVar)][0]
        assert decl.init.type is INT

    def test_signed_unsigned_same_rank_goes_unsigned(self):
        k = compile_kernel_body("uint u = 1u; int i = 2; a[0] = u + i;",
                                "__global uint* a")
        store = [s for s in k.body if isinstance(s, I.Store)][0]
        assert store.value.type is UINT or isinstance(store.value,
                                                      I.Convert)

    def test_modulo_on_floats_rejected(self):
        expect_error("a[0] = 1.0f % 2.0f;", "fmod",
                     "__global float* a")

    def test_bitwise_on_floats_rejected(self):
        expect_error("a[0] = 1.0f & 2.0f;", "integer",
                     "__global float* a")

    def test_large_literal_is_long(self):
        k = compile_kernel_body("long x = 4294967296;")
        decl = [s for s in k.body if isinstance(s, I.DeclVar)][0]
        assert decl.init.type in (LONG, ULONG)

    def test_index_must_be_integer(self):
        expect_error("a[1.5f] = 1;", "integer")

    def test_cast_to_scalar(self):
        k = compile_kernel_body("a[0] = (int)(1.9f);")
        store = [s for s in k.body if isinstance(s, I.Store)][0]
        assert store.value.type is INT


class TestNamesAndScopes:
    def test_undeclared_name_rejected(self):
        expect_error("a[0] = nope;", "undeclared")

    def test_block_scoping(self):
        expect_error("{ int x = 1; } a[0] = x;", "undeclared")

    def test_shadowing_in_inner_block_ok(self):
        k = compile_kernel_body("int x = 1; { int y = x; a[0] = y; }")
        assert k is not None

    def test_redeclaration_in_same_scope_rejected(self):
        expect_error("int x = 1; int x = 2;", "redeclaration")

    def test_redeclaration_points_at_the_second_declarator(self):
        with pytest.raises(SemanticError, match="redeclaration") as info:
            compile_source("__kernel void k() {\n"
                           "    int x = 1;\n"
                           "    uchar x = 2;\n"
                           "}")
        assert (info.value.line, info.value.col) == (3, 11)

    def test_duplicate_parameter_points_at_the_second_parameter(self):
        with pytest.raises(SemanticError, match="duplicate") as info:
            compile_source("__kernel void k(int n,\n"
                           "                int n) {}")
        assert (info.value.line, info.value.col) == (2, 17)

    def test_for_scope_variable(self):
        expect_error("for (int i = 0; i < 4; i++) {} a[0] = i;",
                     "undeclared")

    def test_predefined_constants(self):
        k = compile_kernel_body("a[0] = INT_MAX;")
        assert k is not None


class TestStatements:
    def test_break_outside_loop_rejected(self):
        expect_error("break;", "outside")

    def test_continue_outside_loop_rejected(self):
        expect_error("continue;", "outside")

    def test_assignment_inside_expression_rejected(self):
        expect_error("a[0] = (a[1] = 2);", "subset|assignment")

    def test_chained_assignment_rejected(self):
        expect_error("a[0] = a[1] = 2;", "chained|subset|assignment")

    def test_incdec_only_as_statement(self):
        expect_error("a[0] = a[1]++;", "statement")

    def test_expression_statement_must_have_effect(self):
        expect_error("1 + 2;", "statements")

    def test_store_to_constant_memory_rejected(self):
        expect_error("c[0] = 1.0f;", "read-only",
                     "__constant float* c")

    def test_assign_to_kernel_scalar_arg_rejected(self):
        expect_error("n = 3;", "by-value",
                     "__global int* a, int n")

    def test_helper_can_assign_its_scalar_params(self):
        prog = compile_source(
            "int f(int x) { x = x + 1; return x; }"
            "__kernel void k(__global int* a) { a[0] = f(a[0]); }")
        assert "f" in prog.functions

    def test_assign_to_array_name_rejected(self):
        expect_error("a = a;", "element")


class TestLocalsAndBarriers:
    def test_local_array_in_kernel(self):
        k = compile_kernel_body("__local float s[8]; s[0] = 1.0f;")
        assert k.local_arrays == ["s"]

    def test_local_in_helper_rejected(self):
        with pytest.raises(SemanticError, match="kernel"):
            compile_source("void f() { __local float s[8]; }")

    def test_local_array_size_must_be_constant(self):
        expect_error("int n = 4; __local float s[n];", "constant")

    def test_barrier_sets_flag(self):
        k = compile_kernel_body("barrier(CLK_LOCAL_MEM_FENCE);")
        assert k.uses_barrier

    def test_barrier_in_helper_rejected(self):
        with pytest.raises(SemanticError, match="helper"):
            compile_source(
                "void f() { barrier(CLK_LOCAL_MEM_FENCE); }"
                "__kernel void k() {}")

    def test_barrier_flags_must_be_constant(self):
        expect_error("barrier(a[0]);", "constant")

    def test_array_initializer_rejected(self):
        expect_error("float s[2] = 0;", "initializer")


class TestCallsAndAccess:
    def test_unknown_function_rejected(self):
        expect_error("a[0] = frob(1);", "unknown")

    def test_builtin_arity_checked(self):
        expect_error("a[0] = max(1);", "argument")

    def test_workitem_dim_must_be_constant(self):
        expect_error("a[0] = get_global_id(a[0]);", "constant")

    def test_workitem_dim_range_checked(self):
        expect_error("a[0] = get_global_id(3);", "0, 1 or 2")

    def test_recursion_rejected(self):
        with pytest.raises(SemanticError, match="recursion"):
            compile_source(
                "int f(int x) { return g(x); }"
                "int g(int x) { return f(x); }"
                "__kernel void k() {}")

    def test_recursion_points_at_the_function_closing_the_cycle(self):
        with pytest.raises(SemanticError, match="recursion") as info:
            compile_source("int f(int x) { return g(x); }\n"
                           "int g(int x) { return f(x); }\n"
                           "__kernel void k() {}")
        assert (info.value.line, info.value.col) == (1, 1)

    def test_param_read_write_classification(self):
        src = ("__kernel void k(__global float* r, __global float* w,"
               " __global float* rw) {"
               " w[0] = r[0]; rw[0] = rw[1]; }")
        params = {p.name: p for p in
                  compile_source(src).kernels["k"].params}
        assert params["r"].is_read and not params["r"].is_written
        assert params["w"].is_written and not params["w"].is_read
        assert params["rw"].is_read and params["rw"].is_written

    def test_augmented_store_counts_as_read(self):
        src = "__kernel void k(__global int* a) { a[0] += 1; }"
        param = compile_source(src).kernels["k"].params[0]
        assert param.is_read and param.is_written

    def test_access_propagates_through_helpers(self):
        src = ("void h(__global float* p) { p[0] = 1.0f; }"
               "__kernel void k(__global float* out) { h(out); }")
        param = compile_source(src).kernels["k"].params[0]
        assert param.is_written

    def test_fp64_propagates_through_helpers(self):
        src = ("double h(double x) { return x * 2.0; }"
               "__kernel void k(__global float* a) "
               "{ a[0] = (float)h(1.0); }")
        assert compile_source(src).kernels["k"].uses_fp64

    def test_atomic_requires_address_of(self):
        expect_error("atomic_add(a[0], 1);", "&array")

    def test_atomic_on_float_rejected(self):
        expect_error("atomic_add(&f[0], 1);", "integer",
                     "__global float* f")

    def test_atomic_ok_on_global_int(self):
        k = compile_kernel_body("atomic_add(&a[0], 2);")
        assert any(isinstance(s, I.AtomicRMW) for s in k.body)

    def test_helper_pointer_arg_must_be_named(self):
        with pytest.raises(SemanticError, match="named"):
            compile_source(
                "void h(__global int* p) { p[0] = 1; }"
                "__kernel void k(__global int* a) { h(a[0]); }")


def test_sema_error_for_missing_helper_param():
    with pytest.raises(SemanticError):
        compile_source("void h(__global int* p) {}"
                       "__kernel void k(__global int* a) { h(); }")
