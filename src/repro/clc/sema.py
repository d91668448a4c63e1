"""Semantic analysis: untyped AST → typed :class:`ProgramIR`.

Responsibilities
----------------
* name resolution with block scoping,
* C type checking with the usual arithmetic conversions (every implicit
  conversion becomes an explicit :class:`ir.Convert` node),
* desugaring: ``for`` → ``While`` with an update list, augmented
  assignments and ``++/--`` → plain :class:`ir.Store`,
* address-space rules (``__constant`` is read-only, ``__local`` declarations
  only inside kernels, kernel pointer args must name an address space),
* read/write classification of kernel parameters (consumed by HPL's
  transfer-minimisation pass and by the cost model),
* propagation of ``uses_barrier`` / ``uses_fp64`` through the call graph,
* rejection of everything outside the subset with a located diagnostic.
"""

from __future__ import annotations

from ..errors import SemanticError
from . import ast_nodes as A
from . import ir as I
from .builtins import ATOMIC_FUNCTIONS, BUILTINS, WORKITEM_FUNCTIONS
from .types import (CONSTANT, DOUBLE, FLOAT, GLOBAL, INT, LOCAL,
                    PRIVATE, SCALAR_TYPES, SIZE_T, UINT, VOID, ArrayType,
                    CLType, PointerType, ScalarType, can_convert, promote,
                    usual_arithmetic_conversion)

#: Names usable in kernels without declaration.
PREDEFINED_CONSTANTS: dict[str, tuple[object, ScalarType]] = {
    "CLK_LOCAL_MEM_FENCE": (1, UINT),
    "CLK_GLOBAL_MEM_FENCE": (2, UINT),
    "true": (1, INT),
    "false": (0, INT),
    "M_PI": (3.141592653589793, DOUBLE),
    "M_PI_F": (3.1415927, FLOAT),
    "M_E": (2.718281828459045, DOUBLE),
    "INFINITY": (float("inf"), FLOAT),
    "NAN": (float("nan"), FLOAT),
    "FLT_EPSILON": (1.1920929e-07, FLOAT),
    "DBL_EPSILON": (2.220446049250313e-16, DOUBLE),
    "FLT_MAX": (3.4028234663852886e+38, FLOAT),
    "DBL_MAX": (1.7976931348623157e+308, DOUBLE),
    "INT_MAX": (2147483647, INT),
    "INT_MIN": (-2147483648, INT),
}

_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")
_LOGICAL = ("&&", "||")
_BITWISE = ("&", "|", "^", "<<", ">>")


class _Scope:
    """A chained symbol table mapping names to (CLType, kind)."""

    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.symbols: dict[str, tuple[CLType, str]] = {}

    def declare(self, name: str, type_: CLType, kind: str,
                node: A.Node, filename: str) -> None:
        if name in self.symbols:
            raise SemanticError(f"redeclaration of {name!r}", node.line,
                                node.col, filename)
        self.symbols[name] = (type_, kind)

    def lookup(self, name: str) -> tuple[CLType, str] | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class _FunctionContext:
    """Per-function state collected while lowering a body."""

    def __init__(self, func: A.FunctionDef) -> None:
        self.func = func
        self.params: dict[str, I.Param] = {}
        self.local_arrays: list[str] = []
        self.uses_barrier = False
        self.uses_fp64 = False
        self.loop_depth = 0
        self.calls: set[str] = set()


class Sema:
    """Run semantic analysis over a parsed translation unit."""

    def __init__(self, unit: A.TranslationUnit,
                 filename: str = "<kernel>") -> None:
        self.unit = unit
        self.filename = filename
        self.functions: dict[str, I.Function] = {}
        self.contexts: dict[str, _FunctionContext] = {}
        self._current: _FunctionContext | None = None

    # -- public -----------------------------------------------------------------

    def run(self) -> I.ProgramIR:
        # first pass: register signatures so helpers can be called before
        # their definition point
        signatures: dict[str, tuple[CLType, list[I.Param], bool]] = {}
        for fn in self.unit.functions:
            if fn.name in signatures:
                raise self._err(f"redefinition of function {fn.name!r}", fn)
            signatures[fn.name] = self._signature(fn)
        self._signatures = signatures

        for fn in self.unit.functions:
            self._lower_function(fn)

        self._check_no_recursion()
        self._propagate_flags()
        self._propagate_param_access()
        return I.ProgramIR(functions=self.functions)

    # -- helpers ------------------------------------------------------------------

    def _err(self, msg: str, node) -> SemanticError:
        line = getattr(node, "line", 0)
        col = getattr(node, "col", 0)
        return SemanticError(msg, line, col, self.filename)

    def _resolve_scalar(self, name: str, node) -> ScalarType:
        t = SCALAR_TYPES.get(name)
        if t is None:
            raise self._err(f"unknown type {name!r}", node)
        return t

    def _resolve_type(self, spec: A.TypeSpec, *, param: bool,
                      in_kernel: bool) -> CLType:
        if spec.base == "void":
            if spec.pointer:
                raise self._err("void* is outside the subset", spec)
            return VOID
        scalar = self._resolve_scalar(spec.base, spec)
        if spec.pointer == 0:
            if spec.address_space in (GLOBAL, CONSTANT) and param:
                raise self._err(
                    "a by-value scalar parameter cannot have a global/"
                    "constant address space", spec)
            return scalar
        if spec.pointer > 1:
            raise self._err("pointer-to-pointer is outside the subset", spec)
        space = spec.address_space
        if space == PRIVATE:
            if param and in_kernel:
                raise self._err(
                    "kernel pointer arguments must be declared __global, "
                    "__local or __constant", spec)
            # helper-function pointer params default to global
            space = GLOBAL
        if spec.is_const and space == GLOBAL and param:
            # `const __global float*` behaves like constant for analysis
            pass
        return PointerType(scalar, space)

    def _signature(self, fn: A.FunctionDef):
        ret = self._resolve_type(fn.return_type, param=False,
                                 in_kernel=fn.is_kernel)
        if fn.is_kernel and not ret.is_void:
            raise self._err("kernel functions must return void", fn)
        if not ret.is_void and not ret.is_scalar:
            raise self._err("functions may only return scalars or void", fn)
        params: list[I.Param] = []
        seen: set[str] = set()
        for p in fn.params:
            if p.name in seen:
                raise self._err(f"duplicate parameter {p.name!r}", p)
            seen.add(p.name)
            ptype = self._resolve_type(p.type_spec, param=True,
                                       in_kernel=fn.is_kernel)
            if ptype.is_void:
                raise self._err("parameter cannot have void type", p)
            param = I.Param(p.name, ptype)
            if (isinstance(ptype, PointerType)
                    and (ptype.address_space == CONSTANT
                         or p.type_spec.is_const)):
                param.is_read = False  # set when actually read
            params.append(param)
        return ret, params, fn.is_kernel

    # -- function lowering ---------------------------------------------------------

    def _lower_function(self, fn: A.FunctionDef) -> None:
        ret, params, is_kernel = self._signatures[fn.name]
        ctx = _FunctionContext(fn)
        ctx.params = {p.name: p for p in params}
        self._current = ctx
        self.contexts[fn.name] = ctx

        scope = _Scope()
        for decl, p in zip(fn.params, params):
            scope.declare(p.name, p.type, "param", decl, self.filename)
            if isinstance(p.type, ScalarType) and p.type is DOUBLE:
                ctx.uses_fp64 = True

        body = self._lower_block(fn.body, scope, ret)
        self.functions[fn.name] = I.Function(
            name=fn.name, return_type=ret, params=params, body=body,
            is_kernel=is_kernel, local_arrays=list(ctx.local_arrays),
            uses_barrier=ctx.uses_barrier, uses_fp64=ctx.uses_fp64)
        self._current = None

    # -- statements -------------------------------------------------------------------

    def _lower_block(self, stmts: list, scope: _Scope,
                     ret: CLType) -> list[I.Stmt]:
        inner = _Scope(scope)
        out: list[I.Stmt] = []
        for stmt in stmts:
            out.extend(self._lower_stmt(stmt, inner, ret))
        return out

    def _lower_stmt(self, stmt, scope: _Scope, ret: CLType) -> list[I.Stmt]:
        if isinstance(stmt, A.DeclStmt):
            return self._lower_decl(stmt, scope)
        if isinstance(stmt, A.ExprStmt):
            return [self._lower_expr_stmt(stmt.expr, scope)]
        if isinstance(stmt, A.IfStmt):
            cond = self._lower_condition(stmt.cond, scope)
            then = self._lower_block(stmt.then, scope, ret)
            other = self._lower_block(stmt.otherwise, scope, ret)
            return [I.If(cond=cond, then=then, otherwise=other,
                         line=stmt.line)]
        if isinstance(stmt, A.ForStmt):
            return self._lower_for(stmt, scope, ret)
        if isinstance(stmt, A.WhileStmt):
            cond = self._lower_condition(stmt.cond, scope)
            self._current.loop_depth += 1
            body = self._lower_block(stmt.body, scope, ret)
            self._current.loop_depth -= 1
            return [I.While(cond=cond, body=body, line=stmt.line)]
        if isinstance(stmt, A.DoWhileStmt):
            self._current.loop_depth += 1
            body = self._lower_block(stmt.body, scope, ret)
            self._current.loop_depth -= 1
            cond = self._lower_condition(stmt.cond, scope)
            return [I.While(cond=cond, body=body, is_do_while=True,
                            line=stmt.line)]
        if isinstance(stmt, A.BreakStmt):
            if self._current.loop_depth == 0:
                raise self._err("'break' outside a loop", stmt)
            return [I.Break(line=stmt.line)]
        if isinstance(stmt, A.ContinueStmt):
            if self._current.loop_depth == 0:
                raise self._err("'continue' outside a loop", stmt)
            return [I.Continue(line=stmt.line)]
        if isinstance(stmt, A.ReturnStmt):
            return [self._lower_return(stmt, scope, ret)]
        if isinstance(stmt, A.BlockStmt):
            return self._lower_block(stmt.body, scope, ret)
        raise self._err(f"unsupported statement {type(stmt).__name__}", stmt)

    def _lower_return(self, stmt: A.ReturnStmt, scope: _Scope,
                      ret: CLType) -> I.Stmt:
        if self._current.func.is_kernel:
            if stmt.value is not None:
                raise self._err("kernels cannot return a value", stmt)
            return I.Return(value=None, line=stmt.line)
        if ret.is_void:
            if stmt.value is not None:
                raise self._err("void function returning a value", stmt)
            return I.Return(value=None, line=stmt.line)
        if stmt.value is None:
            raise self._err("non-void function must return a value", stmt)
        value = self._lower_expr(stmt.value, scope)
        return I.Return(value=self._convert(value, ret, stmt),
                        line=stmt.line)

    def _lower_decl(self, stmt: A.DeclStmt, scope: _Scope) -> list[I.Stmt]:
        out: list[I.Stmt] = []
        for d in stmt.decls:
            spec = d.type_spec
            if d.array_size is not None:
                elem = self._resolve_scalar(spec.base, d)
                if spec.pointer:
                    raise self._err("arrays of pointers are unsupported", d)
                size = self._const_int(d.array_size, scope)
                if size <= 0:
                    raise self._err("array size must be a positive constant",
                                    d)
                space = spec.address_space
                if space in (GLOBAL, CONSTANT):
                    raise self._err(
                        "in-function arrays must be __private or __local", d)
                if space == LOCAL and not self._current.func.is_kernel:
                    raise self._err("__local variables are only allowed in "
                                    "kernel functions", d)
                if d.init is not None:
                    raise self._err("array initializers are unsupported", d)
                atype = ArrayType(elem, size, space)
                scope.declare(d.name, atype, "array", d, self.filename)
                if space == LOCAL:
                    self._current.local_arrays.append(d.name)
                if elem is DOUBLE:
                    self._current.uses_fp64 = True
                out.append(I.DeclArray(name=d.name, element=elem, size=size,
                                       space=space, line=d.line))
                continue

            vtype = self._resolve_type(spec, param=False,
                                       in_kernel=self._current.func.is_kernel)
            if isinstance(vtype, PointerType):
                raise self._err(
                    "pointer-typed local variables are outside the subset; "
                    "index the parameter directly", d)
            if vtype.is_void:
                raise self._err("variable cannot have void type", d)
            if vtype is DOUBLE:
                self._current.uses_fp64 = True
            init = None
            if d.init is not None:
                init = self._convert(self._lower_expr(d.init, scope),
                                     vtype, d)
            scope.declare(d.name, vtype, "var", d, self.filename)
            out.append(I.DeclVar(name=d.name, type=vtype, init=init,
                                 line=d.line))
        return out

    def _lower_for(self, stmt: A.ForStmt, scope: _Scope,
                   ret: CLType) -> list[I.Stmt]:
        loop_scope = _Scope(scope)
        out: list[I.Stmt] = []
        for init_stmt in stmt.init:
            out.extend(self._lower_stmt(init_stmt, loop_scope, ret))
        cond = (self._lower_condition(stmt.cond, loop_scope)
                if stmt.cond is not None
                else I.Const(value=1, type=INT, line=stmt.line))
        update = [self._lower_expr_stmt(u.expr, loop_scope)
                  for u in stmt.update]
        self._current.loop_depth += 1
        body = self._lower_block(stmt.body, loop_scope, ret)
        self._current.loop_depth -= 1
        out.append(I.While(cond=cond, body=body, update=update,
                           line=stmt.line))
        return out

    # -- expression statements (assignment / calls / inc-dec) -----------------------------

    def _lower_expr_stmt(self, expr, scope: _Scope) -> I.Stmt:
        if isinstance(expr, A.AssignExpr):
            return self._lower_assign(expr, scope)
        if isinstance(expr, A.PostfixOp):
            one = A.IntLiteral(value=1, line=expr.line, col=expr.col)
            op = "+=" if expr.op == "++" else "-="
            return self._lower_assign(
                A.AssignExpr(op=op, lhs=expr.operand, rhs=one,
                             line=expr.line, col=expr.col), scope)
        if isinstance(expr, A.CallExpr):
            if expr.name == "barrier":
                return self._lower_barrier(expr, scope)
            if expr.name in ("mem_fence", "read_mem_fence",
                             "write_mem_fence"):
                # fences are ordering-only; the simulator's engines are
                # sequentially consistent so they are no-ops
                return I.EvalExpr(expr=I.Const(value=0, type=INT,
                                               line=expr.line),
                                  line=expr.line)
            if expr.name in ATOMIC_FUNCTIONS:
                return self._lower_atomic(expr, scope)
            call = self._lower_expr(expr, scope)
            return I.EvalExpr(expr=call, line=expr.line)
        raise self._err(
            "only assignments, ++/--, and calls may be used as statements",
            expr)

    def _lower_assign(self, expr: A.AssignExpr, scope: _Scope) -> I.Stmt:
        if isinstance(expr.rhs, A.AssignExpr):
            raise self._err("chained assignment is outside the subset", expr)
        target = self._lower_lvalue(expr.lhs, scope)
        rhs = self._lower_expr(expr.rhs, scope)
        if expr.op != "=":
            binop = expr.op[:-1]
            current = self._lvalue_as_load(target)
            rhs = self._binary(binop, current, rhs, expr)
        value = self._convert(rhs, target.type, expr)
        return I.Store(target=target, value=value, line=expr.line)

    def _lower_lvalue(self, node, scope: _Scope) -> I.LValue:
        if isinstance(node, A.Identifier):
            sym = scope.lookup(node.name)
            if sym is None:
                raise self._err(f"use of undeclared name {node.name!r}", node)
            type_, kind = sym
            if isinstance(type_, (PointerType, ArrayType)):
                raise self._err(
                    f"cannot assign to array/pointer {node.name!r} itself; "
                    "assign to an element", node)
            if kind == "param" and self._current.func.is_kernel:
                raise self._err(
                    "assigning to a by-value kernel argument has no effect "
                    "visible to the host; SimCL rejects it", node)
            return I.LValue(name=node.name, index=None, space=PRIVATE,
                            type=type_, line=node.line)
        if isinstance(node, A.IndexExpr):
            base = node.base
            if not isinstance(base, A.Identifier):
                raise self._err(
                    "indexed stores must target a named array/pointer", node)
            sym = scope.lookup(base.name)
            if sym is None:
                raise self._err(f"use of undeclared name {base.name!r}",
                                base)
            type_, _kind = sym
            if isinstance(type_, PointerType):
                space, elem = type_.address_space, type_.pointee
            elif isinstance(type_, ArrayType):
                space, elem = type_.address_space, type_.element
            else:
                raise self._err(f"{base.name!r} is not indexable", node)
            if space == CONSTANT:
                raise self._err("__constant memory is read-only", node)
            index = self._index_expr(node.index, scope)
            self._note_param_access(base.name, written=True)
            return I.LValue(name=base.name, index=index, space=space,
                            type=elem, line=node.line)
        raise self._err("expression is not assignable", node)

    def _lvalue_as_load(self, lv: I.LValue) -> I.Expr:
        if lv.index is None:
            return I.Var(name=lv.name, type=lv.type, line=lv.line)
        self._note_param_access(lv.name, read=True)
        return I.Load(base=lv.name, index=lv.index, space=lv.space,
                      type=lv.type, line=lv.line)

    def _lower_barrier(self, expr: A.CallExpr, scope: _Scope) -> I.Stmt:
        if len(expr.args) != 1:
            raise self._err("barrier() takes exactly one flags argument",
                            expr)
        if not self._current.func.is_kernel:
            # allowed by OpenCL but our engines only join groups at kernel
            # level; helper barriers would need inlining
            raise SemanticError(
                "barrier() inside helper functions is not supported by "
                "SimCL; call it from the kernel body",
                expr.line, expr.col, self.filename)
        flags_expr = self._lower_expr(expr.args[0], scope)
        flags = self._fold(flags_expr)
        if flags is None:
            raise self._err("barrier flags must be a constant expression",
                            expr)
        self._current.uses_barrier = True
        return I.BarrierStmt(flags=int(flags), line=expr.line)

    def _lower_atomic(self, expr: A.CallExpr, scope: _Scope) -> I.Stmt:
        op = ATOMIC_FUNCTIONS[expr.name]
        want_args = 1 if op in ("inc", "dec") else 2
        if len(expr.args) != want_args:
            raise self._err(
                f"{expr.name}() expects {want_args} argument(s)", expr)
        ptr = expr.args[0]
        if not (isinstance(ptr, A.UnaryOp) and ptr.op == "&"
                and isinstance(ptr.operand, A.IndexExpr)):
            raise self._err(
                f"{expr.name}() expects '&array[index]' as first argument",
                expr)
        target = self._lower_lvalue(ptr.operand, scope)
        if target.space not in (GLOBAL, LOCAL):
            raise self._err("atomics require __global or __local memory",
                            expr)
        if not isinstance(target.type, ScalarType) or target.type.is_float:
            raise self._err("atomics operate on integer memory only", expr)
        value = None
        if want_args == 2:
            value = self._convert(self._lower_expr(expr.args[1], scope),
                                  target.type, expr)
        return I.AtomicRMW(op=op, target=target, value=value,
                           line=expr.line)

    # -- expressions -----------------------------------------------------------------------

    def _lower_condition(self, node, scope: _Scope) -> I.Expr:
        cond = self._lower_expr(node, scope)
        if not isinstance(cond.type, ScalarType):
            raise self._err("condition must have scalar type", node)
        return cond

    def _index_expr(self, node, scope: _Scope) -> I.Expr:
        index = self._lower_expr(node, scope)
        if not isinstance(index.type, ScalarType) or index.type.is_float:
            raise self._err("array index must have integer type", node)
        return index

    def _lower_expr(self, node, scope: _Scope) -> I.Expr:
        if isinstance(node, A.IntLiteral):
            t = self._int_literal_type(node)
            return I.Const(value=node.value, type=t, line=node.line)
        if isinstance(node, A.FloatLiteral):
            t = FLOAT if "f" in node.suffix else DOUBLE
            if t is DOUBLE:
                self._current.uses_fp64 = True
            return I.Const(value=node.value, type=t, line=node.line)
        if isinstance(node, A.Identifier):
            return self._lower_identifier(node, scope)
        if isinstance(node, A.UnaryOp):
            return self._lower_unary(node, scope)
        if isinstance(node, A.BinaryOp):
            lhs = self._lower_expr(node.lhs, scope)
            rhs = self._lower_expr(node.rhs, scope)
            return self._binary(node.op, lhs, rhs, node)
        if isinstance(node, A.TernaryOp):
            cond = self._lower_condition(node.cond, scope)
            then = self._lower_expr(node.then, scope)
            other = self._lower_expr(node.otherwise, scope)
            if not (isinstance(then.type, ScalarType)
                    and isinstance(other.type, ScalarType)):
                raise self._err("ternary branches must be scalars", node)
            t = usual_arithmetic_conversion(then.type, other.type)
            return I.Select(cond=cond, then=self._convert(then, t, node),
                            otherwise=self._convert(other, t, node),
                            type=t, line=node.line)
        if isinstance(node, A.CastExpr):
            target = self._resolve_type(node.type_name, param=False,
                                        in_kernel=False)
            if not isinstance(target, ScalarType):
                raise self._err("only scalar casts are supported", node)
            operand = self._lower_expr(node.operand, scope)
            if not isinstance(operand.type, ScalarType):
                raise self._err("cast operand must be scalar", node)
            if target is DOUBLE:
                self._current.uses_fp64 = True
            return I.Convert(operand=operand, type=target, line=node.line)
        if isinstance(node, A.IndexExpr):
            return self._lower_index_load(node, scope)
        if isinstance(node, A.CallExpr):
            return self._lower_call(node, scope)
        if isinstance(node, A.SizeofExpr):
            t = self._resolve_type(node.type_name, param=False,
                                   in_kernel=False)
            if not isinstance(t, ScalarType):
                raise self._err("sizeof only supports scalar types", node)
            return I.Const(value=t.size, type=SIZE_T, line=node.line)
        if isinstance(node, A.PostfixOp):
            raise self._err(
                "++/-- may only be used as a standalone statement or in a "
                "for-update clause", node)
        if isinstance(node, A.AssignExpr):
            raise self._err("assignment inside an expression is outside the "
                            "subset", node)
        raise self._err(f"unsupported expression {type(node).__name__}", node)

    def _int_literal_type(self, node: A.IntLiteral) -> ScalarType:
        from .types import LONG, ULONG
        s = node.suffix
        unsigned = "u" in s
        long_ = "l" in s
        value = node.value
        if value > 2**64 - 1:
            raise self._err("integer literal is too large to be "
                            "represented in any integer type", node)
        if long_ or value > 2**31 - 1 or value < -(2**31):
            return ULONG if unsigned else (
                ULONG if value > 2**63 - 1 else LONG)
        return UINT if unsigned else INT

    def _lower_identifier(self, node: A.Identifier, scope: _Scope) -> I.Expr:
        sym = scope.lookup(node.name)
        if sym is not None:
            type_, kind = sym
            if isinstance(type_, (PointerType, ArrayType)):
                # bare array/pointer name: only valid as a call argument;
                # represented as Var and validated by the caller
                return I.Var(name=node.name, type=type_, line=node.line)
            return I.Var(name=node.name, type=type_, line=node.line)
        if node.name in PREDEFINED_CONSTANTS:
            value, t = PREDEFINED_CONSTANTS[node.name]
            return I.Const(value=value, type=t, line=node.line)
        raise self._err(f"use of undeclared name {node.name!r}", node)

    def _lower_unary(self, node: A.UnaryOp, scope: _Scope) -> I.Expr:
        if node.op == "&":
            raise self._err("address-of is only valid in atomic builtins",
                            node)
        operand = self._lower_expr(node.operand, scope)
        if not isinstance(operand.type, ScalarType):
            raise self._err(f"unary {node.op!r} needs a scalar operand",
                            node)
        if node.op == "!":
            return I.Unary(op="!", operand=operand, type=INT, line=node.line)
        if node.op == "~":
            if operand.type.is_float:
                raise self._err("~ requires an integer operand", node)
            t = promote(operand.type)
            return I.Unary(op="~", operand=self._convert(operand, t, node),
                           type=t, line=node.line)
        t = promote(operand.type)
        if node.op == "+":
            return self._convert(operand, t, node)
        return I.Unary(op="-", operand=self._convert(operand, t, node),
                       type=t, line=node.line)

    def _lower_index_load(self, node: A.IndexExpr, scope: _Scope) -> I.Expr:
        base = node.base
        if not isinstance(base, A.Identifier):
            raise self._err("indexing must target a named array/pointer",
                            node)
        sym = scope.lookup(base.name)
        if sym is None:
            raise self._err(f"use of undeclared name {base.name!r}", base)
        type_, _kind = sym
        if isinstance(type_, PointerType):
            space, elem = type_.address_space, type_.pointee
        elif isinstance(type_, ArrayType):
            space, elem = type_.address_space, type_.element
        else:
            raise self._err(f"{base.name!r} is not indexable", node)
        index = self._index_expr(node.index, scope)
        self._note_param_access(base.name, read=True)
        return I.Load(base=base.name, index=index, space=space, type=elem,
                      line=node.line)

    def _lower_call(self, node: A.CallExpr, scope: _Scope) -> I.Expr:
        name = node.name
        if name == "barrier" or name in ATOMIC_FUNCTIONS:
            raise self._err(f"{name}() cannot be used inside an expression "
                            "in SimCL; use it as a statement", node)
        if name in WORKITEM_FUNCTIONS:
            if name == "get_work_dim":
                if node.args:
                    raise self._err("get_work_dim() takes no arguments",
                                    node)
                return I.CallBuiltin(name=name, args=[], type=UINT,
                                     line=node.line)
            if len(node.args) != 1:
                raise self._err(f"{name}() takes exactly one argument", node)
            arg = self._lower_expr(node.args[0], scope)
            dim = self._fold(arg)
            if dim is None or int(dim) not in (0, 1, 2):
                raise self._err(f"{name}() dimension must be the constant "
                                "0, 1 or 2", node)
            return I.CallBuiltin(name=name,
                                 args=[I.Const(value=int(dim), type=INT)],
                                 type=INT, line=node.line)
        if name in BUILTINS:
            return self._lower_builtin(node, scope)
        if name in self._signatures:
            return self._lower_user_call(node, scope)
        raise self._err(f"call to unknown function {name!r}", node)

    def _lower_builtin(self, node: A.CallExpr, scope: _Scope) -> I.Expr:
        b = BUILTINS[node.name]
        if len(node.args) != b.arity:
            raise self._err(f"{node.name}() expects {b.arity} argument(s), "
                            f"got {len(node.args)}", node)
        args = [self._lower_expr(a, scope) for a in node.args]
        for a, raw in zip(args, node.args):
            if not isinstance(a.type, ScalarType):
                raise self._err(f"{node.name}() arguments must be scalars",
                                raw)
        arg_types = [a.type for a in args]
        result = b.result_rule(arg_types)
        if b.float_only:
            args = [self._convert(a, result, node) for a in args]
        else:
            common = result
            args = [self._convert(a, common, node) for a in args]
        if result is DOUBLE:
            self._current.uses_fp64 = True
        return I.CallBuiltin(name=node.name, args=args, type=result,
                             line=node.line)

    def _lower_user_call(self, node: A.CallExpr, scope: _Scope) -> I.Expr:
        ret, params, is_kernel = self._signatures[node.name]
        if is_kernel:
            raise self._err("kernels cannot be called from device code in "
                            "SimCL", node)
        if len(node.args) != len(params):
            raise self._err(
                f"{node.name}() expects {len(params)} argument(s), got "
                f"{len(node.args)}", node)
        self._current.calls.add(node.name)
        args: list[I.Expr] = []
        for arg_node, param in zip(node.args, params):
            arg = self._lower_expr(arg_node, scope)
            if isinstance(param.type, PointerType):
                if not isinstance(arg, I.Var) or not isinstance(
                        arg.type, (PointerType, ArrayType)):
                    raise self._err(
                        f"argument for pointer parameter {param.name!r} "
                        "must be a named array/pointer", arg_node)
                elem = (arg.type.pointee
                        if isinstance(arg.type, PointerType)
                        else arg.type.element)
                if elem != param.type.pointee:
                    raise self._err(
                        f"pointer element type mismatch for parameter "
                        f"{param.name!r}: {elem} vs {param.type.pointee}",
                        arg_node)
                args.append(arg)
                # record aliasing for access propagation
                self._current.calls.add(node.name)
            else:
                if not isinstance(arg.type, ScalarType):
                    raise self._err(
                        f"scalar argument expected for {param.name!r}",
                        arg_node)
                args.append(self._convert(arg, param.type, arg_node))
        return I.CallFunction(name=node.name, args=args, type=ret,
                              line=node.line)

    # -- typing helpers ------------------------------------------------------------------------

    def _binary(self, op: str, lhs: I.Expr, rhs: I.Expr, node) -> I.Expr:
        if not (isinstance(lhs.type, ScalarType)
                and isinstance(rhs.type, ScalarType)):
            raise self._err(f"operands of {op!r} must be scalars", node)
        if op in _LOGICAL:
            return I.Binary(op=op, lhs=lhs, rhs=rhs, type=INT,
                            line=getattr(node, "line", 0))
        if op in _COMPARISONS:
            t = usual_arithmetic_conversion(lhs.type, rhs.type)
            return I.Binary(op=op, lhs=self._convert(lhs, t, node),
                            rhs=self._convert(rhs, t, node), type=INT,
                            line=getattr(node, "line", 0))
        if op in _BITWISE:
            if lhs.type.is_float or rhs.type.is_float:
                raise self._err(f"{op!r} requires integer operands", node)
            if op in ("<<", ">>"):
                t = promote(lhs.type)
                return I.Binary(op=op, lhs=self._convert(lhs, t, node),
                                rhs=self._convert(rhs, promote(rhs.type),
                                                  node),
                                type=t, line=getattr(node, "line", 0))
            t = usual_arithmetic_conversion(lhs.type, rhs.type)
            return I.Binary(op=op, lhs=self._convert(lhs, t, node),
                            rhs=self._convert(rhs, t, node), type=t,
                            line=getattr(node, "line", 0))
        if op == "%" and (lhs.type.is_float or rhs.type.is_float):
            raise self._err("'%' requires integer operands; use fmod()",
                            node)
        t = usual_arithmetic_conversion(lhs.type, rhs.type)
        if t is DOUBLE:
            self._current.uses_fp64 = True
        return I.Binary(op=op, lhs=self._convert(lhs, t, node),
                        rhs=self._convert(rhs, t, node), type=t,
                        line=getattr(node, "line", 0))

    def _convert(self, expr: I.Expr, target: CLType, node) -> I.Expr:
        if expr.type == target or expr.type is target:
            return expr
        if not can_convert(expr.type, target):
            raise self._err(f"cannot convert {expr.type} to {target}", node)
        out = I.Convert(operand=expr, type=target, line=expr.line)
        if isinstance(expr, I.Const) and isinstance(target, ScalarType):
            from .passes.fold import fold_node      # lazy, as in _fold
            return fold_node(out)
        return out

    def _const_int(self, node, scope: _Scope) -> int:
        value = self._fold(self._lower_expr(node, scope))
        if value is None:
            raise self._err("expected an integer constant expression", node)
        return int(value)

    @staticmethod
    def _fold(expr: I.Expr):
        """The value of a constant expression under the fold pass's C
        rules, or None.  A bare Const (nearly always the ``0`` of
        ``get_global_id(0)``) returns its value directly."""
        if isinstance(expr, I.Const):
            return expr.value
        # lazy: the fold pass reaches into repro.ocl.engines for C
        # arithmetic, and repro.ocl imports this module
        from .passes.fold import constant_value
        return constant_value(expr)

    # -- access classification --------------------------------------------------------------------

    def _note_param_access(self, name: str, read: bool = False,
                           written: bool = False) -> None:
        param = self._current.params.get(name)
        if param is None:
            return
        if read:
            param.is_read = True
        if written:
            param.is_written = True

    def _check_no_recursion(self) -> None:
        # DFS over the call graph
        visiting: set[str] = set()
        done: set[str] = set()

        def visit(name: str, chain: list[str]) -> None:
            if name in done:
                return
            if name in visiting:
                raise self._err(
                    "recursion is not allowed in OpenCL C: "
                    + " -> ".join(chain + [name]),
                    self.contexts[name].func)
            visiting.add(name)
            for callee in self.contexts[name].calls:
                visit(callee, chain + [name])
            visiting.discard(name)
            done.add(name)

        for name in self.contexts:
            visit(name, [])

    def _propagate_flags(self) -> None:
        changed = True
        while changed:
            changed = False
            for name, ctx in self.contexts.items():
                fn = self.functions[name]
                for callee in ctx.calls:
                    cf = self.functions[callee]
                    if cf.uses_fp64 and not fn.uses_fp64:
                        fn.uses_fp64 = True
                        changed = True
                    if cf.uses_barrier and not fn.uses_barrier:
                        fn.uses_barrier = True
                        changed = True

    def _propagate_param_access(self) -> None:
        """Propagate pointer read/write facts from helpers into callers."""
        # map: function -> list of (call expr) is not retained, so walk IR
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                changed |= self._propagate_in_body(fn, fn.body)

    def _propagate_in_body(self, fn: I.Function, body: list) -> bool:
        changed = False
        params = {p.name: p for p in fn.params}

        def walk_expr(expr) -> None:
            nonlocal changed
            if isinstance(expr, I.CallFunction):
                callee = self.functions[expr.name]
                for arg, cp in zip(expr.args, callee.params):
                    if (isinstance(arg, I.Var) and arg.name in params
                            and isinstance(params[arg.name].type,
                                           (PointerType, ArrayType))):
                        p = params[arg.name]
                        if cp.is_read and not p.is_read:
                            p.is_read = True
                            changed = True
                        if cp.is_written and not p.is_written:
                            p.is_written = True
                            changed = True
                for a in expr.args:
                    walk_expr(a)
            elif isinstance(expr, (I.Unary, I.Convert)):
                walk_expr(expr.operand)
            elif isinstance(expr, I.Binary):
                walk_expr(expr.lhs)
                walk_expr(expr.rhs)
            elif isinstance(expr, I.Select):
                walk_expr(expr.cond)
                walk_expr(expr.then)
                walk_expr(expr.otherwise)
            elif isinstance(expr, I.CallBuiltin):
                for a in expr.args:
                    walk_expr(a)
            elif isinstance(expr, I.Load):
                walk_expr(expr.index)

        def walk_stmts(stmts: list) -> None:
            for s in stmts:
                if isinstance(s, I.DeclVar) and s.init is not None:
                    walk_expr(s.init)
                elif isinstance(s, I.Store):
                    if s.target.index is not None:
                        walk_expr(s.target.index)
                    walk_expr(s.value)
                elif isinstance(s, I.AtomicRMW):
                    if s.target.index is not None:
                        walk_expr(s.target.index)
                    if s.value is not None:
                        walk_expr(s.value)
                elif isinstance(s, I.EvalExpr):
                    walk_expr(s.expr)
                elif isinstance(s, I.If):
                    walk_expr(s.cond)
                    walk_stmts(s.then)
                    walk_stmts(s.otherwise)
                elif isinstance(s, I.While):
                    walk_expr(s.cond)
                    walk_stmts(s.body)
                    walk_stmts(s.update)
                elif isinstance(s, I.Return) and s.value is not None:
                    walk_expr(s.value)

        walk_stmts(body)
        return changed


def analyze(unit: A.TranslationUnit,
            filename: str = "<kernel>") -> I.ProgramIR:
    """Run semantic analysis and return the typed program IR."""
    return Sema(unit, filename).run()
