"""Untyped AST produced by the OpenCL C parser.

These nodes carry only syntax; :mod:`repro.clc.sema` turns them into the
typed IR in :mod:`repro.clc.ir` that the middle-end optimizes and lowers.
All nodes record a source position for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Node:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)


# -- expressions --------------------------------------------------------------

@dataclass
class IntLiteral(Node):
    value: int = 0
    suffix: str = ""
    #: 10, or 16 for ``0x`` and 8 for a leading ``0``: C types an
    #: unsuffixed decimal literal by another list than the others
    radix: int = 10


@dataclass
class FloatLiteral(Node):
    value: float = 0.0
    suffix: str = ""


@dataclass
class Identifier(Node):
    name: str = ""


@dataclass
class UnaryOp(Node):
    op: str = ""
    operand: Node = None


@dataclass
class PostfixOp(Node):
    """``x++`` / ``x--`` (only valid in statement/for-update position)."""
    op: str = ""
    operand: Node = None


@dataclass
class BinaryOp(Node):
    op: str = ""
    lhs: Node = None
    rhs: Node = None


@dataclass
class TernaryOp(Node):
    cond: Node = None
    then: Node = None
    otherwise: Node = None


@dataclass
class AssignExpr(Node):
    """``lhs op rhs`` where op is ``=`` or an augmented assignment."""
    op: str = "="
    lhs: Node = None
    rhs: Node = None


@dataclass
class CastExpr(Node):
    type_name: "TypeSpec" = None
    operand: Node = None


@dataclass
class IndexExpr(Node):
    base: Node = None
    index: Node = None


@dataclass
class CallExpr(Node):
    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class SizeofExpr(Node):
    type_name: "TypeSpec" = None


# -- declarations / types ------------------------------------------------------

@dataclass
class TypeSpec(Node):
    """A parsed type: base scalar name + pointer depth + address space."""
    base: str = "int"
    pointer: int = 0
    address_space: str = "private"  # global | local | constant | private
    is_const: bool = False


@dataclass
class ParamDecl(Node):
    type_spec: TypeSpec = None
    name: str = ""


@dataclass
class VarDecl(Node):
    """One declarator of a declaration statement."""
    type_spec: TypeSpec = None
    name: str = ""
    array_size: Node | None = None   # expression; must be constant-foldable
    init: Node | None = None


# -- statements ----------------------------------------------------------------

@dataclass
class DeclStmt(Node):
    decls: list = field(default_factory=list)   # list[VarDecl]


@dataclass
class ExprStmt(Node):
    expr: Node = None


@dataclass
class IfStmt(Node):
    cond: Node = None
    then: list = field(default_factory=list)
    otherwise: list = field(default_factory=list)


@dataclass
class ForStmt(Node):
    init: list = field(default_factory=list)    # DeclStmt or ExprStmt items
    cond: Node | None = None
    update: list = field(default_factory=list)  # ExprStmt items
    body: list = field(default_factory=list)


@dataclass
class WhileStmt(Node):
    cond: Node = None
    body: list = field(default_factory=list)


@dataclass
class DoWhileStmt(Node):
    body: list = field(default_factory=list)
    cond: Node = None


@dataclass
class BreakStmt(Node):
    pass


@dataclass
class ContinueStmt(Node):
    pass


@dataclass
class ReturnStmt(Node):
    value: Node | None = None


@dataclass
class BlockStmt(Node):
    body: list = field(default_factory=list)


# -- top level -------------------------------------------------------------------

@dataclass
class FunctionDef(Node):
    name: str = ""
    return_type: TypeSpec = None
    params: list = field(default_factory=list)   # list[ParamDecl]
    body: list = field(default_factory=list)
    is_kernel: bool = False


@dataclass
class TranslationUnit(Node):
    functions: list = field(default_factory=list)
