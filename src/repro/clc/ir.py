"""Typed kernel IR — the output of semantic analysis.

The middle-end (:mod:`repro.clc.passes`) rewrites this tree and
:mod:`repro.clc.lower` flattens it into bytecode; the execution engines
never see it.  They run the :class:`~repro.clc.binary.ProgramBinary`
built from it: bytecode plus body-less signatures.  Every expression
node carries its resolved :class:`CLType`; every implicit conversion
inserted by sema appears as an explicit :class:`Convert` node, so the
lowerer never has to re-derive C conversion rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import CLType, ScalarType


# -- expressions ----------------------------------------------------------------

@dataclass
class Expr:
    type: CLType = None
    line: int = 0


@dataclass
class Const(Expr):
    value: object = 0


@dataclass
class Var(Expr):
    """Reference to a parameter or a declared variable, by name."""
    name: str = ""


@dataclass
class Load(Expr):
    """``base[index]`` read.  ``space`` is the address space of ``base``."""
    base: str = ""
    index: Expr = None
    space: str = "private"


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Expr = None
    rhs: Expr = None


@dataclass
class Select(Expr):
    """Ternary ``cond ? a : b``."""
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


@dataclass
class Convert(Expr):
    """Explicit or implicit conversion to ``type``."""
    operand: Expr = None


@dataclass
class CallBuiltin(Expr):
    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class CallFunction(Expr):
    """Call of a user helper function defined in the same program."""
    name: str = ""
    args: list = field(default_factory=list)


# -- lvalues -----------------------------------------------------------------------

@dataclass
class LValue:
    """Target of a store: either a variable or an indexed element."""
    name: str = ""
    index: Expr | None = None       # None => scalar variable
    space: str = "private"
    type: CLType = None
    line: int = 0


# -- statements ----------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0


@dataclass
class DeclVar(Stmt):
    name: str = ""
    type: CLType = None
    init: Expr | None = None


@dataclass
class DeclArray(Stmt):
    name: str = ""
    element: ScalarType = None
    size: int = 0
    space: str = "private"   # private | local


@dataclass
class Store(Stmt):
    """``target = value`` — augmented ops are desugared by sema."""
    target: LValue = None
    value: Expr = None


@dataclass
class AtomicRMW(Stmt):
    """``atomic_add(&buf[i], v)``-style read-modify-write used as statement."""
    op: str = "add"
    target: LValue = None
    value: Expr | None = None


@dataclass
class EvalExpr(Stmt):
    expr: Expr = None


@dataclass
class If(Stmt):
    cond: Expr = None
    then: list = field(default_factory=list)
    otherwise: list = field(default_factory=list)


@dataclass
class While(Stmt):
    """Canonical loop: ``for`` is desugared to init + While with update."""
    cond: Expr = None
    body: list = field(default_factory=list)
    update: list = field(default_factory=list)   # executed on continue too
    is_do_while: bool = False


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class BarrierStmt(Stmt):
    flags: int = 0   # bit 0: local fence, bit 1: global fence


# -- program structure ----------------------------------------------------------------

@dataclass
class Param:
    name: str
    type: CLType
    #: read/write classification filled by sema (used by HPL's transfer
    #: minimisation and by the cost model)
    is_read: bool = False
    is_written: bool = False


@dataclass
class Function:
    name: str
    return_type: CLType
    params: list
    body: list
    is_kernel: bool = False
    #: names of __local arrays declared in the body (for occupancy checks)
    local_arrays: list = field(default_factory=list)
    #: whether the function (transitively) executes a barrier
    uses_barrier: bool = False
    #: whether the function (transitively) uses double precision
    uses_fp64: bool = False


@dataclass
class ProgramIR:
    """A compiled translation unit: kernels plus helper functions."""
    functions: dict = field(default_factory=dict)   # name -> Function
    source: str = ""
    #: opt level the middle-end ran at (0 = no rewriting passes)
    opt_level: int = 0
    #: :class:`repro.clc.lower.ProgramBytecode`; None until the middle-end
    #: has run (every engine rejects a program without it)
    bytecode: object = None

    @property
    def kernels(self) -> dict:
        return {n: f for n, f in self.functions.items() if f.is_kernel}
