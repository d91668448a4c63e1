"""``python -m repro.clc`` — compiler inspection CLI.

The ``dump`` subcommand runs the full compile → optimize → lower
pipeline over an OpenCL C source file and prints the typed tree IR
before the middle-end, again after every pass execution that changed
it, and finally the flat bytecode disassembly — the debugging loop for
miscompiles described in docs/compiler.md::

    python -m repro.clc dump kernel.cl --opt-level 2
    cat kernel.cl | python -m repro.clc dump - -O 0
"""

from __future__ import annotations

import argparse
import sys

from . import compile_source
from . import ir as I

# -- tree-IR pretty printer ---------------------------------------------------


def _fmt_expr(e) -> str:
    if isinstance(e, I.Const):
        return repr(e.value)
    if isinstance(e, I.Var):
        return e.name
    if isinstance(e, I.Load):
        return f"{e.base}[{_fmt_expr(e.index)}]"
    if isinstance(e, I.Unary):
        return f"({e.op}{_fmt_expr(e.operand)})"
    if isinstance(e, I.Binary):
        return f"({_fmt_expr(e.lhs)} {e.op} {_fmt_expr(e.rhs)})"
    if isinstance(e, I.Select):
        return (f"({_fmt_expr(e.cond)} ? {_fmt_expr(e.then)}"
                f" : {_fmt_expr(e.otherwise)})")
    if isinstance(e, I.Convert):
        return f"({e.type}){_fmt_expr(e.operand)}"
    if isinstance(e, (I.CallBuiltin, I.CallFunction)):
        return f"{e.name}({', '.join(_fmt_expr(a) for a in e.args)})"
    return repr(e)


def _fmt_lvalue(lv: I.LValue) -> str:
    if lv.index is None:
        return lv.name
    return f"{lv.name}[{_fmt_expr(lv.index)}]"


def _fmt_stmt(stmt, out: list, depth: int) -> None:
    pad = "    " * depth

    def block(stmts, d):
        for s in stmts:
            _fmt_stmt(s, out, d)

    if isinstance(stmt, I.DeclVar):
        init = f" = {_fmt_expr(stmt.init)}" if stmt.init is not None else ""
        out.append(f"{pad}{stmt.type} {stmt.name}{init};")
    elif isinstance(stmt, I.DeclArray):
        space = f"__{stmt.space} " if stmt.space != "private" else ""
        out.append(f"{pad}{space}{stmt.element} "
                   f"{stmt.name}[{stmt.size}];")
    elif isinstance(stmt, I.Store):
        out.append(f"{pad}{_fmt_lvalue(stmt.target)} = "
                   f"{_fmt_expr(stmt.value)};")
    elif isinstance(stmt, I.AtomicRMW):
        value = f", {_fmt_expr(stmt.value)}" if stmt.value is not None \
            else ""
        out.append(f"{pad}atomic_{stmt.op}"
                   f"(&{_fmt_lvalue(stmt.target)}{value});")
    elif isinstance(stmt, I.EvalExpr):
        out.append(f"{pad}{_fmt_expr(stmt.expr)};")
    elif isinstance(stmt, I.If):
        out.append(f"{pad}if ({_fmt_expr(stmt.cond)}) {{")
        block(stmt.then, depth + 1)
        if stmt.otherwise:
            out.append(f"{pad}}} else {{")
            block(stmt.otherwise, depth + 1)
        out.append(f"{pad}}}")
    elif isinstance(stmt, I.While):
        kind = "do" if stmt.is_do_while else \
            f"while ({_fmt_expr(stmt.cond)})"
        out.append(f"{pad}{kind} {{")
        block(stmt.body, depth + 1)
        if stmt.update:
            out.append(f"{pad}  update:")
            block(stmt.update, depth + 1)
        tail = f" while ({_fmt_expr(stmt.cond)});" if stmt.is_do_while \
            else ""
        out.append(f"{pad}}}{tail}")
    elif isinstance(stmt, I.Break):
        out.append(f"{pad}break;")
    elif isinstance(stmt, I.Continue):
        out.append(f"{pad}continue;")
    elif isinstance(stmt, I.Return):
        value = f" {_fmt_expr(stmt.value)}" if stmt.value is not None \
            else ""
        out.append(f"{pad}return{value};")
    elif isinstance(stmt, I.BarrierStmt):
        out.append(f"{pad}barrier({stmt.flags:#x});")
    else:  # pragma: no cover - future statement kinds
        out.append(f"{pad}{stmt!r}")


def format_program(program: I.ProgramIR) -> str:
    """C-like rendering of every function's typed tree IR."""
    out = []
    for func in program.functions.values():
        qual = "__kernel " if func.is_kernel else ""
        params = ", ".join(f"{p.type} {p.name}" for p in func.params)
        out.append(f"{qual}{func.return_type} {func.name}({params}) {{")
        for stmt in func.body:
            _fmt_stmt(stmt, out, 1)
        out.append("}")
        out.append("")
    return "\n".join(out).rstrip()


# -- dump subcommand ----------------------------------------------------------


def _dump(ns) -> int:
    from .lower import disassemble
    from .passes import optimize_program

    if ns.source == "-":
        source = sys.stdin.read()
    else:
        with open(ns.source, encoding="utf-8") as fh:
            source = fh.read()

    program = compile_source(source, ns.options)
    print(f"== tree IR after front end (options={ns.options!r}) ==")
    print(format_program(program))

    def observer(name: str, prog: I.ProgramIR, changed: bool) -> None:
        if changed:
            print(f"\n== after pass {name} ==")
            print(format_program(prog))
        else:
            print(f"\n== after pass {name}: no change ==")
        if name == "uniformity":
            tags = {2: "launch", 1: "group"}
            for fname, func in prog.functions.items():
                levels = getattr(func, "_uniform_vars", {})
                uniform = [f"{v}({tags[lvl]})" for v, lvl
                           in sorted(levels.items()) if lvl > 0]
                if uniform:
                    print(f"   {fname}: uniform vars: "
                          f"{', '.join(uniform)}")

    optimize_program(program, ns.opt_level, observer)
    print(f"\n== bytecode (version {program.bytecode.version}, "
          f"-O{program.opt_level}) ==")
    for bc in program.bytecode.functions.values():
        print(disassemble(bc))
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.clc",
        description="Inspect the SimCL OpenCL C compiler.")
    sub = parser.add_subparsers(dest="command", required=True)

    dump = sub.add_parser(
        "dump",
        help="print the IR before/after each middle-end pass and the "
             "final bytecode disassembly")
    dump.add_argument("source",
                      help="OpenCL C source file ('-' reads stdin)")
    dump.add_argument("--opt-level", "-O", type=int, default=None,
                      help="optimization level 0-2 (default: the "
                           "process default, see docs/compiler.md)")
    dump.add_argument("--options", default="",
                      help="build options string, e.g. '-D N=16'")
    ns = parser.parse_args(argv)

    if ns.command == "dump":
        if ns.opt_level is None:
            from .passes import default_opt_level
            ns.opt_level = default_opt_level()
        return _dump(ns)
    parser.error(f"unknown command {ns.command!r}")  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
