"""``repro.clc`` — a compiler for the OpenCL C subset used by SimCL.

The pipeline is the classic one::

    source --preprocess--> text --lex--> tokens --parse--> AST
           --sema--> typed ProgramIR

:func:`compile_source` runs the whole pipeline.  The middle-end
(:mod:`repro.clc.passes`) optimizes the resulting
:class:`~repro.clc.ir.ProgramIR` and lowers it to bytecode; the
execution engines in :mod:`repro.ocl.engines` consume the
:class:`~repro.clc.binary.ProgramBinary` built from it.
"""

from __future__ import annotations

from .ir import Function, ProgramIR
from .lexer import tokenize
from .parser import parse
from .preprocessor import preprocess
from .sema import analyze

__all__ = ["compile_source", "preprocess", "tokenize", "parse", "analyze",
           "ProgramIR", "Function"]


def compile_source(source: str, options: str = "",
                   filename: str = "<kernel>", *,
                   preprocessed: str | None = None) -> ProgramIR:
    """Compile OpenCL C ``source`` (with build ``options``) to program IR.

    Raises :class:`repro.errors.CompileError` subclasses on any problem,
    carrying ``line``/``col`` information like a real OpenCL build log.

    A caller that already ran ``preprocess(source, options, filename)``
    (``Program.build`` does, to key the disk cache) passes the result as
    ``preprocessed`` and the pipeline starts at the lexer.

    Each pipeline stage runs under its own :mod:`repro.trace` span
    (category ``clc``), so a trace of a cold HPL invocation shows where
    the "OpenCL build" portion of Fig. 8's overhead actually goes.
    """
    from .. import trace

    # counts every full front-end run; the persistent kernel cache's
    # "zero recompiles on a warm start" guarantee is asserted against it
    trace.get_registry().counter("clc.compiles").inc()
    with trace.span("compile", category="clc", filename=filename,
                    source_bytes=len(source)):
        text = preprocessed
        if text is None:
            with trace.span("preprocess", category="clc"):
                text = preprocess(source, options, filename)
        with trace.span("lex", category="clc"):
            tokens = tokenize(text, filename)
        with trace.span("parse", category="clc", tokens=len(tokens)):
            unit = parse(tokens, filename)
        with trace.span("sema", category="clc"):
            program = analyze(unit, filename)
    program.source = source
    return program
