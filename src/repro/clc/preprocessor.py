"""A small C preprocessor covering what OpenCL kernels typically use.

Supported directives:

* ``#define NAME replacement``            (object-like macros)
* ``#define NAME(a, b) replacement``      (function-like macros, no varargs,
  no ``#``/``##`` operators)
* ``#undef NAME``
* ``#ifdef NAME`` / ``#ifndef NAME`` / ``#else`` / ``#endif``
* ``#pragma ...``                         (ignored, kept for OPENCL EXTENSION
  pragmas emitted by real programs)

Build options of the form ``-D NAME`` / ``-DNAME=value`` (as accepted by
``clBuildProgram``) are turned into predefined macros.

The implementation is line-oriented, honours ``\\`` line continuations, and
performs recursive macro expansion with self-reference protection, which is
all the benchmark kernels in this repository require.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import PreprocessorError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"          # identifier
    r"|0[xX][0-9a-fA-F]+[uUlL]*"        # hex literal
    r"|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fFuUlL]*"  # number
    r"|//[^\n]*"                        # line comment (kept verbatim)
    r"|\s+"                             # whitespace
    r"|."                               # any single char
)


@dataclass
class Macro:
    """A single macro definition."""

    name: str
    body: str
    params: list[str] | None = None   # None => object-like
    predefined: bool = False

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


@dataclass
class Preprocessor:
    """Expand directives/macros in OpenCL C source text."""

    filename: str = "<kernel>"
    macros: dict[str, Macro] = field(default_factory=dict)

    # -- build options -------------------------------------------------------

    def define_from_options(self, options: str) -> None:
        """Parse ``-D`` definitions out of an OpenCL build-options string."""
        if not options:
            return
        parts = options.split()
        i = 0
        while i < len(parts):
            part = parts[i]
            if part == "-D":
                i += 1
                if i >= len(parts):
                    raise PreprocessorError("-D expects a macro name",
                                            filename=self.filename)
                self._define_option(parts[i])
            elif part.startswith("-D"):
                self._define_option(part[2:])
            # other options (-cl-fast-relaxed-math, -I, ...) are ignored
            i += 1

    def _define_option(self, text: str) -> None:
        name, _, value = text.partition("=")
        if not _IDENT_RE.fullmatch(name):
            raise PreprocessorError(f"bad -D macro name {name!r}",
                                    filename=self.filename)
        self.macros[name] = Macro(name, value or "1", predefined=True)

    # -- main entry point ----------------------------------------------------

    def process(self, source: str) -> str:
        """Return ``source`` with directives handled and macros expanded.

        Line structure is preserved for non-directive lines so diagnostics
        from later stages keep pointing at the original line numbers;
        directive lines are replaced with empty lines.
        """
        lines = self._splice_continuations(source)
        out: list[str] = []
        # condition stack entries: (taking, taken_before, line_no)
        cond: list[list] = []

        for lineno, line in lines:
            stripped = line.lstrip()
            if stripped.startswith("#"):
                self._directive(stripped[1:].strip(), lineno, cond)
                out.append("")
                continue
            if cond and not all(c[0] for c in cond):
                out.append("")
                continue
            out.append(self._expand_line(line, lineno))

        if cond:
            raise PreprocessorError("unterminated #if block (opened at line "
                                    f"{cond[-1][2]})", filename=self.filename)
        return "\n".join(out)

    # -- directive handling ---------------------------------------------------

    def _directive(self, text: str, lineno: int, cond: list[list]) -> None:
        name, _, rest = text.partition(" ")
        rest = rest.strip()
        active = not cond or all(c[0] for c in cond)

        if name in ("ifdef", "ifndef"):
            if not _IDENT_RE.fullmatch(rest.split()[0] if rest else ""):
                raise PreprocessorError(f"#{name} expects an identifier",
                                        lineno, 1, self.filename)
            macro_name = rest.split()[0]
            defined = macro_name in self.macros
            take = (defined if name == "ifdef" else not defined) and active
            cond.append([take, take, lineno])
        elif name == "else":
            if not cond:
                raise PreprocessorError("#else without #if", lineno, 1,
                                        self.filename)
            entry = cond[-1]
            outer_active = len(cond) == 1 or all(c[0] for c in cond[:-1])
            entry[0] = (not entry[1]) and outer_active
            entry[1] = True
        elif name == "endif":
            if not cond:
                raise PreprocessorError("#endif without #if", lineno, 1,
                                        self.filename)
            cond.pop()
        elif not active:
            return  # skip directives inside inactive branches
        elif name == "define":
            self._handle_define(rest, lineno)
        elif name == "undef":
            if not _IDENT_RE.fullmatch(rest):
                raise PreprocessorError("#undef expects an identifier",
                                        lineno, 1, self.filename)
            self.macros.pop(rest, None)
        elif name == "pragma":
            return
        elif name == "include":
            raise PreprocessorError("#include is not supported by SimCL",
                                    lineno, 1, self.filename)
        else:
            raise PreprocessorError(f"unknown directive #{name}", lineno, 1,
                                    self.filename)

    def _handle_define(self, rest: str, lineno: int) -> None:
        m = _IDENT_RE.match(rest)
        if not m:
            raise PreprocessorError("#define expects a macro name", lineno, 1,
                                    self.filename)
        name = m.group(0)
        after = rest[m.end():]
        if after.startswith("("):
            close = after.find(")")
            if close < 0:
                raise PreprocessorError(
                    f"unterminated parameter list in #define {name}",
                    lineno, 1, self.filename)
            raw_params = after[1:close].strip()
            params = ([p.strip() for p in raw_params.split(",")]
                      if raw_params else [])
            for p in params:
                if not _IDENT_RE.fullmatch(p):
                    raise PreprocessorError(
                        f"bad macro parameter {p!r} in #define {name}",
                        lineno, 1, self.filename)
            body = after[close + 1:].strip()
            self.macros[name] = Macro(name, body, params=params)
        else:
            self.macros[name] = Macro(name, after.strip())

    # -- macro expansion -------------------------------------------------------

    def _expand_line(self, line: str, lineno: int) -> str:
        if not self.macros:
            # what _expand returns with nothing to expand: its tokens
            # cover every character of a line
            return line
        return self._expand(line, lineno, frozenset())

    def _expand(self, text: str, lineno: int, hidden: frozenset[str]) -> str:
        out: list[str] = []
        tokens = _TOKEN_RE.findall(text)
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok.startswith("//"):
                out.append(tok)
                i += 1
                continue
            macro = self.macros.get(tok)
            if macro is None or tok in hidden:
                out.append(tok)
                i += 1
                continue
            if macro.is_function_like:
                j = i + 1
                while j < len(tokens) and tokens[j].isspace():
                    j += 1
                if j >= len(tokens) or tokens[j] != "(":
                    out.append(tok)   # function-like macro without call syntax
                    i += 1
                    continue
                args, nxt = self._collect_args(tokens, j, lineno, macro)
                body = self._substitute(macro, args, lineno, hidden)
                out.append(self._expand(body, lineno, hidden | {tok}))
                i = nxt
            else:
                out.append(self._expand(macro.body, lineno, hidden | {tok}))
                i += 1
        return "".join(out)

    def _collect_args(self, tokens: list[str], open_idx: int, lineno: int,
                      macro: Macro) -> tuple[list[str], int]:
        depth = 0
        args: list[str] = []
        cur: list[str] = []
        i = open_idx
        while i < len(tokens):
            tok = tokens[i]
            if tok == "(":
                depth += 1
                if depth > 1:
                    cur.append(tok)
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(cur).strip())
                    if args == [""] and not macro.params:
                        args = []
                    if len(args) != len(macro.params or []):
                        raise PreprocessorError(
                            f"macro {macro.name} expects "
                            f"{len(macro.params or [])} argument(s), got "
                            f"{len(args)}", lineno, 1, self.filename)
                    return args, i + 1
                cur.append(tok)
            elif tok == "," and depth == 1:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(tok)
            i += 1
        raise PreprocessorError(f"unterminated call of macro {macro.name}",
                                lineno, 1, self.filename)

    def _substitute(self, macro: Macro, args: list[str], lineno: int,
                    hidden: frozenset[str]) -> str:
        expanded_args = [self._expand(a, lineno, hidden) for a in args]
        mapping = dict(zip(macro.params or [], expanded_args))
        parts = []
        for tok in _TOKEN_RE.findall(macro.body):
            parts.append(mapping.get(tok, tok))
        return "".join(parts)

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _splice_continuations(source: str) -> list[tuple[int, str]]:
        """Join ``\\``-continued lines; keep the first physical line number."""
        result: list[tuple[int, str]] = []
        pending = ""
        pending_line = 0
        for i, line in enumerate(source.split("\n"), start=1):
            if not pending:
                pending_line = i
            if line.endswith("\\"):
                pending += line[:-1]
                result.append((i, ""))  # placeholder keeps numbering stable
                continue
            full = pending + line
            pending = ""
            if result and result[-1][1] == "" and full and pending_line != i:
                # replace the first placeholder of this logical line
                result[result.index((pending_line, ""))] = (pending_line, full)
            else:
                result.append((i, full))
        if pending:
            result.append((pending_line, pending))
        return result


def preprocess(source: str, options: str = "",
               filename: str = "<kernel>") -> str:
    """Preprocess ``source`` with the given OpenCL build ``options``."""
    pp = Preprocessor(filename=filename)
    pp.define_from_options(options)
    return pp.process(source)
