"""Recursive-descent parser for the OpenCL C subset.

Grammar summary (C99 with OpenCL qualifiers, minus features the subset
excludes — structs, typedefs, switch, goto, vector types)::

    translation_unit := function_def*
    function_def     := ["__kernel"] type ident "(" params ")" compound
    statement        := decl | expr ";" | if | for | while | do-while
                      | break | continue | return | compound | ";"

Expressions implement the full C operator precedence including the ternary
operator, casts and ``sizeof``.
"""

from __future__ import annotations

from ..errors import ParseError
from . import ast_nodes as A
from .tokens import EOF, FLOAT_LIT, IDENT, INT_LIT, KEYWORD, PUNCT, Token

_ADDRESS_SPACES = {
    "__global": "global", "global": "global",
    "__local": "local", "local": "local",
    "__constant": "constant", "constant": "constant",
    "__private": "private", "private": "private",
}

_TYPE_KEYWORDS = {
    "void", "char", "uchar", "short", "ushort", "int", "uint",
    "long", "ulong", "float", "double", "bool", "size_t", "ptrdiff_t",
    "signed", "unsigned",
}

_QUALIFIERS = {"const", "volatile", "restrict", "static", "inline"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}

#: binary operator precedence, higher binds tighter
_BIN_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_UNSUPPORTED = {"struct", "typedef", "switch", "goto", "case", "default"}


class Parser:
    """Parse a token stream into a :class:`repro.clc.ast_nodes.TranslationUnit`."""

    def __init__(self, tokens: list[Token], filename: str = "<kernel>") -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    # -- token helpers -------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _peek(self, off: int = 1) -> Token:
        i = min(self.pos + off, len(self.tokens) - 1)
        return self.tokens[i]

    def _advance(self) -> Token:
        tok = self.cur
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def _error(self, msg: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.cur
        return ParseError(msg, tok.line, tok.col, self.filename)

    def _expect(self, kind: str, value: str | None = None) -> Token:
        if not self.cur.is_(kind, value):
            want = value if value is not None else kind
            raise self._error(f"expected {want!r}, found {self.cur.value!r}")
        return self._advance()

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.cur.is_(kind, value):
            return self._advance()
        return None

    # -- type parsing -----------------------------------------------------------

    def _at_type_start(self) -> bool:
        tok = self.cur
        if tok.kind != KEYWORD:
            return False
        return (tok.value in _TYPE_KEYWORDS or tok.value in _ADDRESS_SPACES
                or tok.value in _QUALIFIERS)

    def _parse_type_spec(self) -> A.TypeSpec:
        line, col = self.cur.line, self.cur.col
        address_space = None
        is_const = False
        base_parts: list[str] = []

        while self.cur.kind == KEYWORD:
            v = self.cur.value
            if v in _ADDRESS_SPACES:
                if address_space is not None:
                    raise self._error("duplicate address-space qualifier")
                address_space = _ADDRESS_SPACES[v]
                self._advance()
            elif v == "const":
                is_const = True
                self._advance()
            elif v in _QUALIFIERS:
                self._advance()  # volatile/restrict/static/inline: accepted, ignored
            elif v in _TYPE_KEYWORDS:
                base_parts.append(v)
                self._advance()
            elif v in _UNSUPPORTED:
                raise self._error(f"{v!r} is outside the SimCL OpenCL C subset")
            else:
                break

        if not base_parts:
            raise self._error("expected a type name")
        base = self._normalize_base(base_parts)

        pointer = 0
        while self.cur.is_(PUNCT, "*"):
            pointer += 1
            self._advance()
            while self.cur.kind == KEYWORD and self.cur.value in _QUALIFIERS:
                self._advance()

        return A.TypeSpec(base=base, pointer=pointer,
                          address_space=address_space or "private",
                          is_const=is_const, line=line, col=col)

    def _normalize_base(self, parts: list[str]) -> str:
        """Map multi-keyword spellings (``unsigned int``) to canonical names."""
        if parts == ["unsigned"]:
            return "uint"
        if parts == ["signed"]:
            return "int"
        if len(parts) == 2 and parts[0] in ("signed", "unsigned"):
            name = parts[1]
            if name not in ("char", "short", "int", "long"):
                raise self._error(f"cannot combine {' '.join(parts)!r}")
            return name if parts[0] == "signed" else "u" + name
        if len(parts) == 1:
            return parts[0]
        if parts == ["long", "long"]:
            return "long"
        if parts == ["unsigned", "long", "long"]:
            return "ulong"
        raise self._error(f"unsupported type spelling {' '.join(parts)!r}")

    # -- top level ----------------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        unit = A.TranslationUnit(line=1, col=1)
        while self.cur.kind != EOF:
            if self._accept(PUNCT, ";"):
                continue
            unit.functions.append(self._parse_function())
        return unit

    def _parse_function(self) -> A.FunctionDef:
        line, col = self.cur.line, self.cur.col
        is_kernel = False
        while self.cur.kind == KEYWORD and self.cur.value in ("__kernel",
                                                              "kernel"):
            is_kernel = True
            self._advance()
        ret = self._parse_type_spec()
        name = self._expect(IDENT).value
        self._expect(PUNCT, "(")
        params: list[A.ParamDecl] = []
        if not self.cur.is_(PUNCT, ")"):
            if (self.cur.is_(KEYWORD, "void")
                    and self._peek().is_(PUNCT, ")")):
                self._advance()
            else:
                while True:
                    params.append(self._parse_param())
                    if not self._accept(PUNCT, ","):
                        break
        self._expect(PUNCT, ")")
        self._expect(PUNCT, "{")
        body = self._parse_block_items()
        self._expect(PUNCT, "}")
        return A.FunctionDef(name=name, return_type=ret, params=params,
                             body=body, is_kernel=is_kernel,
                             line=line, col=col)

    def _parse_param(self) -> A.ParamDecl:
        line, col = self.cur.line, self.cur.col
        spec = self._parse_type_spec()
        name = self._expect(IDENT).value
        if self.cur.is_(PUNCT, "["):
            raise self._error("array-typed parameters are not supported; "
                              "use a pointer")
        return A.ParamDecl(type_spec=spec, name=name, line=line, col=col)

    # -- statements -------------------------------------------------------------------

    def _parse_block_items(self) -> list[A.Node]:
        items: list[A.Node] = []
        while not self.cur.is_(PUNCT, "}") and self.cur.kind != EOF:
            items.append(self._parse_statement())
        return items

    def _parse_statement(self) -> A.Node:
        tok = self.cur
        if tok.kind == KEYWORD:
            v = tok.value
            if v in _UNSUPPORTED:
                raise self._error(
                    f"{v!r} is outside the SimCL OpenCL C subset")
            if v == "if":
                return self._parse_if()
            if v == "for":
                return self._parse_for()
            if v == "while":
                return self._parse_while()
            if v == "do":
                return self._parse_do_while()
            if v == "break":
                self._advance()
                self._expect(PUNCT, ";")
                return A.BreakStmt(line=tok.line, col=tok.col)
            if v == "continue":
                self._advance()
                self._expect(PUNCT, ";")
                return A.ContinueStmt(line=tok.line, col=tok.col)
            if v == "return":
                self._advance()
                value = None
                if not self.cur.is_(PUNCT, ";"):
                    value = self._parse_expression()
                self._expect(PUNCT, ";")
                return A.ReturnStmt(value=value, line=tok.line, col=tok.col)
            if self._at_type_start():
                return self._parse_decl_stmt()
        if tok.is_(PUNCT, "{"):
            self._advance()
            body = self._parse_block_items()
            self._expect(PUNCT, "}")
            return A.BlockStmt(body=body, line=tok.line, col=tok.col)
        if tok.is_(PUNCT, ";"):
            self._advance()
            return A.BlockStmt(body=[], line=tok.line, col=tok.col)
        expr = self._parse_expression()
        self._expect(PUNCT, ";")
        return A.ExprStmt(expr=expr, line=tok.line, col=tok.col)

    def _parse_decl_stmt(self) -> A.DeclStmt:
        line, col = self.cur.line, self.cur.col
        spec = self._parse_type_spec()
        decls: list[A.VarDecl] = []
        while True:
            dline, dcol = self.cur.line, self.cur.col
            # each declarator may add its own pointer depth
            extra_ptr = 0
            while self._accept(PUNCT, "*"):
                extra_ptr += 1
            name = self._expect(IDENT).value
            array_size = None
            if self._accept(PUNCT, "["):
                array_size = self._parse_expression()
                self._expect(PUNCT, "]")
                if self.cur.is_(PUNCT, "["):
                    raise self._error("multi-dimensional in-kernel arrays "
                                      "are not supported; linearize indices")
            init = None
            if self._accept(PUNCT, "="):
                init = self._parse_assignment()
            this_spec = A.TypeSpec(base=spec.base,
                                   pointer=spec.pointer + extra_ptr,
                                   address_space=spec.address_space,
                                   is_const=spec.is_const,
                                   line=spec.line, col=spec.col)
            decls.append(A.VarDecl(type_spec=this_spec, name=name,
                                   array_size=array_size, init=init,
                                   line=dline, col=dcol))
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ";")
        return A.DeclStmt(decls=decls, line=line, col=col)

    def _parse_if(self) -> A.IfStmt:
        tok = self._expect(KEYWORD, "if")
        self._expect(PUNCT, "(")
        cond = self._parse_expression()
        self._expect(PUNCT, ")")
        then = self._stmt_as_list(self._parse_statement())
        otherwise: list[A.Node] = []
        if self._accept(KEYWORD, "else"):
            otherwise = self._stmt_as_list(self._parse_statement())
        return A.IfStmt(cond=cond, then=then, otherwise=otherwise,
                        line=tok.line, col=tok.col)

    def _parse_for(self) -> A.ForStmt:
        tok = self._expect(KEYWORD, "for")
        self._expect(PUNCT, "(")
        init: list[A.Node] = []
        if not self.cur.is_(PUNCT, ";"):
            if self._at_type_start():
                init = [self._parse_decl_stmt()]  # consumes the `;`
            else:
                init = [A.ExprStmt(expr=self._parse_expression(),
                                   line=self.cur.line, col=self.cur.col)]
                self._expect(PUNCT, ";")
        else:
            self._advance()
        cond = None
        if not self.cur.is_(PUNCT, ";"):
            cond = self._parse_expression()
        self._expect(PUNCT, ";")
        update: list[A.Node] = []
        if not self.cur.is_(PUNCT, ")"):
            while True:
                update.append(A.ExprStmt(expr=self._parse_expression(),
                                         line=self.cur.line,
                                         col=self.cur.col))
                if not self._accept(PUNCT, ","):
                    break
        self._expect(PUNCT, ")")
        body = self._stmt_as_list(self._parse_statement())
        return A.ForStmt(init=init, cond=cond, update=update, body=body,
                         line=tok.line, col=tok.col)

    def _parse_while(self) -> A.WhileStmt:
        tok = self._expect(KEYWORD, "while")
        self._expect(PUNCT, "(")
        cond = self._parse_expression()
        self._expect(PUNCT, ")")
        body = self._stmt_as_list(self._parse_statement())
        return A.WhileStmt(cond=cond, body=body, line=tok.line, col=tok.col)

    def _parse_do_while(self) -> A.DoWhileStmt:
        tok = self._expect(KEYWORD, "do")
        body = self._stmt_as_list(self._parse_statement())
        self._expect(KEYWORD, "while")
        self._expect(PUNCT, "(")
        cond = self._parse_expression()
        self._expect(PUNCT, ")")
        self._expect(PUNCT, ";")
        return A.DoWhileStmt(body=body, cond=cond, line=tok.line, col=tok.col)

    @staticmethod
    def _stmt_as_list(stmt: A.Node) -> list[A.Node]:
        if isinstance(stmt, A.BlockStmt):
            return stmt.body
        return [stmt]

    # -- expressions --------------------------------------------------------------------

    def _parse_expression(self) -> A.Node:
        return self._parse_assignment()

    def _parse_assignment(self) -> A.Node:
        lhs = self._parse_ternary()
        if self.cur.kind == PUNCT and self.cur.value in _ASSIGN_OPS:
            op_tok = self._advance()
            rhs = self._parse_assignment()
            return A.AssignExpr(op=op_tok.value, lhs=lhs, rhs=rhs,
                                line=op_tok.line, col=op_tok.col)
        return lhs

    def _parse_ternary(self) -> A.Node:
        cond = self._parse_binary(1)
        if self.cur.is_(PUNCT, "?"):
            tok = self._advance()
            then = self._parse_assignment()
            self._expect(PUNCT, ":")
            otherwise = self._parse_ternary()
            return A.TernaryOp(cond=cond, then=then, otherwise=otherwise,
                               line=tok.line, col=tok.col)
        return cond

    def _parse_binary(self, min_prec: int) -> A.Node:
        lhs = self._parse_unary()
        while True:
            tok = self.cur
            if tok.kind != PUNCT:
                return lhs
            prec = _BIN_PREC.get(tok.value)
            if prec is None or prec < min_prec:
                return lhs
            self._advance()
            rhs = self._parse_binary(prec + 1)
            lhs = A.BinaryOp(op=tok.value, lhs=lhs, rhs=rhs,
                             line=tok.line, col=tok.col)

    def _parse_unary(self) -> A.Node:
        tok = self.cur
        if tok.kind == PUNCT and tok.value in ("-", "+", "!", "~"):
            self._advance()
            operand = self._parse_unary()
            return A.UnaryOp(op=tok.value, operand=operand,
                             line=tok.line, col=tok.col)
        if tok.kind == PUNCT and tok.value in ("++", "--"):
            self._advance()
            operand = self._parse_unary()
            # prefix inc/dec is represented like postfix; sema restricts use
            return A.PostfixOp(op=tok.value, operand=operand,
                               line=tok.line, col=tok.col)
        if tok.kind == PUNCT and tok.value == "&":
            # address-of: only meaningful as an atomic builtin argument,
            # which sema enforces
            self._advance()
            operand = self._parse_unary()
            return A.UnaryOp(op="&", operand=operand,
                             line=tok.line, col=tok.col)
        if tok.kind == PUNCT and tok.value == "*":
            raise self._error(
                "unary '*' (pointer dereference) is outside the subset; "
                "use indexing")
        if tok.is_(KEYWORD, "sizeof"):
            self._advance()
            self._expect(PUNCT, "(")
            spec = self._parse_type_spec()
            self._expect(PUNCT, ")")
            return A.SizeofExpr(type_name=spec, line=tok.line, col=tok.col)
        if tok.is_(PUNCT, "(") and self._is_cast_ahead():
            self._advance()
            spec = self._parse_type_spec()
            self._expect(PUNCT, ")")
            operand = self._parse_unary()
            return A.CastExpr(type_name=spec, operand=operand,
                              line=tok.line, col=tok.col)
        return self._parse_postfix()

    def _is_cast_ahead(self) -> bool:
        """At ``(``: is this a cast rather than a parenthesised expression?"""
        nxt = self._peek()
        return (nxt.kind == KEYWORD
                and (nxt.value in _TYPE_KEYWORDS
                     or nxt.value in _ADDRESS_SPACES))

    def _parse_postfix(self) -> A.Node:
        expr = self._parse_primary()
        while True:
            tok = self.cur
            if tok.is_(PUNCT, "["):
                self._advance()
                index = self._parse_expression()
                self._expect(PUNCT, "]")
                expr = A.IndexExpr(base=expr, index=index,
                                   line=tok.line, col=tok.col)
            elif tok.kind == PUNCT and tok.value in ("++", "--"):
                self._advance()
                expr = A.PostfixOp(op=tok.value, operand=expr,
                                   line=tok.line, col=tok.col)
            elif tok.is_(PUNCT, "."):
                raise self._error("member access is outside the subset "
                                  "(no struct/vector types)")
            else:
                return expr

    def _parse_primary(self) -> A.Node:
        tok = self.cur
        if tok.kind == INT_LIT:
            self._advance()
            radix = 16 if tok.value[1:2] in ("x", "X") \
                else 8 if tok.value[0] == "0" else 10
            return A.IntLiteral(value=int(tok.parsed), suffix=tok.suffix,
                                radix=radix, line=tok.line, col=tok.col)
        if tok.kind == FLOAT_LIT:
            self._advance()
            return A.FloatLiteral(value=float(tok.parsed), suffix=tok.suffix,
                                  line=tok.line, col=tok.col)
        if tok.kind == IDENT:
            self._advance()
            if self.cur.is_(PUNCT, "("):
                self._advance()
                args: list[A.Node] = []
                if not self.cur.is_(PUNCT, ")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept(PUNCT, ","):
                            break
                self._expect(PUNCT, ")")
                return A.CallExpr(name=tok.value, args=args,
                                  line=tok.line, col=tok.col)
            return A.Identifier(name=tok.value, line=tok.line, col=tok.col)
        if tok.is_(PUNCT, "("):
            self._advance()
            expr = self._parse_expression()
            self._expect(PUNCT, ")")
            return expr
        if tok.kind == KEYWORD and tok.value in ("true", "false"):
            self._advance()
            return A.IntLiteral(value=1 if tok.value == "true" else 0,
                                line=tok.line, col=tok.col)
        raise self._error(f"unexpected token {tok.value!r} in expression")


def parse(tokens: list[Token], filename: str = "<kernel>") -> A.TranslationUnit:
    """Parse a token list into a translation unit."""
    return Parser(tokens, filename).parse_translation_unit()
