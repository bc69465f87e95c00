"""Recursive-descent parser for the EMR DSL.

Grammar (one MR block per source):

    emr      := 'MR' '{{' stmt* '}}'
    stmt     := for | if | 'continue' ';' | var | expr ';'   (the ';' of an
                expression statement may be omitted right before '}' / '}}')
    for      := 'for' '(' ('var'|IDENT) IDENT ':' expr ')' body
    if       := 'if' '(' expr ')' body
    body     := '{' stmt+ '}' | stmt
    var      := 'var' IDENT '=' expr ';'
    expr     := and ('||' and)*
    and      := unary ('&&' unary)*
    unary    := '!' unary | postfix
    postfix  := primary ('.' IDENT '(' args ')')*
    primary  := 'true' | 'false' | INT | STRING | IDENT ['(' args ')'] | '(' expr ')'

A trailing ``//`` comment becomes the explanation of a node only when the
canonical layout (``printer``) prints that node's explanation on a line of
its own, and the node's canonical line breaks on the comment's source line.
A comment that no such node ends before is dropped.
"""

from __future__ import annotations

from .ast import (
    BoolChain,
    BoolLit,
    Call,
    Continue,
    EmrAst,
    Expr,
    ExprStmt,
    ForEach,
    If,
    IntLit,
    MethodCall,
    Name,
    Node,
    Not,
    Position,
    Stmt,
    StringLit,
    VarDecl,
)
from .errors import ParseError
from .printer import _Line, _rendered
from .tokens import Token, string_value, tokenize


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = [t for t in tokens if t.kind != "comment"]
        self.comments = [t for t in tokens if t.kind == "comment"]
        self.i = 0

    # -- token helpers --------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def at_punct(self, lexeme: str) -> bool:
        return self.cur.is_punct(lexeme)

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind == "keyword" and self.cur.lexeme == word

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, expected: set[str]) -> ParseError:
        tok = self.cur
        found = repr(tok.lexeme) if tok.kind != "eof" else "end of input"
        hint = "WLC-AMP" if tok.is_punct("&") else None
        wanted = ", ".join(sorted(expected))
        return ParseError(
            f"expected {wanted}, found {found}",
            tok.line,
            tok.column,
            frozenset(expected),
            repair_hint=hint,
        )

    def expect_punct(self, lexeme: str) -> Token:
        if not self.at_punct(lexeme):
            raise self.error({f"'{lexeme}'"})
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error({f"'{word}'"})
        return self.advance()

    def expect_identifier(self) -> Token:
        if self.cur.kind != "identifier":
            raise self.error({"identifier"})
        return self.advance()

    def _end_of(self, tok: Token) -> tuple[int, int]:
        return tok.line, tok.column + len(tok.lexeme)

    def _finish(self, node: Node, start: Token, end: Token) -> None:
        el, ec = self._end_of(end)
        node.pos = Position(start.line, start.column, el, ec)

    # -- grammar --------------------------------------------------------

    def parse_emr(self, emr_id: str) -> EmrAst:
        start = self.expect_keyword("MR")
        self.expect_punct("{{")
        stmts: list[Stmt] = []
        while not self.at_punct("}}"):
            if self.cur.kind == "eof":
                raise self.error({"'}}'", "statement"})
            stmts.append(self.statement())
        end = self.advance()
        if self.cur.kind != "eof":
            raise self.error({"end of input"})
        ast = EmrAst(emr_id, tuple(stmts), (start.line, end.line))
        _attach_comments(ast, self.comments)
        return ast

    def statement(self) -> Stmt:
        if self.at_keyword("for"):
            return self.for_stmt()
        if self.at_keyword("if"):
            return self.if_stmt()
        if self.at_keyword("continue"):
            start = self.advance()
            end = self.expect_punct(";")
            node = Continue()
            self._finish(node, start, end)
            return node
        if self.at_keyword("var"):
            return self.var_stmt()
        start = self.cur
        expr = self.expression()
        if self.at_punct("}") or self.at_punct("}}"):
            # Tolerate a missing ';' on the last statement of a block;
            # canonical printing puts it back.
            end = self.tokens[self.i - 1]
        else:
            end = self.expect_punct(";")
        node = ExprStmt(expr)
        self._finish(node, start, end)
        return node

    def for_stmt(self) -> ForEach:
        start = self.expect_keyword("for")
        self.expect_punct("(")
        if self.at_keyword("var"):
            decl_type = self.advance().lexeme
        elif self.cur.kind == "identifier":
            decl_type = self.advance().lexeme
        else:
            raise self.error({"'var'", "type name"})
        var = self.expect_identifier().lexeme
        self.expect_punct(":")
        iterable = self.expression()
        self.expect_punct(")")
        body, end = self.body()
        if not body:
            raise ParseError("loop body must not be empty", start.line, start.column)
        node = ForEach(decl_type, var, iterable, body)
        self._finish(node, start, end)
        return node

    def if_stmt(self) -> If:
        start = self.expect_keyword("if")
        self.expect_punct("(")
        cond = self.expression()
        self.expect_punct(")")
        body, end = self.body()
        node = If(cond, body)
        self._finish(node, start, end)
        return node

    def var_stmt(self) -> VarDecl:
        start = self.expect_keyword("var")
        name = self.expect_identifier().lexeme
        self.expect_punct("=")
        init = self.expression()
        end = self.expect_punct(";")
        node = VarDecl(name, init)
        self._finish(node, start, end)
        return node

    def body(self) -> tuple[tuple[Stmt, ...], Token]:
        if self.at_punct("{"):
            self.advance()
            stmts: list[Stmt] = []
            while not self.at_punct("}"):
                if self.cur.kind == "eof":
                    raise self.error({"'}'", "statement"})
                stmts.append(self.statement())
            end = self.advance()
            return tuple(stmts), end
        st = self.statement()
        return (st,), self.tokens[self.i - 1]

    # -- expressions ------------------------------------------------------

    def expression(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        first = self.and_expr()
        if not self.at_punct("||"):
            return first
        operands = [first]
        start_line, start_col = first.pos.line, first.pos.column
        while self.at_punct("||"):
            self.advance()
            operands.append(self.and_expr())
        node = BoolChain("||", tuple(operands))
        last = operands[-1].pos
        node.pos = Position(start_line, start_col, last.end_line, last.end_column)
        return node

    def and_expr(self) -> Expr:
        first = self.unary()
        if not self.at_punct("&&"):
            return first
        operands = [first]
        start_line, start_col = first.pos.line, first.pos.column
        while self.at_punct("&&"):
            self.advance()
            operands.append(self.unary())
        node = BoolChain("&&", tuple(operands))
        last = operands[-1].pos
        node.pos = Position(start_line, start_col, last.end_line, last.end_column)
        return node

    def unary(self) -> Expr:
        if self.at_punct("!"):
            start = self.advance()
            operand = self.unary()
            node = Not(operand)
            node.pos = Position(start.line, start.column, operand.pos.end_line, operand.pos.end_column)
            return node
        return self.postfix()

    def postfix(self) -> Expr:
        expr = self.primary()
        while self.at_punct("."):
            self.advance()
            name = self.expect_identifier()
            self.expect_punct("(")
            args, end = self.args()
            node = MethodCall(expr, name.lexeme, args)
            el, ec = self._end_of(end)
            node.pos = Position(expr.pos.line, expr.pos.column, el, ec)
            expr = node
        return expr

    def primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "keyword" and tok.lexeme in ("true", "false"):
            self.advance()
            node: Expr = BoolLit(tok.lexeme == "true")
        elif tok.kind == "integer-literal":
            self.advance()
            node = IntLit(int(tok.lexeme))
        elif tok.kind == "string-literal":
            self.advance()
            node = StringLit(string_value(tok.lexeme))
        elif tok.kind == "identifier":
            self.advance()
            if self.at_punct("("):
                self.advance()
                args, end = self.args()
                node = Call(tok.lexeme, args)
                self._finish(node, tok, end)
                return node
            node = Name(tok.lexeme)
        elif tok.is_punct("("):
            self.advance()
            inner = self.expression()
            self.expect_punct(")")
            return inner
        else:
            raise self.error({"expression"})
        self._finish(node, tok, tok)
        return node

    def args(self) -> tuple[tuple[Expr, ...], Token]:
        """Arguments after '('; returns (args, the ')' token)."""
        if self.at_punct(")"):
            return (), self.advance()
        args = [self.expression()]
        while self.at_punct(","):
            self.advance()
            args.append(self.expression())
        end = self.expect_punct(")")
        return tuple(args), end


def _anchor(line: _Line) -> tuple[int, int]:
    """Source position where the canonical line owned by ``line.owner`` breaks."""
    node = line.owner
    if isinstance(node, ForEach):
        return node.iterable.pos.end_line, node.iterable.pos.end_column
    if isinstance(node, If):
        return node.cond.pos.end_line, node.cond.pos.end_column
    if line.unit_kind == "opener":
        return node.pos.line, node.pos.column + len(node.name) + 1
    return node.pos.end_line, node.pos.end_column


def _attach_comments(ast: EmrAst, comments: list[Token]) -> None:
    candidates = [(line.owner, *_anchor(line)) for line in _rendered(ast) if line.owner is not None]
    for comment in comments:
        best: tuple[Node, int, int] | None = None
        for cand in candidates:
            node, eline, ecol = cand
            if eline != comment.line or ecol > comment.column:
                continue
            if best is None:
                best = cand
                continue
            key = (ecol, -(node.pos.line * 10_000 + node.pos.column))
            best_key = (best[2], -(best[0].pos.line * 10_000 + best[0].pos.column))
            if key > best_key:
                best = cand
        if best is not None and best[0].explanation is None:
            best[0].explanation = comment.lexeme[2:].strip()


def parse_emr(source: str, emr_id: str = "emr") -> EmrAst:
    """Parse one MR block into an AST; raises ParseError/IllegalCharacter."""
    return _Parser(tokenize(source)).parse_emr(emr_id)
