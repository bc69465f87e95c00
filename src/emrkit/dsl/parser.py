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


def _span(start: Token, end: Token) -> Position:
    return Position(start.line, start.column, end.line, end.column + len(end.lexeme))


def _chain(op: str, operands: list[Expr]) -> BoolChain:
    first, last = operands[0].pos, operands[-1].pos
    pos = Position(first.line, first.column, last.end_line, last.end_column)
    return BoolChain(op, tuple(operands), pos=pos)


class _Parser:
    """Recursive descent over the comment-free tokens. Once comments are gone
    a punctuation or keyword lexeme names its own kind (no identifier,
    literal or ``eof`` spells ``||``, ``(`` or ``for``), so the grammar
    tests ``lexemes[i]`` directly."""

    def __init__(self, tokens: list[Token]):
        self.tokens = [t for t in tokens if t.kind != "comment"]
        self.lexemes = [t.lexeme for t in self.tokens]
        self.comments = [t for t in tokens if t.kind == "comment"]
        self.i = 0

    # -- token helpers --------------------------------------------------

    def at_eof(self) -> bool:
        return self.tokens[self.i].kind == "eof"

    def advance(self) -> Token:
        """The current token, stepping past it; call only on a matched lexeme."""
        self.i += 1
        return self.tokens[self.i - 1]

    def error(self, expected: set[str]) -> ParseError:
        tok = self.tokens[self.i]
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

    def expect(self, lexeme: str) -> Token:
        """The punctuation or keyword ``lexeme``, which must come next."""
        i = self.i
        if self.lexemes[i] != lexeme:
            raise self.error({f"'{lexeme}'"})
        self.i = i + 1
        return self.tokens[i]

    def expect_identifier(self) -> Token:
        if self.tokens[self.i].kind != "identifier":
            raise self.error({"identifier"})
        return self.advance()

    # -- grammar --------------------------------------------------------

    def parse_emr(self, emr_id: str) -> EmrAst:
        start = self.expect("MR")
        self.expect("{{")
        stmts: list[Stmt] = []
        while self.lexemes[self.i] != "}}":
            if self.at_eof():
                raise self.error({"'}}'", "statement"})
            stmts.append(self.statement())
        end = self.advance()
        if not self.at_eof():
            raise self.error({"end of input"})
        ast = EmrAst(emr_id, tuple(stmts), (start.line, end.line))
        _attach_comments(ast, self.comments)
        return ast

    def statement(self) -> Stmt:
        lexeme = self.lexemes[self.i]
        if lexeme == "for":
            return self.for_stmt()
        if lexeme == "if":
            return self.if_stmt()
        if lexeme == "continue":
            start = self.advance()
            return Continue(pos=_span(start, self.expect(";")))
        if lexeme == "var":
            return self.var_stmt()
        start = self.tokens[self.i]
        expr = self.expression()
        if self.lexemes[self.i] in ("}", "}}"):
            # Tolerate a missing ';' on the last statement of a block;
            # canonical printing puts it back.
            end = self.tokens[self.i - 1]
        else:
            end = self.expect(";")
        return ExprStmt(expr, pos=_span(start, end))

    def for_stmt(self) -> ForEach:
        start = self.advance()
        self.expect("(")
        if self.lexemes[self.i] == "var" or self.tokens[self.i].kind == "identifier":
            decl_type = self.advance().lexeme
        else:
            raise self.error({"'var'", "type name"})
        var = self.expect_identifier().lexeme
        self.expect(":")
        iterable = self.expression()
        self.expect(")")
        body, end = self.body()
        if not body:
            raise ParseError("loop body must not be empty", start.line, start.column)
        return ForEach(decl_type, var, iterable, body, pos=_span(start, end))

    def if_stmt(self) -> If:
        start = self.advance()
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        body, end = self.body()
        return If(cond, body, pos=_span(start, end))

    def var_stmt(self) -> VarDecl:
        start = self.advance()
        name = self.expect_identifier().lexeme
        self.expect("=")
        init = self.expression()
        return VarDecl(name, init, pos=_span(start, self.expect(";")))

    def body(self) -> tuple[tuple[Stmt, ...], Token]:
        if self.lexemes[self.i] == "{":
            self.i += 1
            stmts: list[Stmt] = []
            while self.lexemes[self.i] != "}":
                if self.at_eof():
                    raise self.error({"'}'", "statement"})
                stmts.append(self.statement())
            return tuple(stmts), self.advance()
        st = self.statement()
        return (st,), self.tokens[self.i - 1]

    # -- expressions ------------------------------------------------------

    def expression(self) -> Expr:
        first = self.conjunction()
        if self.lexemes[self.i] != "||":
            return first
        operands = [first]
        while self.lexemes[self.i] == "||":
            self.i += 1
            operands.append(self.conjunction())
        return _chain("||", operands)

    def conjunction(self) -> Expr:
        first = self.unary()
        if self.lexemes[self.i] != "&&":
            return first
        operands = [first]
        while self.lexemes[self.i] == "&&":
            self.i += 1
            operands.append(self.unary())
        return _chain("&&", operands)

    def unary(self) -> Expr:
        if self.lexemes[self.i] == "!":
            start = self.advance()
            operand = self.unary()
            end = operand.pos
            return Not(operand, pos=Position(start.line, start.column, end.end_line, end.end_column))
        return self.postfix()

    def postfix(self) -> Expr:
        expr = self.primary()
        while self.lexemes[self.i] == ".":
            self.i += 1
            name = self.expect_identifier()
            self.expect("(")
            args, end = self.args()
            pos = Position(expr.pos.line, expr.pos.column, end.line, end.column + 1)
            expr = MethodCall(expr, name.lexeme, args, pos=pos)
        return expr

    def primary(self) -> Expr:
        tok = self.tokens[self.i]
        kind = tok.kind
        lexeme = tok.lexeme
        if kind == "identifier":
            self.i += 1
            if self.lexemes[self.i] == "(":
                self.i += 1
                args, end = self.args()
                return Call(lexeme, args, pos=_span(tok, end))
            return Name(lexeme, pos=_span(tok, tok))
        if kind == "integer-literal":
            try:
                value = int(lexeme)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"integer literal of {len(lexeme)} digits is too long", tok.line, tok.column)
            self.i += 1
            return IntLit(value, pos=_span(tok, tok))
        if kind == "string-literal":
            self.i += 1
            return StringLit(string_value(lexeme), pos=_span(tok, tok))
        if lexeme == "true" or lexeme == "false":
            self.i += 1
            return BoolLit(lexeme == "true", pos=_span(tok, tok))
        if lexeme == "(":
            self.i += 1
            inner = self.expression()
            self.expect(")")
            return inner
        raise self.error({"expression"})

    def args(self) -> tuple[tuple[Expr, ...], Token]:
        """Arguments after '('; returns (args, the ')' token)."""
        if self.lexemes[self.i] == ")":
            return (), self.advance()
        args = [self.expression()]
        while self.lexemes[self.i] == ",":
            self.i += 1
            args.append(self.expression())
        return tuple(args), self.expect(")")


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
    if not comments:
        return
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
