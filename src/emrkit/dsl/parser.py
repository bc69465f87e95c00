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
    unary    := '!' unary | primary ('.' IDENT '(' args ')')*
    primary  := 'true' | 'false' | INT | STRING | IDENT ['(' args ')'] | '(' expr ')'

A trailing ``//`` comment becomes the explanation of a node only when the
canonical layout (``printer``) prints that node's explanation on a line of
its own, and the node's canonical line breaks on the comment's source line
at or before the comment. Of several such nodes the one whose line breaks
last wins, and of those the one that starts first. A comment that no such
node ends before is dropped.
"""

from __future__ import annotations

from bisect import bisect_right

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
from .printer import _Line, layout
from .tokens import kind_of, line_starts, position, scan, string_value


def _chain(op: str, operands: list[Expr]) -> Expr:
    if len(operands) == 1:
        return operands[0]
    first, last = operands[0].pos, operands[-1].pos
    pos = Position(first.line, first.column, last.end_line, last.end_column)
    return BoolChain(op, tuple(operands), pos=pos)


class _Parser:
    """Recursive descent over the lexemes of one scan, comments left out.

    Without comments a punctuation or keyword lexeme names its own kind (no
    identifier, literal or ``eof`` spells ``||``, ``(`` or ``for``), and the
    other kinds differ in their first character, so the grammar tests
    ``lexemes[i]`` directly. Token positions are the start offsets; a line
    and column are looked up only for a node's ``Position`` or an error.
    """

    def __init__(self, source: str):
        self.lexemes, self.starts, self.comments = scan(source)
        self.lines = line_starts(source)
        self.i = 0

    # -- positions ------------------------------------------------------

    def where(self, i: int) -> tuple[int, int]:
        """(line, column) of the lexeme at index ``i``."""
        return position(self.lines, self.starts[i])

    def span(self, first: int, last: int) -> Position:
        """From the start of lexeme ``first`` to the end of lexeme ``last``
        (``position`` twice, inlined: every node asks for one)."""
        lines = self.lines
        start = self.starts[first]
        end = self.starts[last] + len(self.lexemes[last])
        line = bisect_right(lines, start)
        end_line = bisect_right(lines, end)
        return Position(line, start - lines[line - 1] + 1, end_line, end - lines[end_line - 1] + 1)

    # -- lexeme helpers -------------------------------------------------

    def error(self, expected: set[str]) -> ParseError:
        lexeme = self.lexemes[self.i]
        found = repr(lexeme) if lexeme else "end of input"
        hint = "WLC-AMP" if lexeme == "&" else None
        wanted = ", ".join(sorted(expected))
        return ParseError(f"expected {wanted}, found {found}", *self.where(self.i), frozenset(expected), hint)

    def expect(self, lexeme: str) -> int:
        """Index of the punctuation or keyword ``lexeme``, which must come next."""
        i = self.i
        if self.lexemes[i] != lexeme:
            raise self.error({f"'{lexeme}'"})
        self.i = i + 1
        return i

    def expect_identifier(self) -> str:
        lexeme = self.lexemes[self.i]
        if kind_of(lexeme) != "identifier":
            raise self.error({"identifier"})
        self.i += 1
        return lexeme

    # -- grammar --------------------------------------------------------

    def parse_emr(self, emr_id: str) -> EmrAst:
        start = self.expect("MR")
        self.expect("{{")
        stmts: list[Stmt] = []
        while self.lexemes[self.i] != "}}":
            if not self.lexemes[self.i]:
                raise self.error({"'}}'", "statement"})
            stmts.append(self.statement())
        end = self.i
        self.i += 1
        if self.lexemes[self.i]:
            raise self.error({"end of input"})
        ast = EmrAst(emr_id, tuple(stmts), (self.where(start)[0], self.where(end)[0]))
        if self.comments:
            _attach_comments(ast, [(*position(self.lines, at), text) for at, text in self.comments])
        return ast

    def statement(self) -> Stmt:
        start = self.i
        lexeme = self.lexemes[start]
        if lexeme == "for":
            return self.for_stmt()
        if lexeme == "if":
            return self.if_stmt()
        if lexeme == "continue":
            self.i += 1
            return Continue(pos=self.span(start, self.expect(";")))
        if lexeme == "var":
            return self.var_stmt()
        expr = self.expression()
        if self.lexemes[self.i] in ("}", "}}"):
            # Tolerate a missing ';' on the last statement of a block;
            # canonical printing puts it back.
            end = self.i - 1
        else:
            end = self.expect(";")
        return ExprStmt(expr, pos=self.span(start, end))

    def for_stmt(self) -> ForEach:
        start = self.i
        self.i += 1
        self.expect("(")
        decl_type = self.lexemes[self.i]
        if decl_type != "var" and kind_of(decl_type) != "identifier":
            raise self.error({"'var'", "type name"})
        self.i += 1
        var = self.expect_identifier()
        self.expect(":")
        iterable = self.expression()
        self.expect(")")
        body, end = self.body()
        if not body:
            raise ParseError("loop body must not be empty", *self.where(start))
        return ForEach(decl_type, var, iterable, body, pos=self.span(start, end))

    def if_stmt(self) -> If:
        start = self.i
        self.i += 1
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        body, end = self.body()
        return If(cond, body, pos=self.span(start, end))

    def var_stmt(self) -> VarDecl:
        start = self.i
        self.i += 1
        name = self.expect_identifier()
        self.expect("=")
        init = self.expression()
        return VarDecl(name, init, pos=self.span(start, self.expect(";")))

    def body(self) -> tuple[tuple[Stmt, ...], int]:
        """The statements of a loop or guard body and the index of its last lexeme."""
        if self.lexemes[self.i] == "{":
            self.i += 1
            stmts: list[Stmt] = []
            while self.lexemes[self.i] != "}":
                if not self.lexemes[self.i]:
                    raise self.error({"'}'", "statement"})
                stmts.append(self.statement())
            self.i += 1
            return tuple(stmts), self.i - 1
        st = self.statement()
        return (st,), self.i - 1

    # -- expressions ------------------------------------------------------

    def expression(self) -> Expr:
        """Both infix levels: '&&' chains of unaries, joined by '||'."""
        lexemes = self.lexemes
        first = self.unary()
        op = lexemes[self.i]
        if op != "&&" and op != "||":
            return first
        disjuncts: list[Expr] = []
        conjuncts = [first]
        while op == "&&" or op == "||":
            self.i += 1
            if op == "||":
                disjuncts.append(_chain("&&", conjuncts))
                conjuncts = []
            conjuncts.append(self.unary())
            op = lexemes[self.i]
        disjuncts.append(_chain("&&", conjuncts))
        return _chain("||", disjuncts)

    def unary(self) -> Expr:
        """'!' operands, and a primary with its method calls."""
        lexemes = self.lexemes
        start = self.i
        if lexemes[start] == "!":
            self.i += 1
            operand = self.unary()
            line, column = self.where(start)
            end = operand.pos
            return Not(operand, pos=Position(line, column, end.end_line, end.end_column))
        expr = self.primary()
        while lexemes[self.i] == ".":
            self.i += 1
            name = self.expect_identifier()
            self.expect("(")
            args, end = self.args()
            end_line, end_column = position(self.lines, self.starts[end] + 1)
            expr = MethodCall(expr, name, args, pos=Position(expr.pos.line, expr.pos.column, end_line, end_column))
        return expr

    def primary(self) -> Expr:
        i = self.i
        lexeme = self.lexemes[i]
        kind = kind_of(lexeme)
        if kind == "identifier":
            self.i = i + 1
            if self.lexemes[i + 1] == "(":
                self.i = i + 2
                args, end = self.args()
                return Call(lexeme, args, pos=self.span(i, end))
            return Name(lexeme, pos=self.span(i, i))
        if kind == "integer-literal":
            try:
                value = int(lexeme)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"integer literal of {len(lexeme)} digits is too long", *self.where(i))
            self.i = i + 1
            return IntLit(value, pos=self.span(i, i))
        if kind == "string-literal":
            self.i = i + 1
            return StringLit(string_value(lexeme), pos=self.span(i, i))
        if lexeme == "true" or lexeme == "false":
            self.i = i + 1
            return BoolLit(lexeme == "true", pos=self.span(i, i))
        if lexeme == "(":
            self.i = i + 1
            inner = self.expression()
            self.expect(")")
            return inner
        raise self.error({"expression"})

    def args(self) -> tuple[tuple[Expr, ...], int]:
        """Arguments after '('; returns (args, the index of the ')')."""
        if self.lexemes[self.i] == ")":
            self.i += 1
            return (), self.i - 1
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


def _attach_comments(ast: EmrAst, comments: list[tuple[int, int, str]]) -> None:
    """Give each (line, column, lexeme) comment to the node it explains.

    A comment runs to the end of its line, so a line holds at most one, and
    each owner line is matched against the comment on its anchor's line only.
    """
    by_line = {line: (column, lexeme) for line, column, lexeme in comments}
    best: dict[int, tuple[tuple[int, int, int], Node]] = {}
    for line in layout(ast):
        node = line.owner
        if node is None:
            continue
        anchor_line, anchor_column = _anchor(line)
        comment = by_line.get(anchor_line)
        if comment is None or anchor_column > comment[0]:
            continue
        # The line that breaks last wins; then the node that starts first.
        key = (anchor_column, -node.pos.line, -node.pos.column)
        if anchor_line not in best or key > best[anchor_line][0]:
            best[anchor_line] = (key, node)
    for anchor_line, (_, node) in best.items():
        if node.explanation is None:
            node.explanation = by_line[anchor_line][1][2:].strip()


def parse_emr(source: str, emr_id: str = "emr") -> EmrAst:
    """Parse one MR block into an AST; raises ParseError/IllegalCharacter."""
    return _Parser(source).parse_emr(emr_id)
