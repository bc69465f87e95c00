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

Each node holds the offsets of its first and last lexemes and the
source's line starts, and resolves its line from them when read. The
parser works out a line and column itself only for a ``ParseError``;
comments are matched to nodes by line and offset.

A trailing ``//`` comment becomes the explanation of a node only when the
canonical layout (``printer.layout``, which attachment reads) prints that
node's explanation on a line of its own, and the node's canonical line
breaks on the comment's source line at or before the comment. Of several
such nodes the one whose line breaks last wins: owned lines break in layout
order, no two at one offset. A comment that no such node ends before is dropped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TypeVar

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
    Stmt,
    StringLit,
    VarDecl,
)
from .errors import ParseError
from .printer import Unit, layout
from .tokens import KEYWORDS, comments, kind_of, line_starts, position, scan, string_value

# How deep parentheses, '!' operands, call arguments and loop or guard
# bodies may nest, counted together: deeper sources raise ParseError, so
# that no nesting reaches Python's recursion limit here or in the printer,
# validator and runtime that walk the AST.
MAX_NESTING = 100

# Nodes are built without a class call, which would pass the keyword-only
# span through a dict and cost more than the rest of a node's parse; each
# builder sets every field.
_new = object.__new__
_Stmt = TypeVar("_Stmt", bound=Node)


def _chain(op: str, operands: list[Expr]) -> Expr:
    if len(operands) == 1:
        return operands[0]
    first = operands[0]
    node = _new(BoolChain)
    node.lines, node.start, node.end = first.lines, first.start, operands[-1].end
    node.explanation, node.op, node.operands = None, op, tuple(operands)
    return node


class _Parser:
    """Recursive descent over the lexemes of one scan, comments left out.

    Without comments a punctuation or keyword lexeme names its own kind (no
    identifier, literal or ``eof`` spells ``||``, ``(`` or ``for``), and the
    other kinds differ in their first character, so the grammar tests
    ``lexemes[i]`` directly. Token positions are the start offsets.
    ``depth`` counts the nesting open at the current lexeme.
    """

    def __init__(self, source: str):
        self.source = source
        self.lexemes, self.starts = scan(source)
        self.lines = line_starts(source)
        self.i = 0
        self.depth = 0

    # -- positions ------------------------------------------------------

    def where(self, i: int) -> tuple[int, int]:
        """(line, column) of the lexeme at index ``i``."""
        return position(self.lines, self.starts[i])

    def span(self, node: _Stmt, first: int, last: int) -> _Stmt:
        """``node``, spanning from the start of lexeme ``first`` to the end of
        lexeme ``last``, with no explanation."""
        node.lines, node.start, node.end = self.lines, self.starts[first], self.starts[last] + len(self.lexemes[last])
        node.explanation = None
        return node

    # -- lexeme helpers -------------------------------------------------

    def error(self, expected: set[str]) -> ParseError:
        lexeme = self.lexemes[self.i]
        found = repr(lexeme) if lexeme else "end of input"
        hint = "WLC-AMP" if lexeme == "&" else None
        wanted = ", ".join(sorted(expected))
        return ParseError(f"expected {wanted}, found {found}", *self.where(self.i), frozenset(expected), hint)

    def nest(self, i: int) -> None:
        """Open one more level of nesting at lexeme ``i``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", *self.where(i))

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

    def parse_emr(self, emr_id: str, explanations: bool) -> EmrAst:
        self.expect("MR")
        self.expect("{{")
        stmts: list[Stmt] = []
        while self.lexemes[self.i] != "}}":
            if not self.lexemes[self.i]:
                raise self.error({"'}}'", "statement"})
            stmts.append(self.statement())
        self.i += 1
        if self.lexemes[self.i]:
            raise self.error({"end of input"})
        ast = EmrAst(emr_id, tuple(stmts))
        if explanations:
            self.attach_comments(ast)
        return ast

    def attach_comments(self, ast: EmrAst, units: list[Unit] | None = None) -> None:
        """Give each comment to the node it explains, reading ``units``, the
        canonical layout of ``ast``, or walking it when there is a comment.

        A comment runs to the end of its line, so a line holds at most one, and
        no lexeme on that line ends after it. Each owner line is matched against
        the comment on its anchor's line only: the source offset where the
        owner's canonical line breaks, the end of a lexeme, and so at or before
        the comment.
        """
        found = comments(self.source, self.lexemes, self.starts)
        if not found:
            return
        starts, lines = self.starts, self.lines
        by_line = {bisect_right(lines, at): text for at, text in found}
        best: dict[int, Node] = {}
        for unit in layout(ast) if units is None else units:
            node = unit.owner
            if node is None:
                continue
            if unit.kind == "opener":
                # The line breaks after the '(' lexeme that follows the call's name.
                end = starts[bisect_left(starts, node.start) + 1] + 1
            else:
                last = node.iterable if isinstance(node, ForEach) else node.cond if isinstance(node, If) else node
                end = last.end
            line = bisect_right(lines, end)
            if line in by_line:
                best[line] = node  # lines break in layout order, so the last one wins
        for line, node in best.items():  # no node owns two lines
            node.explanation = by_line[line][2:].strip()

    def statement(self) -> Stmt:
        start = self.i
        lexeme = self.lexemes[start]
        if lexeme == "for":
            return self.for_stmt()
        if lexeme == "if":
            return self.if_stmt()
        if lexeme == "continue":
            self.i += 1
            return self.span(_new(Continue), start, self.expect(";"))
        if lexeme == "var":
            return self.var_stmt()
        expr = self.expression()
        if self.lexemes[self.i] in ("}", "}}"):
            # Tolerate a missing ';' on the last statement of a block;
            # canonical printing puts it back.
            end = self.i - 1
        else:
            end = self.expect(";")
        node = _new(ExprStmt)
        node.expr = expr
        return self.span(node, start, end)

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
        body = self.body()
        if not body:
            raise ParseError("loop body must not be empty", *self.where(start))
        node = _new(ForEach)
        node.decl_type, node.var, node.iterable, node.body = decl_type, var, iterable, body
        return self.span(node, start, self.i - 1)

    def if_stmt(self) -> If:
        start = self.i
        self.i += 1
        self.expect("(")
        cond = self.expression()
        self.expect(")")
        body = self.body()
        node = _new(If)
        node.cond, node.body = cond, body
        return self.span(node, start, self.i - 1)

    def var_stmt(self) -> VarDecl:
        start = self.i
        self.i += 1
        name = self.expect_identifier()
        self.expect("=")
        init = self.expression()
        node = _new(VarDecl)
        node.name, node.init = name, init
        return self.span(node, start, self.expect(";"))

    def body(self) -> tuple[Stmt, ...]:
        """The statements of a loop or guard body."""
        self.nest(self.i)
        if self.lexemes[self.i] == "{":
            self.i += 1
            stmts: list[Stmt] = []
            while self.lexemes[self.i] != "}":
                if not self.lexemes[self.i]:
                    raise self.error({"'}'", "statement"})
                stmts.append(self.statement())
            self.i += 1
            body = tuple(stmts)
        else:
            body = (self.statement(),)
        self.depth -= 1
        return body

    # -- expressions ------------------------------------------------------

    def expression(self) -> Expr:
        """Both infix levels: '&&' chains of unaries, joined by '||'."""
        first = self.unary()
        op = self.lexemes[self.i]
        if op != "&&" and op != "||":
            return first
        return self.chain(first)

    def chain(self, first: Expr) -> Expr:
        """The '&&' and '||' chain that ``first`` starts, with the operator next."""
        lexemes = self.lexemes
        op = lexemes[self.i]
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
        """A '!' operand, or a primary with its method calls."""
        lexemes, lines = self.lexemes, self.lines
        i = self.i
        lexeme = lexemes[i]
        start = self.starts[i]
        self.i = i + 1
        head = lexeme[:1]
        if (head.isalpha() or head == "_") and lexeme not in KEYWORDS:
            if lexemes[i + 1] == "(":
                self.i = i + 2
                args = self.args()
                expr = _new(Call)
                expr.lines, expr.start, expr.end, expr.explanation = lines, start, self.starts[self.i - 1] + 1, None
                expr.name, expr.args = lexeme, args
            else:
                expr = _new(Name)
                expr.lines, expr.start, expr.end, expr.explanation = lines, start, start + len(lexeme), None
                expr.ident = lexeme
        elif head.isdecimal():
            try:
                value = int(lexeme)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"integer literal of {len(lexeme)} digits is too long", *self.where(i))
            expr = _new(IntLit)
            expr.lines, expr.start, expr.end, expr.explanation = lines, start, start + len(lexeme), None
            expr.value = value
        elif head == '"':
            expr = _new(StringLit)
            expr.lines, expr.start, expr.end, expr.explanation = lines, start, start + len(lexeme), None
            expr.value = string_value(lexeme)
        elif lexeme == "true" or lexeme == "false":
            expr = _new(BoolLit)
            expr.lines, expr.start, expr.end, expr.explanation = lines, start, start + len(lexeme), None
            expr.value = lexeme == "true"
        elif lexeme == "(":
            self.nest(i)
            expr = self.expression()
            self.expect(")")
            self.depth -= 1
        elif lexeme == "!":
            self.nest(i)
            operand = self.unary()
            self.depth -= 1
            node = _new(Not)
            node.lines, node.start, node.end, node.explanation = lines, start, operand.end, None
            node.operand = operand
            return node
        else:
            self.i = i
            raise self.error({"expression"})
        while lexemes[self.i] == ".":
            self.i += 1
            name = self.expect_identifier()
            self.expect("(")
            args = self.args()
            call = _new(MethodCall)
            call.lines, call.start, call.end, call.explanation = lines, expr.start, self.starts[self.i - 1] + 1, None
            call.receiver, call.name, call.args = expr, name, args
            expr = call
        return expr

    def args(self) -> tuple[Expr, ...]:
        """The arguments after '(', and the move past the ')'."""
        if self.lexemes[self.i] == ")":
            self.i += 1
            return ()
        self.nest(self.i - 1)
        args = [self.expression()]
        while self.lexemes[self.i] == ",":
            self.i += 1
            args.append(self.expression())
        self.depth -= 1
        self.expect(")")
        return tuple(args)


def parse_emr(source: str, emr_id: str = "emr", *, explanations: bool = True) -> EmrAst:
    """Parse one MR block into an AST; raises ParseError/IllegalCharacter.

    With ``explanations=False`` the ``//`` comments are not attached: the AST
    is the same, offsets included, with every ``explanation`` None. That
    skips finding the comments and walking the canonical layout, for
    callers whose outputs hold no explanation.
    """
    return _Parser(source).parse_emr(emr_id, explanations)


def parse_with_layout(source: str, emr_id: str = "emr") -> tuple[EmrAst, list[Unit]]:
    """``parse_emr(source, emr_id)`` and the canonical layout of its AST
    (``printer.layout``): the one walk that attaching the comments reads,
    for callers that read the layout as well."""
    parser = _Parser(source)
    ast = parser.parse_emr(emr_id, False)
    units = layout(ast)
    parser.attach_comments(ast, units)
    return ast, units
