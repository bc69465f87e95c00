"""Canonical layout for EMR ASTs.

The printer produces one deterministic form per AST: statements one per
line, except that statement-level IMPLIES/OR/AND calls expand with each
argument on its own line (and ``&&``/``||`` chains in argument position
split one operand per line), mirroring how generated EMRs are written and
read. Every line that carries program logic is a *unit*: the thing that
gets classified Simple/Complex, annotated, and counted in size statistics.

Each canonical line has at most one *owner*, the node whose explanation it
prints as a trailing ``//`` comment. This module is the one place that
decides the layout: the parser attaches a source comment only to the owner
of a line of ``layout``, which it reads as the printer does, so parse ->
print -> parse keeps every explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._record import Record
from .ast import (
    BoolChain,
    BoolLit,
    CONSTRUCTS,
    Call,
    Continue,
    EmrAst,
    Expr,
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
from .tokens import string_lexeme

INDENT = "    "

# Constructs whose statement-level calls lay out one argument per line.
EXPANDABLE = frozenset({"IMPLIES", "OR", "AND"})


@dataclass(eq=False, repr=False, slots=True)
class Unit(Record):
    """One canonical line. Its text is ``head``, or ``head``, the expression
    and ``tail``, and is formatted only when read. A line with a ``kind``
    carries program logic and is one of the EMR's units; structural lines
    (braces, closing parentheses) have none."""

    line: int  # line number in the canonical text (1-based)
    index: int  # 1-based position among the EMR's units; 0 on a structural line
    indent: int
    head: str
    expr: Expr | None = None
    tail: str = ""
    kind: str | None = None  # for | if | continue | var | expr | opener | arg | operand
    owner: Node | None = None  # the node whose explanation the line prints

    @property
    def text(self) -> str:
        if self.expr is None:
            return self.head
        return self.head + format_expr(self.expr) + self.tail

    @property
    def explanation(self) -> str | None:
        return None if self.owner is None else self.owner.explanation

    @property
    def is_complex(self) -> bool:
        """Complex: the line calls a function or method that is not a
        construct; Simple: constructs, literals and identifiers only."""
        stack = [] if self.expr is None else [self.expr]
        while stack:
            e = stack.pop()
            if isinstance(e, Call):
                if e.name not in CONSTRUCTS:
                    return True
                stack += e.args
            elif isinstance(e, MethodCall):
                return True
            elif isinstance(e, Not):
                stack.append(e.operand)
            elif isinstance(e, BoolChain):
                stack += e.operands
        return False


def format_expr(e: Expr) -> str:
    """Single-line rendering of an expression."""
    # By exact class (no AST class is subclassed), the bundled EMRs' most frequent first.
    kind = type(e)
    if kind is Call:
        return f"{e.name}({', '.join(format_expr(a) for a in e.args)})"
    if kind is Name:
        return e.ident
    if kind is IntLit:
        return str(e.value)
    if kind is MethodCall:
        receiver = format_expr(e.receiver)
        if type(e.receiver) in (BoolChain, Not):
            receiver = f"({receiver})"
        return f"{receiver}.{e.name}({', '.join(format_expr(a) for a in e.args)})"
    if kind is BoolLit:
        return "true" if e.value else "false"
    if kind is Not:
        operand = format_expr(e.operand)
        if type(e.operand) is BoolChain:
            operand = f"({operand})"
        return f"!{operand}"
    if kind is StringLit:
        return string_lexeme(e.value)
    # A BoolChain. Nested chains always get parentheses: the parser flattens
    # runs of one operator, so only a parenthesized nesting survives a round trip.
    parts = []
    for op in e.operands:
        text = format_expr(op)
        if type(op) is BoolChain:
            text = f"({text})"
        parts.append(text)
    return f" {e.op} ".join(parts)


class _Layout:
    def __init__(self) -> None:
        self.lines: list[Unit] = []
        self.units = 0

    def emit(
        self,
        indent: int,
        head: str,
        expr: Expr | None = None,
        tail: str = "",
        kind: str | None = None,
        owner: Node | None = None,
    ) -> None:
        index = 0
        if kind is not None:
            self.units = index = self.units + 1
        self.lines.append(Unit(len(self.lines) + 1, index, indent, head, expr, tail, kind, owner))

    def walk(self, ast: EmrAst) -> list[Unit]:
        self.emit(0, "MR {{")
        for st in ast.statements:
            self.statement(st, 1)
        self.emit(0, "}}")
        return self.lines

    def statement(self, st: Stmt, d: int) -> None:
        if isinstance(st, ForEach):
            self.emit(d, f"for ({st.decl_type} {st.var} : ", st.iterable, ") {", "for", st)
            for inner in st.body:
                self.statement(inner, d + 1)
            self.emit(d, "}")
        elif isinstance(st, If):
            if len(st.body) == 1 and isinstance(st.body[0], Continue):
                self.emit(d, "if (", st.cond, ") continue;", "if", st.body[0])
            else:
                self.emit(d, "if (", st.cond, ") {", "if", st)
                for inner in st.body:
                    self.statement(inner, d + 1)
                self.emit(d, "}")
        elif isinstance(st, Continue):
            self.emit(d, "continue;", kind="continue", owner=st)
        elif isinstance(st, VarDecl):
            self.emit(d, f"var {st.name} = ", st.init, ";", "var", st)
        elif isinstance(st.expr, Call) and st.expr.name in EXPANDABLE:  # an ExprStmt
            self.expanded_call(st.expr, d, ";", st)
        else:
            self.emit(d, "", st.expr, ";", "expr", st)

    def expanded_call(self, call: Call, d: int, terminator: str, closer: Node | None) -> None:
        self.emit(d, f"{call.name}(", kind="opener", owner=call)
        for i, arg in enumerate(call.args):
            suffix = "," if i < len(call.args) - 1 else ""
            self.argument(arg, d + 1, suffix)
        self.emit(d, f"){terminator}", owner=closer)

    def argument(self, arg: Expr, d: int, suffix: str) -> None:
        if isinstance(arg, Call) and arg.name in EXPANDABLE:
            self.expanded_call(arg, d, suffix, None)
        elif isinstance(arg, BoolChain):
            last = len(arg.operands) - 1
            for i, op in enumerate(arg.operands):
                tail = suffix if i == last else f" {arg.op}"
                if isinstance(op, BoolChain):
                    self.emit(d, "(", op, f"){tail}", "operand", op)
                else:
                    self.emit(d, "", op, tail, "operand", op)
        else:
            self.emit(d, "", arg, suffix, "arg", arg)


def layout(ast: EmrAst) -> list[Unit]:
    """The canonical lines of ``ast``, each with its number, owner and unit
    kind; a line's text is formatted only when it is read."""
    return _Layout().walk(ast)


def pretty_print(ast: EmrAst) -> str:
    """Deterministic canonical text; two prints of equal ASTs are identical."""
    out = []
    for line in layout(ast):
        text = INDENT * line.indent + line.text
        if line.explanation is not None:
            text += f" //{line.explanation}"
        out.append(text)
    return "\n".join(out)


def canonical_units(ast: EmrAst) -> list[Unit]:
    """The EMR's statements in canonical enumeration order: its
    logic-bearing canonical lines. Size statistics, Simple/Complex
    classification, and annotation line keys all derive from this list."""
    return [line for line in layout(ast) if line.kind is not None]
