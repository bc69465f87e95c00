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
of a canonical line, so parse -> print -> parse keeps every explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    called_non_construct_names,
)
from .tokens import string_lexeme

INDENT = "    "

# Constructs whose statement-level calls lay out one argument per line.
EXPANDABLE = frozenset({"IMPLIES", "OR", "AND"})


@dataclass
class Unit:
    """One annotatable line of the canonical form."""

    index: int  # 1-based position within the EMR
    line: int  # line number in the canonical text (1-based)
    text: str  # canonical line content, without indentation
    kind: str  # for | if | continue | var | expr | opener | arg | operand
    exprs: tuple[Expr, ...]
    explanation: str | None

    @property
    def is_complex(self) -> bool:
        return bool(called_non_construct_names(self.exprs))


@dataclass
class _Line:
    """One canonical line: its text is ``head``, or ``head``, the expression
    and ``tail``, and is formatted only when read."""

    indent: int
    head: str
    expr: Expr | None = None
    tail: str = ""
    unit_kind: str | None = None
    owner: Node | None = None  # the node whose explanation the line prints

    @property
    def text(self) -> str:
        if self.expr is None:
            return self.head
        return self.head + format_expr(self.expr) + self.tail

    @property
    def unit_exprs(self) -> tuple[Expr, ...]:
        return () if self.expr is None else (self.expr,)

    @property
    def explanation(self) -> str | None:
        return None if self.owner is None else self.owner.explanation


def format_expr(e: Expr) -> str:
    """Single-line rendering of an expression."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StringLit):
        return string_lexeme(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Not):
        operand = format_expr(e.operand)
        if isinstance(e.operand, BoolChain):
            operand = f"({operand})"
        return f"!{operand}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, MethodCall):
        receiver = format_expr(e.receiver)
        if isinstance(e.receiver, (BoolChain, Not)):
            receiver = f"({receiver})"
        return f"{receiver}.{e.name}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, BoolChain):
        # Nested chains always get parentheses: the parser flattens runs of
        # one operator, so only a parenthesized nesting survives a round trip.
        parts = []
        for op in e.operands:
            text = format_expr(op)
            if isinstance(op, BoolChain):
                text = f"({text})"
            parts.append(text)
        return f" {e.op} ".join(parts)
    raise TypeError(f"unknown expression node: {e!r}")


class _Layout:
    def __init__(self) -> None:
        self.lines: list[_Line] = []

    def emit(
        self,
        indent: int,
        head: str,
        expr: Expr | None = None,
        tail: str = "",
        kind: str | None = None,
        owner: Node | None = None,
    ) -> None:
        self.lines.append(_Line(indent, head, expr, tail, kind, owner))

    def walk(self, ast: EmrAst) -> list[_Line]:
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
        elif isinstance(st, ExprStmt):
            if isinstance(st.expr, Call) and st.expr.name in EXPANDABLE:
                self.expanded_call(st.expr, d, ";", st)
            else:
                self.emit(d, "", st.expr, ";", "expr", st)
        else:
            raise TypeError(f"unknown statement node: {st!r}")

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


def layout(ast: EmrAst) -> list[_Line]:
    """The canonical lines of ``ast``, each with its owner and unit kind; a
    line's text is formatted only when it is read."""
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
    """The EMR's statements in canonical enumeration order.

    One Unit per logic-bearing canonical line; structural lines (braces,
    closing parentheses) carry no unit. Size statistics, Simple/Complex
    classification, and annotation line keys all derive from this list.
    """
    units: list[Unit] = []
    for line_no, line in enumerate(layout(ast), start=1):
        if line.unit_kind is None:
            continue
        units.append(
            Unit(
                index=len(units) + 1,
                line=line_no,
                text=line.text,
                kind=line.unit_kind,
                exprs=line.unit_exprs,
                explanation=line.explanation,
            )
        )
    return units
