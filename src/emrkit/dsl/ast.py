"""AST for the EMR DSL.

A node's ``Position`` holds two source offsets and the source's table of
line starts; its line number is resolved from the table when read.
Positions never take part in node equality, so two parses of the same
program compare equal even when the layout differs. Explanations
(trailing ``//`` comments) do compare: the canonical printer re-emits them,
which is what makes the parse/print round trip lossless for annotated
programs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence, Union

from .._record import Record

# Construct name -> accepted argument counts.
CONSTRUCT_ARITY: dict[str, tuple[int, ...]] = {
    "Input": (1,),
    "Output": (1, 2),
    "CREATE": (2,),
    "IMPLIES": (2,),
    "NOT": (1,),
    "OR": (2,),
    "AND": (2,),
}
CONSTRUCTS = frozenset(CONSTRUCT_ARITY)

# Runtime method -> argument count: the methods the evaluator resolves
# natively on runtime values.
METHOD_ARITY: dict[str, int] = {"actions": 0, "getPosition": 0, "getKind": 0, "getParameter": 1}


class Position:
    """A source span: ``start`` and ``end`` offsets into a source whose
    ``line_starts`` are ``lines``. The 1-based ``line`` of ``start`` is
    looked up in ``lines`` when read, since most nodes' positions never
    are; it reads 0 without a table.
    """

    __slots__ = ("lines", "start", "end")

    def __init__(self, lines: Sequence[int] = (), start: int = 0, end: int = 0):
        self.lines, self.start, self.end = lines, start, end

    # A line is the number of line starts at or before the offset, as in
    # ``tokens.position``: one bisect, 0 without a table. ``line`` is the
    # field that diagnostics and compiled checks read.
    @property
    def line(self) -> int:
        return bisect_right(self.lines, self.start)

    def __repr__(self) -> str:
        return f"Position(start={self.start}, end={self.end})"


def _pos() -> Position:
    return Position()


@dataclass(eq=False, repr=False)
class Node(Record):
    """Base of every AST node: its ``pos``, which no comparison reads, and its ``explanation``."""

    pos: Position = field(default_factory=_pos, compare=False, kw_only=True)
    explanation: str | None = field(default=None, kw_only=True)


# --- expressions ------------------------------------------------------------


@dataclass(eq=False, repr=False)
class IntLit(Node):
    """An integer literal."""

    value: int = 0


@dataclass(eq=False, repr=False)
class StringLit(Node):
    """A string literal."""

    value: str = ""


@dataclass(eq=False, repr=False)
class BoolLit(Node):
    """``true`` or ``false``."""

    value: bool = False


@dataclass(eq=False, repr=False)
class Name(Node):
    """A read of a variable."""

    ident: str = ""


@dataclass(eq=False, repr=False)
class Call(Node):
    """Free function call; covers both DSL constructs and SUT/stub functions."""

    name: str = ""
    args: tuple["Expr", ...] = ()


@dataclass(eq=False, repr=False)
class MethodCall(Node):
    """A method call on a value: ``receiver.name(args)``."""

    receiver: "Expr" = None  # type: ignore[assignment]
    name: str = ""
    args: tuple["Expr", ...] = ()


@dataclass(eq=False, repr=False)
class Not(Node):
    """Prefix negation: ``!operand``."""

    operand: "Expr" = None  # type: ignore[assignment]


@dataclass(eq=False, repr=False)
class BoolChain(Node):
    """Flattened infix chain: ``a && b && c`` or ``a || b``."""

    op: str = "&&"  # "&&" | "||"
    operands: tuple["Expr", ...] = ()


Expr = Union[IntLit, StringLit, BoolLit, Name, Call, MethodCall, Not, BoolChain]


# --- statements ---------------------------------------------------------------


@dataclass(eq=False, repr=False)
class ForEach(Node):
    """``for (decl_type var : iterable) { body }``."""

    decl_type: str = "var"  # "var" or a type name such as "Action"
    var: str = ""
    iterable: Expr = None  # type: ignore[assignment]
    body: tuple["Stmt", ...] = ()


@dataclass(eq=False, repr=False)
class If(Node):
    """``if (cond) { body }``; the DSL has no ``else``."""

    cond: Expr = None  # type: ignore[assignment]
    body: tuple["Stmt", ...] = ()


@dataclass(eq=False, repr=False)
class Continue(Node):
    """``continue;``, which skips the rest of a loop body."""


@dataclass(eq=False, repr=False)
class VarDecl(Node):
    """A variable declaration: ``var name = init;``."""

    name: str = ""
    init: Expr = None  # type: ignore[assignment]


@dataclass(eq=False, repr=False)
class ExprStmt(Node):
    """An expression statement, such as an ``IMPLIES`` check."""

    expr: Expr = None  # type: ignore[assignment]


Stmt = Union[ForEach, If, Continue, VarDecl, ExprStmt]


@dataclass(eq=False, repr=False)
class EmrAst(Record):
    """A parsed EMR: its id and its top-level statements."""

    id: str
    statements: tuple[Stmt, ...]


def structurally_equal(a: EmrAst, b: EmrAst) -> bool:
    """Equality over structure and explanations, ignoring ids and positions."""
    return a.statements == b.statements
