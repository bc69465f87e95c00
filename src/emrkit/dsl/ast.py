"""AST for the EMR DSL.

Every node is one slotted object. It holds two source offsets, ``start``
and ``end``, and ``lines``, the source's table of line starts; its line
number is resolved from the table when read. Offsets never take part in
node equality, so two parses of the same program compare equal even when
the layout differs. Explanations (trailing ``//`` comments) do compare:
the canonical printer re-emits them, which is what makes the parse/print
round trip lossless for annotated programs.
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


@dataclass(eq=False, repr=False, slots=True)
class Node(Record):
    """Base of every AST node: its source span, which no comparison reads, and its ``explanation``.

    The span runs from offset ``start`` to ``end`` of a source whose line
    starts are ``lines``; a node built without them spans 0 to 0.
    """

    lines: Sequence[int] = field(default=(), compare=False, repr=False, kw_only=True)
    start: int = field(default=0, compare=False, kw_only=True)
    end: int = field(default=0, compare=False, kw_only=True)
    explanation: str | None = field(default=None, kw_only=True)

    # A line is the number of line starts at or before ``start``, as in
    # ``tokens.position``: one bisect, 0 without a table. It is looked up
    # when read, since most nodes' lines never are; diagnostics and
    # compiled checks read it.
    @property
    def line(self) -> int:
        return bisect_right(self.lines, self.start)


# --- expressions ------------------------------------------------------------


@dataclass(eq=False, repr=False, slots=True)
class IntLit(Node):
    """An integer literal."""

    value: int = 0


@dataclass(eq=False, repr=False, slots=True)
class StringLit(Node):
    """A string literal."""

    value: str = ""


@dataclass(eq=False, repr=False, slots=True)
class BoolLit(Node):
    """``true`` or ``false``."""

    value: bool = False


@dataclass(eq=False, repr=False, slots=True)
class Name(Node):
    """A read of a variable."""

    ident: str = ""


@dataclass(eq=False, repr=False, slots=True)
class Call(Node):
    """Free function call; covers both DSL constructs and SUT/stub functions."""

    name: str = ""
    args: tuple["Expr", ...] = ()


@dataclass(eq=False, repr=False, slots=True)
class MethodCall(Node):
    """A method call on a value: ``receiver.name(args)``."""

    receiver: "Expr" = None  # type: ignore[assignment]
    name: str = ""
    args: tuple["Expr", ...] = ()


@dataclass(eq=False, repr=False, slots=True)
class Not(Node):
    """Prefix negation: ``!operand``."""

    operand: "Expr" = None  # type: ignore[assignment]


@dataclass(eq=False, repr=False, slots=True)
class BoolChain(Node):
    """Flattened infix chain: ``a && b && c`` or ``a || b``."""

    op: str = "&&"  # "&&" | "||"
    operands: tuple["Expr", ...] = ()


Expr = Union[IntLit, StringLit, BoolLit, Name, Call, MethodCall, Not, BoolChain]


# --- statements ---------------------------------------------------------------


@dataclass(eq=False, repr=False, slots=True)
class ForEach(Node):
    """``for (decl_type var : iterable) { body }``."""

    decl_type: str = "var"  # "var" or a type name such as "Action"
    var: str = ""
    iterable: Expr = None  # type: ignore[assignment]
    body: tuple["Stmt", ...] = ()


@dataclass(eq=False, repr=False, slots=True)
class If(Node):
    """``if (cond) { body }``; the DSL has no ``else``."""

    cond: Expr = None  # type: ignore[assignment]
    body: tuple["Stmt", ...] = ()


@dataclass(eq=False, repr=False, slots=True)
class Continue(Node):
    """``continue;``, which skips the rest of a loop body."""


@dataclass(eq=False, repr=False, slots=True)
class VarDecl(Node):
    """A variable declaration: ``var name = init;``."""

    name: str = ""
    init: Expr = None  # type: ignore[assignment]


@dataclass(eq=False, repr=False, slots=True)
class ExprStmt(Node):
    """An expression statement, such as an ``IMPLIES`` check."""

    expr: Expr = None  # type: ignore[assignment]


Stmt = Union[ForEach, If, Continue, VarDecl, ExprStmt]


@dataclass(eq=False, repr=False, slots=True)
class EmrAst(Record):
    """A parsed EMR: its id and its top-level statements."""

    id: str
    statements: tuple[Stmt, ...]
