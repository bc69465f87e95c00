"""AST for the EMR DSL.

Position fields never take part in equality, so two parses of the same
program compare equal even when the layout differs. Explanations (trailing
``//`` comments) do compare: the canonical printer re-emits them, which is
what makes the parse/print round trip lossless for annotated programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

CONSTRUCTS = frozenset({"Input", "Output", "CREATE", "IMPLIES", "NOT", "OR", "AND"})

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


@dataclass
class Position:
    line: int = 0
    column: int = 0
    end_line: int = 0
    end_column: int = 0


def _pos() -> Position:
    return Position()


@dataclass
class Node:
    pos: Position = field(default_factory=_pos, compare=False, kw_only=True)
    explanation: str | None = field(default=None, kw_only=True)

    @property
    def line(self) -> int:
        return self.pos.line


# --- expressions ------------------------------------------------------------


@dataclass
class IntLit(Node):
    value: int = 0


@dataclass
class StringLit(Node):
    value: str = ""


@dataclass
class BoolLit(Node):
    value: bool = False


@dataclass
class Name(Node):
    ident: str = ""


@dataclass
class Call(Node):
    """Free function call; covers both DSL constructs and SUT/stub functions."""

    name: str = ""
    args: tuple["Expr", ...] = ()

    @property
    def is_construct(self) -> bool:
        return self.name in CONSTRUCTS


@dataclass
class MethodCall(Node):
    receiver: "Expr" = None  # type: ignore[assignment]
    name: str = ""
    args: tuple["Expr", ...] = ()


@dataclass
class Not(Node):
    operand: "Expr" = None  # type: ignore[assignment]


@dataclass
class BoolChain(Node):
    """Flattened infix chain: ``a && b && c`` or ``a || b``."""

    op: str = "&&"  # "&&" | "||"
    operands: tuple["Expr", ...] = ()


Expr = Union[IntLit, StringLit, BoolLit, Name, Call, MethodCall, Not, BoolChain]


# --- statements ---------------------------------------------------------------


@dataclass
class ForEach(Node):
    decl_type: str = "var"  # "var" or a type name such as "Action"
    var: str = ""
    iterable: Expr = None  # type: ignore[assignment]
    body: tuple["Stmt", ...] = ()


@dataclass
class If(Node):
    cond: Expr = None  # type: ignore[assignment]
    body: tuple["Stmt", ...] = ()


@dataclass
class Continue(Node):
    pass


@dataclass
class VarDecl(Node):
    name: str = ""
    init: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Node):
    expr: Expr = None  # type: ignore[assignment]


Stmt = Union[ForEach, If, Continue, VarDecl, ExprStmt]


@dataclass
class EmrAst:
    id: str
    statements: tuple[Stmt, ...]
    source_span: tuple[int, int] = field(default=(0, 0), compare=False)


def structurally_equal(a: EmrAst, b: EmrAst) -> bool:
    """Equality over structure and explanations, ignoring ids and positions."""
    return a.statements == b.statements


def walk_exprs(node: Expr) -> Iterator[Expr]:
    yield node
    if isinstance(node, Call):
        for a in node.args:
            yield from walk_exprs(a)
    elif isinstance(node, MethodCall):
        yield from walk_exprs(node.receiver)
        for a in node.args:
            yield from walk_exprs(a)
    elif isinstance(node, Not):
        yield from walk_exprs(node.operand)
    elif isinstance(node, BoolChain):
        for o in node.operands:
            yield from walk_exprs(o)


def called_non_construct_names(exprs: tuple[Expr, ...]) -> list[str]:
    """Names of free-function and method calls that are not DSL constructs."""
    names: list[str] = []
    for root in exprs:
        for e in walk_exprs(root):
            if isinstance(e, Call) and not e.is_construct:
                names.append(e.name)
            elif isinstance(e, MethodCall):
                names.append(e.name)
    return names
