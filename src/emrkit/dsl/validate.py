"""Semantic validation of EMR ASTs against an API catalog.

Construct misuse (arity, obviously non-boolean operands) is an error.
Calls to functions known neither as constructs nor in the catalog are
*stubs*, not errors: the EMR is still well-formed, it just needs those
functions bound before it can run. Method names outside the runtime's
methods (``ast.METHOD_ARITY``) are warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .._record import Record
from .ast import (
    BoolChain,
    BoolLit,
    Call,
    Continue,
    CONSTRUCT_ARITY,
    CONSTRUCTS,
    EmrAst,
    Expr,
    ExprStmt,
    ForEach,
    If,
    IntLit,
    METHOD_ARITY,
    MethodCall,
    Not,
    Stmt,
    StringLit,
    VarDecl,
)

if TYPE_CHECKING:
    from ..sut.catalog import ApiCatalog


@dataclass(eq=False, repr=False)
class Diagnostic(Record):
    """One finding of ``validate``: severity, message, line and the symbol it is about, if any."""

    severity: str  # "error" | "warning" | "stub"
    message: str
    line: int
    symbol: str | None = None

    def to_json(self) -> dict:
        out = {"severity": self.severity, "line": self.line, "message": self.message}
        if self.symbol is not None:
            out["symbol"] = self.symbol
        return out


def _is_input(e: Expr) -> bool:
    """Whether ``e`` names an input, as a ``CREATE`` target and the first
    argument of a two-argument ``Output`` must: an ``Input(...)`` call."""
    return type(e) is Call and e.name == "Input"


def validate(ast: EmrAst, catalog: "ApiCatalog | None" = None) -> list[Diagnostic]:
    """Check constructs and resolve call names; never raises.

    No diagnostics means the EMR can run without binding any stubs.
    """
    arities = {} if catalog is None else {e.name: len(e.parameters) for e in catalog.entries}
    diags: list[Diagnostic] = []
    seen_stubs: set[str] = set()

    def boolean_position(e: Expr, context: str) -> None:
        if isinstance(e, (IntLit, StringLit)):
            diags.append(Diagnostic("error", f"{context} must be a boolean expression", e.line))

    def integer_position(e: Expr, context: str) -> None:
        if isinstance(e, (StringLit, BoolLit)):
            diags.append(Diagnostic("error", f"{context} must be an integer", e.line))

    def check_construct(call: Call) -> None:
        accepted = CONSTRUCT_ARITY[call.name]
        if len(call.args) not in accepted:
            expected = " or ".join(str(a) for a in accepted)
            plural = "s" if accepted != (1,) else ""
            diags.append(Diagnostic("error", f"{call.name} expects {expected} argument{plural}", call.line, call.name))
            return
        if call.name == "Input":
            integer_position(call.args[0], "Input index")
        elif call.name == "Output":
            if len(call.args) == 1:
                integer_position(call.args[0], "Output index")
            else:
                integer_position(call.args[1], "Output position")
                if not _is_input(call.args[0]):
                    message = "Output sequence must be an Input(i) expression"
                    diags.append(Diagnostic("error", message, call.line, "Output"))
        elif call.name == "CREATE":
            if not _is_input(call.args[0]):
                diags.append(Diagnostic("error", "CREATE target must be an Input(k) expression", call.line, "CREATE"))
        elif call.name in ("IMPLIES", "OR", "AND"):
            for arg in call.args:
                boolean_position(arg, f"{call.name} operand")
        elif call.name == "NOT":
            boolean_position(call.args[0], "NOT operand")

    def check_expr(root: Expr) -> None:
        # The nodes of ``root`` in pre-order, from one explicit stack. Nodes
        # are told apart by their exact class (no AST class is subclassed),
        # and a Diagnostic is built without a keyword argument, which a class
        # call would pass through a dict.
        stack = [root]
        pop, push = stack.pop, stack.extend
        while stack:
            e = pop()
            kind = type(e)
            if kind is Call:
                name = e.name
                if name in CONSTRUCTS:
                    check_construct(e)
                elif name in arities:
                    if len(e.args) != arities[name]:
                        message = f"{name} expects {arities[name]} argument(s), got {len(e.args)}"
                        diags.append(Diagnostic("error", message, e.line, name))
                elif name not in seen_stubs:
                    seen_stubs.add(name)
                    message = f"unresolved function '{name}'; bind it or add it to the API catalog"
                    diags.append(Diagnostic("stub", message, e.line, name))
                push(reversed(e.args))
            elif kind is MethodCall:
                if e.name not in METHOD_ARITY:
                    message = f"method '{e.name}' is not provided by the runtime"
                    diags.append(Diagnostic("warning", message, e.line, e.name))
                push(reversed(e.args))
                stack.append(e.receiver)
            elif kind is Not:
                boolean_position(e.operand, "'!' operand")
                stack.append(e.operand)
            elif kind is BoolChain:
                for op in e.operands:
                    boolean_position(op, f"'{e.op}' operand")
                push(reversed(e.operands))

    _check_stmts(ast.statements, False, check_expr, boolean_position, diags)
    return diags


# A module-level function, not a nested one: a nested function that calls
# itself holds itself, and each ``validate`` would leave a reference cycle.
def _check_stmts(stmts: tuple[Stmt, ...], in_loop: bool, check_expr: Callable[[Expr], None],
                 boolean_position: Callable[[Expr, str], None], diags: list[Diagnostic]) -> None:
    for st in stmts:
        if isinstance(st, ForEach):
            check_expr(st.iterable)
            _check_stmts(st.body, True, check_expr, boolean_position, diags)
        elif isinstance(st, If):
            boolean_position(st.cond, "if condition")
            check_expr(st.cond)
            _check_stmts(st.body, in_loop, check_expr, boolean_position, diags)
        elif isinstance(st, Continue):
            if not in_loop:
                diags.append(Diagnostic("error", "continue outside of a loop", st.line))
        elif isinstance(st, VarDecl):
            check_expr(st.init)
        elif isinstance(st, ExprStmt):
            check_expr(st.expr)


def stub_names(diags: list[Diagnostic]) -> list[str]:
    return [d.symbol for d in diags if d.severity == "stub" and d.symbol]


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)
