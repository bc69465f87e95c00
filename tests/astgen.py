"""Seeded random generator for EMR programs, used by round-trip properties."""

from __future__ import annotations

import random

from emrkit.dsl import tokenize
from emrkit.dsl.ast import (
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
    Not,
    Stmt,
    StringLit,
    VarDecl,
)

NAMES = ("alpha", "beta", "gamma", "delta", "results", "probe", "flagged", "item")
FUNCS = ("checkState", "applyFilter", "fewerResults", "lookupUser", "countItems")
METHODS = ("actions", "getPosition", "getKind", "size")
STRINGS = ("", "chair", "a b", 'quo"te', "back\\slash", "category")
EXPLANATIONS = ("(1)", "iterate the inputs", "guard clause", "compare outputs")


class ProgramGen:
    def __init__(self, seed: int, explanations: bool = True):
        self.rng = random.Random(seed)
        self.explanations = explanations

    def maybe_explain(self, node) -> None:
        if self.explanations and self.rng.random() < 0.3:
            node.explanation = self.rng.choice(EXPLANATIONS)

    def expr(self, depth: int) -> Expr:
        choices = ["int", "str", "bool", "name"]
        if depth > 0:
            choices += ["call", "construct", "method", "not", "chain"]
        kind = self.rng.choice(choices)
        if kind == "int":
            return IntLit(self.rng.randint(0, 99))
        if kind == "str":
            return StringLit(self.rng.choice(STRINGS))
        if kind == "bool":
            return BoolLit(self.rng.random() < 0.5)
        if kind == "name":
            return Name(self.rng.choice(NAMES))
        if kind == "call":
            args = tuple(self.expr(depth - 1) for _ in range(self.rng.randint(0, 3)))
            return Call(self.rng.choice(FUNCS), args)
        if kind == "construct":
            which = self.rng.choice(("Input", "Output", "CREATE", "IMPLIES", "NOT", "OR", "AND"))
            if which == "Input":
                return Call("Input", (IntLit(self.rng.randint(1, 3)),))
            if which == "Output":
                if self.rng.random() < 0.5:
                    return Call("Output", (IntLit(self.rng.randint(1, 3)),))
                return Call(
                    "Output",
                    (Call("Input", (IntLit(self.rng.randint(1, 3)),)), self.expr(depth - 1)),
                )
            if which == "CREATE":
                return Call(
                    "CREATE",
                    (Call("Input", (IntLit(self.rng.randint(2, 4)),)), self.expr(depth - 1)),
                )
            if which == "NOT":
                return Call("NOT", (self.expr(depth - 1),))
            return Call(which, (self.expr(depth - 1), self.expr(depth - 1)))
        if kind == "method":
            receiver = self.rng.choice(
                [Name(self.rng.choice(NAMES)), Call("Input", (IntLit(1),))]
            )
            args = tuple(self.expr(depth - 1) for _ in range(self.rng.randint(0, 2)))
            return MethodCall(receiver, self.rng.choice(METHODS), args)
        if kind == "not":
            return Not(self.expr(depth - 1))
        operands = tuple(self.non_chain_expr(depth - 1) for _ in range(self.rng.randint(2, 3)))
        return BoolChain(self.rng.choice(("&&", "||")), operands)

    def non_chain_expr(self, depth: int) -> Expr:
        e = self.expr(depth)
        while isinstance(e, BoolChain):
            e = self.expr(depth)
        return e

    def stmt(self, depth: int, in_loop: bool) -> Stmt:
        choices = ["var", "expr"]
        if depth > 0:
            choices += ["for", "if"]
        if in_loop:
            choices.append("continue")
        kind = self.rng.choice(choices)
        node: Stmt
        if kind == "var":
            node = VarDecl(self.rng.choice(NAMES), self.expr(depth))
        elif kind == "expr":
            node = ExprStmt(self.expr(depth))
        elif kind == "for":
            body = tuple(self.stmt(depth - 1, True) for _ in range(self.rng.randint(1, 3)))
            decl = self.rng.choice(("var", "Action"))
            node = ForEach(decl, self.rng.choice(NAMES), self.expr(depth - 1), body)
        elif kind == "if":
            if in_loop and self.rng.random() < 0.4:
                body: tuple[Stmt, ...] = (Continue(),)
            else:
                body = tuple(self.stmt(depth - 1, in_loop) for _ in range(self.rng.randint(1, 2)))
            node = If(self.expr(depth - 1), body)
        else:
            node = Continue()
        self.maybe_explain(node)
        return node

    def program(self) -> EmrAst:
        stmts = tuple(self.stmt(2, False) for _ in range(self.rng.randint(0, 5)))
        return EmrAst("generated", stmts)


def messy_render(source: str, seed: int) -> str:
    """Re-render a program with randomized whitespace between tokens.

    Comments are dropped first (a comment would swallow whatever follows it
    on the line), so this exercises layout-independence of the grammar.
    """
    rng = random.Random(seed)
    tokens = [t for t in tokenize(source) if t.kind not in ("comment", "eof")]
    pieces = []
    for token in tokens:
        pieces.append(rng.choice([" ", "  ", "\n", "\n\t", " \n  "]))
        pieces.append(token.lexeme)
    return "".join(pieces)


def scatter_comments(source: str, seed: int) -> str:
    """Place comments where the canonical layout would not.

    Every inline ``if (...) continue;`` guard breaks after its condition
    with a comment there, and random lines without a comment gain one.
    """
    rng = random.Random(seed)
    lines = []
    for line in source.split("\n"):
        if "//" not in line and rng.random() < 0.3:
            line += f" // note {rng.randint(0, 9)}"
        lines.append(line.replace(") continue;", ") // why\ncontinue;"))
    return "\n".join(lines)


def long_emr(n: int, comments: bool = True) -> str:
    """An EMR of ``n`` one-line statements, each with a distinct trailing
    comment when ``comments`` is set: declarations, calls, expanded IMPLIES
    with an ``&&`` operand, and loops whose header and body both carry one."""
    shapes = (
        "var v{i} = count(Input(1), {i});{c}",
        "same{i}(Output(1), Output(Input(2), {i}));{c}",
        "IMPLIES(pre{i}() && more(), post{i}(v{i}));{c}",
        "for (var a{i} : Input(1).actions()) {{{c}\n    if (!touch(a{i})) continue;{d}\n}}",
    )
    lines = ["MR {{"]
    for i in range(n):
        note = f" // note {i}" if comments else ""
        lines.append(shapes[i % len(shapes)].format(i=i, c=note, d=note and note + "b"))
    lines.append("}}")
    return "\n".join(lines)
