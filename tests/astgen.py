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
from emrkit.shopstubs import FILTER_SETTINGS

NAMES = ("alpha", "beta", "gamma", "delta", "results", "probe", "flagged", "item")
FUNCS = ("checkState", "applyFilter", "fewerResults", "lookupUser", "countItems")
METHODS = ("actions", "getPosition", "getKind", "size")
STRINGS = ("", "chair", "a b", 'quo"te', "back\\slash", "category")
EXPLANATIONS = ("(1)", "iterate the inputs", "guard clause", "compare outputs")


# The kinds of value a typed program's expressions have; a loop binds an action.
KINDS = ("boolean", "boolean", "integer", "sequence", "output", "string")
# The functions the typed mode calls in a boolean position, and the argument
# kinds of the one the shop's stubs bind. ``applyFilter`` returns a sequence,
# so the typed mode calls it only as a ``CREATE`` source (``filtered``).
BOOLEAN_FUNCS = ("checkState", "fewerResults", "lookupUser", "countItems")
STUB_ARGS = {"fewerResults": ("output", "output")}


class ProgramGen:
    """Random EMR programs.

    The untyped mode draws any expression anywhere, so about half of its
    programs fail ``validate``; its output for a seed is pinned by the
    front-end digests, so it must not change. The typed mode puts a boolean
    expression in every boolean position, an integer in every index, an
    input sequence where ``CREATE``, ``Output`` and a loop take one, and
    calls each runtime method with its arity. It reads a name only where a
    declaration or a loop in scope bound it to a value of the kind wanted,
    reads a literal ``Input(k)`` or ``Output(k)`` only for ``k`` = 1 or a
    ``k`` that an earlier statement in scope ``CREATE``s, gives the bound
    shop stubs arguments of the kinds they take, and calls an unbound
    function rarely, so its programs pass ``validate`` and most of their
    pairs run.
    """

    def __init__(self, seed: int, explanations: bool = True, typed: bool = False):
        self.rng = random.Random(seed)
        self.explanations = explanations
        self.typed = typed
        self.bound: dict[str, str] = {}  # typed mode: name in scope -> the kind of its value
        self.created = {1}  # typed mode: the indices earlier statements in scope CREATE
        self.creating: set[int] = set()  # typed mode: those the current statement CREATEs

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
        if self.typed:
            return self.typed_stmt(depth, in_loop)
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

    # -- the typed mode ----------------------------------------------------

    def typed_stmt(self, depth: int, in_loop: bool) -> Stmt:
        choices = ["var", "check", "check"] + ["for", "if"] * (depth > 0) + ["continue"] * in_loop
        kind = self.rng.choice(choices)
        node: Stmt
        if kind == "var":
            value_kind = self.rng.choice(KINDS)
            init, name = self.of_kind(value_kind, depth), self.rng.choice(NAMES)
            self.bound[name] = value_kind
            node = VarDecl(name, init)
        elif kind == "check":
            node = ExprStmt(self.check(depth))
        elif kind == "for":
            iterable, var, outer = self.iterable(), self.rng.choice(NAMES), (dict(self.bound), set(self.created))
            self.bound[var] = "action"
            body = tuple(self.typed_stmt(depth - 1, True) for _ in range(self.rng.randint(1, 3)))
            self.bound, self.created = outer
            node = ForEach(self.rng.choice(("var", "Action")), var, iterable, body)
        elif kind == "if":
            cond, outer = self.boolean(depth - 1), (dict(self.bound), set(self.created))
            if in_loop and self.rng.random() < 0.4:
                body: tuple[Stmt, ...] = (Continue(),)
            else:
                body = tuple(self.typed_stmt(depth - 1, in_loop) for _ in range(self.rng.randint(1, 2)))
            # A declaration or CREATE in the body holds only if the body ran.
            self.bound, self.created = outer
            node = If(cond, body)
        else:
            node = Continue()
        self.created |= self.creating
        self.creating = set()
        self.maybe_explain(node)
        return node

    def check(self, depth: int) -> Expr:
        """A statement's expression: mostly an IMPLIES check, as EMRs state them."""
        if self.rng.random() < 0.6:
            return Call("IMPLIES", (self.boolean(depth), self.boolean(depth)))
        return self.of_kind(self.rng.choice(KINDS), depth)

    def of_kind(self, kind: str, depth: int) -> Expr:
        if kind == "boolean":
            return self.boolean(depth)
        if kind == "integer":
            return self.integer()
        if kind == "sequence":
            return self.sequence()
        if kind == "output":
            return self.output()
        return StringLit(self.rng.choice(STRINGS))

    def named(self, kind: str) -> Name | None:
        """A name bound to a value of ``kind``, when one is in scope and drawn."""
        names = [name for name, bound in self.bound.items() if bound == kind]
        if names and self.rng.random() < 0.7:
            return Name(self.rng.choice(names))
        return None

    def boolean(self, depth: int, chain: bool = True) -> Expr:
        choices = ["literal", "name"]
        if depth > 0:
            choices += ["not", "construct", "construct", "create"] + ["chain"] * chain
            choices += ["call"] * (self.rng.random() < 0.1)
        kind = self.rng.choice(choices)
        if kind == "name":
            name = self.named("boolean")
            if name is not None:
                return name
        if kind in ("literal", "name"):
            return BoolLit(self.rng.random() < 0.7)
        if kind == "not":
            return Not(self.boolean(depth - 1, chain=False))
        if kind == "construct":
            which = self.rng.choice(("IMPLIES", "NOT", "OR", "AND"))
            return Call(which, tuple(self.boolean(depth - 1) for _ in range(1 if which == "NOT" else 2)))
        if kind == "create":
            k = self.rng.randint(2, 3)
            self.creating.add(k)
            source = self.sequence() if self.rng.random() < 0.7 else self.filtered()
            return Call("CREATE", (Call("Input", (IntLit(k),)), source))
        if kind == "call":
            name = self.rng.choice(BOOLEAN_FUNCS)
            kinds = STUB_ARGS.get(name) or [self.rng.choice(KINDS) for _ in range(self.rng.randint(0, 2))]
            return Call(name, tuple(self.of_kind(kind, depth - 1) for kind in kinds))
        operands = tuple(self.boolean(depth - 1, chain=False) for _ in range(self.rng.randint(2, 3)))
        return BoolChain(self.rng.choice(("&&", "||")), operands)

    def integer(self) -> Expr:
        kind = self.rng.choice(("literal", "literal", "name", "position"))
        name = self.named("integer" if kind == "name" else "action") if kind != "literal" else None
        if name is None:
            return IntLit(self.rng.randint(0, 3))
        return name if kind == "name" else MethodCall(name, "getPosition", ())

    def index(self) -> Expr:
        """An ``Input`` or ``Output`` index; a literal one is 1 or an index an earlier statement ``CREATE``s."""
        index = self.integer()
        return IntLit(self.rng.choice(sorted(self.created))) if isinstance(index, IntLit) else index

    def sequence(self) -> Expr:
        kind = self.rng.choice(("first", "first", "index", "name"))
        name = self.named("sequence") if kind == "name" else None
        if name is not None:
            return name
        return Call("Input", (IntLit(1) if kind != "index" else self.index(),))

    def filtered(self) -> Expr:
        """The bound ``applyFilter`` stub: a sequence, a position and a filter type."""
        filter_type = StringLit(self.rng.choice(list(FILTER_SETTINGS)))
        return Call("applyFilter", (self.sequence(), self.integer(), filter_type))

    def output(self) -> Expr:
        if self.rng.random() < 0.3:
            return Call("Output", (self.index(),))
        # Output's first argument must be an ``Input(i)`` call, so a name the
        # draw gives becomes Input(1); the draws stay those of ``sequence``.
        sequence = self.sequence()
        if type(sequence) is Name:
            sequence = Call("Input", (IntLit(1),))
        return Call("Output", (sequence, self.integer()))

    def iterable(self) -> Expr:
        sequence = self.sequence()
        return MethodCall(sequence, "actions", ()) if self.rng.random() < 0.7 else sequence

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


def split_calls(source: str, seed: int) -> str:
    """Re-render a program with some call names apart from their ``(``.

    Comments are kept. Between about half of the names followed by ``(``
    and that ``(`` comes a line break, sometimes after a comment of its own.
    """
    rng = random.Random(seed)
    tokens = tokenize(source)
    pieces = []
    for token, following in zip(tokens, tokens[1:]):
        pieces += [token.leading_trivia, token.lexeme]
        if token.kind == "identifier" and following.lexeme == "(" and rng.random() < 0.5:
            pieces.append(rng.choice(["\n", "\n    ", " // split\n", "  // split\n\t"]))
    return "".join(pieces) + tokens[-1].leading_trivia


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


# Sources whose one statement nests one construct ``depth`` levels deep:
# parentheses, '!', NOT( calls, or guard bodies inside one loop body.
NESTINGS = ("paren", "bang", "not", "if")


def nested_emr(kind: str, depth: int) -> str:
    if kind == "paren":
        return "MR {{ var x = " + "(" * depth + "true" + ")" * depth + "; }}"
    if kind == "bang":
        return "MR {{ var x = " + "!" * depth + "true; }}"
    if kind == "not":
        return "MR {{ var x = " + "NOT(" * depth + "true" + ")" * depth + "; }}"
    return "MR {{ for (var a : Input(1).actions()) {" + " if (true)" * (depth - 1) + " continue; } }}"
