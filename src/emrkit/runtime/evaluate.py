"""Evaluation semantics for EMRs.

An EMR quantifies universally over its loop bindings: the verdict is Fail
as soon as one binding makes a checked implication's antecedent true and
its consequent false, Pass when no binding fails and at least one
antecedent held, and Inapplicable when no antecedent ever held. EMRs whose
stub functions lack bindings are NotExecutable and are never run against
the SUT.

Statement semantics: ``Input(1)`` is the supplied source input, executed
against a fresh SUT session up front. ``CREATE(Input(k), e)`` registers the
sequence ``e`` as input k, executes it on a fresh session immediately (so
``Output(Input(k), pos)`` resolves later in the same expression), and
evaluates to true. An input the EMR reads back, through an ``Input(k)``
that is a value, is registered as a copy, and so is the source input. The
``Input(k)`` of a ``CREATE`` target or of ``Output(Input(k), pos)`` only
names input k and reads nothing back, so an input whose outputs alone the
EMR reads is executed as it is and never stored. Which inputs are read back
is known when compiling: the integer literals ``k`` of those reads, or every
input once such an index is not a literal. Sessions must not change the
actions they execute.

``compile_emr`` turns an EMR into one closure per AST node, once:
``run_suite`` compiles each EMR once per call and runs it on every input.
Node types, construct names and stub bindings are resolved when compiling;
each closure takes the ``Evaluator``, the state of one (EMR, input) pair.
Each entry point validates before compiling, so construct arity and that a
``CREATE`` target and ``Output``'s first argument are ``Input(...)`` calls
are not checked again here. Each index (``i`` in ``Input(i)``, ``Output(i)``
and ``Output(Input(i), pos)``, ``pos``, and ``k`` in
``CREATE(Input(k), x)``) is an expression evaluated left to right whose
value must be an integer, not a boolean. Each boolean position (the ``if`` condition, the
operands of ``!``, ``&&``, ``||``, ``NOT``, ``AND`` and ``OR``, and
``IMPLIES``'s antecedent and consequent) compiles through ``_boolean``, the
one check that a value is ``True`` or ``False``; a bare statement is a check
only when its value is a boolean. Compiling never raises what running would:
a non-integer index, an unknown method or a non-iterable loop becomes a
closure that raises its error only when reached.

Names are resolved when compiling as well. The scopes are the EMR body and
each loop body; an ``if`` body belongs to the scope around it. Each name a
scope binds, its loop variable or a ``var``, gets a fixed slot in
``Evaluator.frame``, one list per pair. A name read reads its slot in the
innermost scope that binds the name and, while that slot holds no value
yet, the slot of the next such scope outward; it raises ``unbound
identifier`` when it is reached and no slot holds a value. An iteration
writes its variable's slot and clears the other slots of its body, so a
``var`` holds for one iteration; a ``var`` writes its own slot. Each check
gets the reads of its enclosing loop variables, which its failing bindings
name, when it is compiled.

A few common shapes compile to a cheaper closure that computes exactly what
the generic one does, and every other shape takes the generic one:

- an integer literal index of ``Input``, ``Output`` or ``CREATE`` is used
  as it is, with no closure to evaluate it and no integer check;
- a method call without arguments is one closure.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Protocol

from ..dsl.ast import (
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
    METHOD_ARITY,
    MethodCall,
    Name,
    Not,
    Stmt,
    StringLit,
    VarDecl,
)
from ..dsl.validate import stub_names, validate
from .errors import EvalError
from .values import (
    _new,
    Action,
    ActionSequence,
    FailingBinding,
    Output,
    OutputSequence,
    StubBindings,
    Verdict,
    VerdictValue,
    render_value,
)


class SutSessionLike(Protocol):
    def execute(self, action: Action) -> Output: ...


SessionFactory = Callable[[], SutSessionLike]

# A compiled node: takes the pair's state and returns the node's value. A
# compiled statement returns True when it reached a ``continue``.
Compiled = Callable[["Evaluator"], Any]


def _require_int(value: Any, context: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EvalError(f"{context} must be an integer")
    return value


def _unregistered(index: int) -> EvalError:
    return EvalError(f"Input({index}) is not registered; CREATE it first")


# A frame slot whose name holds no value yet.
_UNBOUND = object()


class Evaluator:
    """The state of one (EMR, input) pair, which compiled closures read and
    update; ``frame`` holds the value of each slot that compiling gave a name."""

    def __init__(self, session_factory: SessionFactory, slots: int, reads: set[int] | None):
        self.session_factory = session_factory
        # The inputs the EMR reads back; None for every input.
        self.reads = reads
        self.inputs: dict[int, ActionSequence] = {}
        self.outputs: dict[int, OutputSequence] = {}
        self.frame: list[Any] = [_UNBOUND] * slots
        self.antecedent_held = False
        self.failures: list[FailingBinding] = []

    def record(self, line: int, held: bool, bindings: Compiled) -> None:
        """A check on ``line`` applied; a false one fails with the loop
        bindings that ``bindings`` reads."""
        self.antecedent_held = True
        if not held:
            self.failures.append(FailingBinding(line, bindings(self)))

    def register_and_execute(self, index: int, sequence: ActionSequence) -> None:
        """Execute ``sequence`` on a fresh session as input ``index``: a copy
        of it, registered too, when the EMR reads the input back, and else
        ``sequence`` itself, of which only the outputs are kept."""
        if self.reads is None or index in self.reads:
            sequence = self.inputs[index] = sequence.copy()
        session = self.session_factory()
        outputs = _new(OutputSequence)
        outputs.outputs = list(map(session.execute, sequence.actions))
        self.outputs[index] = outputs

    def input_sequence(self, index: int) -> ActionSequence:
        if index not in self.inputs:
            raise _unregistered(index)
        return self.inputs[index]

    def output_sequence(self, index: int) -> OutputSequence:
        if index not in self.outputs:
            raise _unregistered(index)
        return self.outputs[index]

    def verdict(self) -> Verdict:
        if self.failures:
            return Verdict(VerdictValue.FAIL, failing_bindings=self.failures)
        if self.antecedent_held:
            return Verdict(VerdictValue.PASS)
        return Verdict(VerdictValue.INAPPLICABLE)


def _raising(message: str) -> Compiled:
    def fail(ev: Evaluator) -> Any:
        raise EvalError(message)

    return fail


# -- names -------------------------------------------------------------------


class _Scope:
    """A scope as compiling sees it: the EMR body or one loop body. Each name
    the scope binds, its loop variable and every ``var`` in it outside a
    nested loop, has a fixed slot in the pair's frame; the slots of one scope
    are consecutive, the loop variable's first."""

    size: int  # set on the outermost scope: the slots of every scope inside it
    # Set on the outermost scope: 1 and the literal k of every ``Input(k)``
    # compiled as a value; None once an ``Input`` index is not a literal.
    reads: set[int] | None

    def __init__(self, stubs: StubBindings, names: Iterable[str], outer: _Scope | None = None,
                 loop_var: str | None = None):
        self.stubs, self.outer, self.loop_var = stubs, outer, loop_var
        # The enclosing loops' variables, outermost first.
        self.loop_vars: tuple[str, ...] = (*outer.loop_vars, loop_var) if outer else ()
        if outer is None:
            self.reads = {1}
        top = self.top
        first = top.size if outer else 0
        self.slots = {name: first + i for i, name in enumerate(dict.fromkeys(names))}
        top.size = first + len(self.slots)

    @property
    def top(self) -> _Scope:
        """The outermost scope, reached through ``outer``: a scope that held
        itself would leave a reference cycle behind every compile."""
        scope = self
        while scope.outer is not None:
            scope = scope.outer
        return scope


def _declared(stmts: tuple[Stmt, ...]) -> Iterator[str]:
    """The names that ``var`` statements in ``stmts`` declare, ``if`` bodies
    included and loop bodies not: an ``if`` body is in its enclosing scope."""
    for st in stmts:
        if isinstance(st, VarDecl):
            yield st.name
        elif isinstance(st, If):
            yield from _declared(st.body)


def _read(name: str, scope: _Scope | None) -> Compiled:
    """A read of ``name`` in ``scope``: the slot of the innermost scope that
    binds ``name`` and, while that slot is unbound (before its ``var`` runs,
    or when the ``if`` body holding the ``var`` was not taken), the next one
    outward. A read that finds no bound slot raises when it is reached."""
    while scope is not None and name not in scope.slots:
        scope = scope.outer
    if scope is None:
        return _raising(f"unbound identifier '{name}'")
    k = scope.slots[name]
    if name == scope.loop_var:
        # Each iteration binds its loop variable before its body runs.
        return lambda ev: ev.frame[k]
    outer = _read(name, scope.outer)

    def read(ev: Evaluator) -> Any:
        value = ev.frame[k]
        return outer(ev) if value is _UNBOUND else value

    return read


def _bindings(scope: _Scope) -> Compiled:
    """What a failing check in ``scope`` reports: each enclosing loop's
    variable once, outermost first, with the value a read of it gives there."""
    readers = [(name, _read(name, scope)) for name in dict.fromkeys(scope.loop_vars)]
    return lambda ev: {name: render_value(read(ev)) for name, read in readers}


# -- statements ------------------------------------------------------------


def _block(stmts: tuple[Stmt, ...], scope: _Scope) -> Compiled:
    compiled = [_stmt(st, scope) for st in stmts]

    def block(ev: Evaluator) -> bool:
        for st in compiled:
            if st(ev):
                return True
        return False

    return block


def _stmt(st: Stmt, scope: _Scope) -> Compiled:
    if isinstance(st, ForEach):
        return _for_each(st, scope)
    if isinstance(st, If):
        cond, body = _boolean(st.cond, "if condition", scope), _block(st.body, scope)
        return lambda ev: cond(ev) and body(ev)
    if isinstance(st, Continue):
        return lambda ev: True
    if isinstance(st, VarDecl):
        k, init = scope.slots[st.name], _expr(st.init, scope)

        def declare(ev: Evaluator) -> None:
            ev.frame[k] = init(ev)

        return declare
    return _check(st, scope)


def _for_each(st: ForEach, scope: _Scope) -> Compiled:
    iterable = _expr(st.iterable, scope)
    inner = _Scope(scope.stubs, [st.var, *_declared(st.body)], scope, st.var)
    body = _block(st.body, inner)
    # The loop variable's slot, then the slots of the body's other names,
    # which each iteration unbinds: a ``var`` holds for one iteration.
    k = inner.slots[st.var]
    first, end = k + 1, k + len(inner.slots)
    unbound = [_UNBOUND] * (end - first)

    def loop(ev: Evaluator) -> None:
        items = iterable(ev)
        if isinstance(items, ActionSequence):
            items = items.actions
        if not isinstance(items, (list, tuple)):
            raise EvalError(f"cannot iterate over {render_value(items)}")
        frame = ev.frame
        for item in items:
            frame[k] = item
            if unbound:
                frame[first:end] = unbound
            body(ev)

    return loop


def _check(st: ExprStmt, scope: _Scope) -> Compiled:
    """Top-level boolean statements are the checks an EMR quantifies over. A
    bare boolean asserts itself (its antecedent is trivially true); an
    IMPLIES statement checks its consequent only when its antecedent held."""
    expr, line, bindings = st.expr, st.line, _bindings(scope)
    if isinstance(expr, Call) and expr.name == "IMPLIES":
        antecedent, consequent = _implication(expr.args, scope)

        def check(ev: Evaluator) -> None:
            if antecedent(ev):
                ev.record(line, consequent(ev), bindings)
    else:
        value = _expr(expr, scope)

        def check(ev: Evaluator) -> None:
            result = value(ev)
            if isinstance(result, bool):
                ev.record(line, result, bindings)

    return check


# -- expressions -----------------------------------------------------------


def _expr(e: Expr, scope: _Scope) -> Compiled:
    if isinstance(e, (IntLit, StringLit, BoolLit)):
        value = e.value
        return lambda ev: value
    if isinstance(e, Name):
        return _read(e.ident, scope)
    if isinstance(e, Not):
        return _not(e.operand, "'!' operand", scope)
    if isinstance(e, BoolChain):
        return _chain(e.operands, f"'{e.op}' operand", e.op == "||", scope)
    if isinstance(e, MethodCall):
        return _method(e, scope)
    return _call(e, scope)


# Constructs whose closures return a bool or raise.
_BOOLEAN_CONSTRUCTS = frozenset({"NOT", "AND", "OR", "IMPLIES", "CREATE"})


def _boolean(e: Expr, context: str, scope: _Scope) -> Compiled:
    """``e`` compiled for a boolean position: a value other than ``True`` or
    ``False`` raises, naming ``context``. A node that evaluates to a bool by
    construction needs no check."""
    compiled = _expr(e, scope)
    if isinstance(e, (Not, BoolChain, BoolLit)) or (isinstance(e, Call) and e.name in _BOOLEAN_CONSTRUCTS):
        return compiled

    def checked(ev: Evaluator) -> bool:
        value = compiled(ev)
        if value is True or value is False:
            return value
        raise EvalError(f"{context} evaluated to non-boolean {render_value(value)}")

    return checked


def _not(operand: Expr, context: str, scope: _Scope) -> Compiled:
    value = _boolean(operand, context, scope)
    return lambda ev: not value(ev)


def _chain(operands: tuple[Expr, ...], context: str, decisive: bool, scope: _Scope) -> Compiled:
    """Short-circuit AND (``decisive`` False) or OR (True), left to right."""
    parts = [_boolean(o, context, scope) for o in operands]

    def chain(ev: Evaluator) -> bool:
        for operand in parts:
            if operand(ev) is decisive:
                return decisive
        return not decisive

    return chain


def _implication(args: tuple[Expr, ...], scope: _Scope) -> tuple[Compiled, Compiled]:
    """IMPLIES's antecedent and consequent, each compiled for a boolean position."""
    return _boolean(args[0], "IMPLIES antecedent", scope), _boolean(args[1], "IMPLIES consequent", scope)


def _applied(fn: Callable[..., Any], args: list[Compiled]) -> Compiled:
    """``fn`` called on the values of ``args``, evaluated left to right; a
    call with up to three arguments builds no argument list."""
    if not args:
        return lambda ev: fn()
    if len(args) == 1:
        [a] = args
        return lambda ev: fn(a(ev))
    if len(args) == 2:
        a, b = args
        return lambda ev: fn(a(ev), b(ev))
    if len(args) == 3:
        a, b, c = args
        return lambda ev: fn(a(ev), b(ev), c(ev))
    return lambda ev: fn(*[a(ev) for a in args])


# Runtime method -> (receiver type, result from the receiver and the
# arguments); ``METHOD_ARITY`` gives each one's argument count.
_METHODS: dict[str, tuple[type, Callable[..., Any]]] = {
    "actions": (ActionSequence, attrgetter("actions")),
    "getPosition": (Action, attrgetter("position")),
    "getKind": (Action, attrgetter("kind")),
    "getParameter": (Action, lambda receiver, name: receiver.parameters.get(name)),
}


def _method(e: MethodCall, scope: _Scope) -> Compiled:
    name = e.name
    kind, get = _METHODS.get(name, ((), None))
    arity = METHOD_ARITY.get(name, len(e.args))
    if len(e.args) != arity:
        plural = "" if arity == 1 else "s"
        return _raising(f"method '{name}' takes {arity} argument{plural}, not {len(e.args)}")

    def method(target: Any, *args: Any) -> Any:
        if isinstance(target, kind):
            return get(target, *args)
        raise EvalError(f"method '{name}' is not defined on {render_value(target)}")

    receiver = _expr(e.receiver, scope)
    if e.args:
        return _applied(method, [receiver, *(_expr(a, scope) for a in e.args)])

    def method_of(ev: Evaluator) -> Any:
        target = receiver(ev)
        return get(target) if isinstance(target, kind) else method(target)

    return method_of


def _call(e: Call, scope: _Scope) -> Compiled:
    name, args = e.name, e.args
    if name == "Input":
        return _by_index(args[0], "Input", Evaluator.input_sequence, scope)
    if name == "Output" and len(args) == 1:
        return _by_index(args[0], "Output", Evaluator.output_sequence, scope)
    if name == "Output":
        return _output_at(args[0].args[0], args[1], scope)
    if name == "CREATE":
        return _create(args[0].args[0], args[1], scope)
    if name == "NOT":
        return _not(args[0], "NOT operand", scope)
    if name in ("AND", "OR"):
        return _chain(args, f"{name} operand", name == "OR", scope)
    if name == "IMPLIES":
        antecedent, consequent = _implication(args, scope)
        return lambda ev: not antecedent(ev) or consequent(ev)
    # Every other name is a stub: ``compile_emr`` compiles an EMR only once all its stubs are bound.
    return _applied(scope.stubs[name], [_expr(a, scope) for a in args])


def _literal_index(e: Expr) -> int | None:
    """The value of an integer literal, an index that needs no check when it runs."""
    return e.value if type(e) is IntLit and type(e.value) is int else None


def _by_index(e: Expr, construct: str, get: Callable[[Evaluator, int], Any], scope: _Scope) -> Compiled:
    k = _literal_index(e)
    if construct == "Input":  # an input read back
        top = scope.top
        if k is None:
            top.reads = None
        elif top.reads is not None:
            top.reads.add(k)
    if k is not None:
        return lambda ev: get(ev, k)
    index, context = _expr(e, scope), f"{construct} index"
    return lambda ev: get(ev, _require_int(index(ev), context))


def _output_at(index_expr: Expr, position_expr: Expr, scope: _Scope) -> Compiled:
    """``Output(Input(i), pos)``: reads only the outputs of input i."""
    k, position = _literal_index(index_expr), _expr(position_expr, scope)
    index = None if k is not None else _expr(index_expr, scope)

    def output_at(ev: Evaluator) -> Output:
        outputs = ev.output_sequence(k if index is None else _require_int(index(ev), "Input index"))
        at = position(ev)
        if type(at) is not int:
            _require_int(at, "Output position")
        return outputs.at(at)

    return output_at


def _create(index_expr: Expr, source_expr: Expr, scope: _Scope) -> Compiled:
    k, source = _literal_index(index_expr), _expr(source_expr, scope)
    index = None if k is not None else _expr(index_expr, scope)

    def create(ev: Evaluator) -> bool:
        key = k if index is None else _require_int(index(ev), "CREATE index")
        value = source(ev)
        if not isinstance(value, ActionSequence):
            raise EvalError("CREATE source must be an input sequence")
        ev.register_and_execute(key, value)
        return True

    return create


# -- entry points -----------------------------------------------------------


def unbound_stubs(ast: EmrAst, stubs: StubBindings) -> list[str]:
    """Validate the EMR and return its stub names that ``stubs`` leaves unbound.

    Raises EvalError for a structurally invalid EMR.
    """
    diags = validate(ast)
    first = next((d for d in diags if d.severity == "error"), None)
    if first is not None:
        raise EvalError(f"EMR '{ast.id}' has validation errors: {first.message} (line {first.line})")
    return sorted(name for name in stub_names(diags) if name not in stubs)


def compile_emr(ast: EmrAst, stubs: StubBindings) -> Callable[[ActionSequence, SessionFactory], Verdict]:
    """Validate ``ast`` and compile it once against ``stubs``; the result
    gives the EMR's verdict on one source input against one SUT.

    An EMR with unbound stubs is NotExecutable on every input and never
    touches the SUT. Raises EvalError for a structurally invalid EMR.
    """
    missing = unbound_stubs(ast, stubs)
    if missing:
        return lambda source_input, session_factory: Verdict(VerdictValue.NOT_EXECUTABLE, stubs=missing)
    top = _Scope(stubs, _declared(ast.statements))
    body = _block(ast.statements, top)
    slots, reads = top.size, top.reads  # the loop bodies' slots and reads included

    def program(source_input: ActionSequence, session_factory: SessionFactory) -> Verdict:
        evaluator = Evaluator(session_factory, slots, reads)
        evaluator.register_and_execute(1, source_input)
        body(evaluator)
        return evaluator.verdict()

    return program


def evaluate_emr(
    ast: EmrAst,
    source_input: ActionSequence,
    session_factory: SessionFactory,
    stubs: StubBindings | None = None,
) -> Verdict:
    """Run one EMR against one source input and produce its verdict.

    Raises EvalError for structurally invalid EMRs and lets AdapterFailure
    from the SUT propagate.
    """
    return compile_emr(ast, dict(stubs or {}))(source_input, session_factory)
