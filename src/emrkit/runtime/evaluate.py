"""Evaluation semantics for EMRs.

An EMR quantifies universally over its loop bindings: the verdict is Fail
as soon as one binding makes a checked implication's antecedent true and
its consequent false, Pass when no binding fails and at least one
antecedent held, and Inapplicable when no antecedent ever held. EMRs whose
stub functions lack bindings are NotExecutable and are never run against
the SUT.

Statement semantics: ``Input(1)`` is the supplied source input, executed
against a fresh SUT session up front. ``CREATE(Input(k), e)`` copies the
sequence ``e``, registers it as input k, executes it on a fresh session
immediately (so ``Output(Input(k), pos)`` resolves later in the same
expression), and evaluates to true.

``compile_emr`` turns an EMR into one closure per AST node, once:
``run_suite`` compiles each EMR once per call and runs it on every input.
Node types, construct names and stub bindings are resolved when compiling;
each closure takes the ``Evaluator``, the state of one (EMR, input) pair.
Each entry point validates before compiling, so construct arity and the
shape of a ``CREATE`` target are not checked again here. Each index (``i``
in ``Input(i)`` and ``Output(i)``, ``pos`` in ``Output(Input(i), pos)``,
``k`` in ``CREATE(Input(k), x)``) is an expression evaluated left to right
whose value must be an integer, not a boolean. Each boolean position (the
``if`` condition, the operands of ``!``, ``&&``, ``||``, ``NOT``, ``AND``
and ``OR``, and ``IMPLIES``'s antecedent and consequent) compiles through
``_boolean``, the one check that a value is ``True`` or ``False``; a bare
statement is a check only when its value is a boolean. Compiling never
raises what running would: a non-integer index, an unknown method, a
non-iterable loop or a missing stub becomes a closure that raises its error
only when reached.

A few common shapes compile to a cheaper closure that computes exactly what
the generic one does, and every other shape takes the generic one:

- an integer literal index of ``Input``, ``Output`` or ``CREATE`` (and the
  ``Input(k)`` that ``Output(Input(k), pos)`` reads) is used as it is, with
  no closure to evaluate it and no integer check;
- a method call without arguments is one closure.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Mapping, Protocol

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


class Evaluator:
    """The state of one (EMR, input) pair, which compiled closures read and update."""

    def __init__(self, session_factory: SessionFactory):
        self.session_factory = session_factory
        self.inputs: dict[int, ActionSequence] = {}
        self.outputs: dict[int, OutputSequence] = {}
        self.scopes: list[dict[str, Any]] = [{}]
        self.loop_vars: list[str] = []
        self.antecedent_held = False
        self.failures: list[FailingBinding] = []

    def lookup(self, name: str) -> Any:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise EvalError(f"unbound identifier '{name}'")

    def record(self, line: int, held: bool) -> None:
        """A check on ``line`` applied; a false one fails with the loop bindings."""
        self.antecedent_held = True
        if not held:
            bindings = {name: render_value(self.lookup(name)) for name in self.loop_vars}
            self.failures.append(FailingBinding(line, bindings))

    def register_and_execute(self, index: int, sequence: ActionSequence) -> None:
        registered = sequence.copy(index)
        session = self.session_factory()
        outputs = _new(OutputSequence)
        outputs.outputs = list(map(session.execute, registered.actions))
        self.inputs[index] = registered
        self.outputs[index] = outputs

    def input_sequence(self, index: int) -> ActionSequence:
        if index not in self.inputs:
            raise EvalError(f"Input({index}) is not registered; CREATE it first")
        return self.inputs[index]

    def output_sequence(self, index: int) -> OutputSequence:
        if index not in self.outputs:
            raise EvalError(f"no recorded outputs for Input({index})")
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


# -- statements ------------------------------------------------------------


def _block(stmts: tuple[Stmt, ...], stubs: StubBindings) -> Compiled:
    compiled = [_stmt(st, stubs) for st in stmts]

    def block(ev: Evaluator) -> bool:
        for st in compiled:
            if st(ev):
                return True
        return False

    return block


def _stmt(st: Stmt, stubs: StubBindings) -> Compiled:
    if isinstance(st, ForEach):
        return _for_each(st, stubs)
    if isinstance(st, If):
        cond, body = _boolean(st.cond, "if condition", stubs), _block(st.body, stubs)
        return lambda ev: cond(ev) and body(ev)
    if isinstance(st, Continue):
        return lambda ev: True
    if isinstance(st, VarDecl):
        name, init = st.name, _expr(st.init, stubs)

        def declare(ev: Evaluator) -> None:
            ev.scopes[-1][name] = init(ev)

        return declare
    if isinstance(st, ExprStmt):
        return _check(st, stubs)
    return _raising(f"unknown statement node {st!r}")


def _for_each(st: ForEach, stubs: StubBindings) -> Compiled:
    var, iterable, body = st.var, _expr(st.iterable, stubs), _block(st.body, stubs)

    def loop(ev: Evaluator) -> None:
        items = iterable(ev)
        if isinstance(items, ActionSequence):
            items = items.actions
        if not isinstance(items, (list, tuple)):
            raise EvalError(f"cannot iterate over {render_value(items)}")
        # An error ends the pair, so nothing below needs unwinding on one.
        ev.loop_vars.append(var)
        for item in items:
            ev.scopes.append({var: item})
            body(ev)
            ev.scopes.pop()
        ev.loop_vars.pop()

    return loop


def _check(st: ExprStmt, stubs: StubBindings) -> Compiled:
    """Top-level boolean statements are the checks an EMR quantifies over. A
    bare boolean asserts itself (its antecedent is trivially true); an
    IMPLIES statement checks its consequent only when its antecedent held."""
    expr, line = st.expr, st.pos.line
    if isinstance(expr, Call) and expr.name == "IMPLIES":
        antecedent, consequent = _implication(expr.args, stubs)

        def check(ev: Evaluator) -> None:
            if antecedent(ev):
                ev.record(line, consequent(ev))
    else:
        value = _expr(expr, stubs)

        def check(ev: Evaluator) -> None:
            result = value(ev)
            if isinstance(result, bool):
                ev.record(line, result)

    return check


# -- expressions -----------------------------------------------------------


def _expr(e: Expr, stubs: StubBindings) -> Compiled:
    if isinstance(e, (IntLit, StringLit, BoolLit)):
        value = e.value
        return lambda ev: value
    if isinstance(e, Name):
        name = e.ident
        return lambda ev: ev.lookup(name)
    if isinstance(e, Not):
        return _not(e.operand, "'!' operand", stubs)
    if isinstance(e, BoolChain):
        return _chain(e.operands, f"'{e.op}' operand", e.op == "||", stubs)
    if isinstance(e, MethodCall):
        return _method(e, stubs)
    if isinstance(e, Call):
        return _call(e, stubs)
    return _raising(f"unknown expression node {e!r}")


# Constructs whose closures return a bool or raise.
_BOOLEAN_CONSTRUCTS = frozenset({"NOT", "AND", "OR", "IMPLIES", "CREATE"})


def _boolean(e: Expr, context: str, stubs: StubBindings) -> Compiled:
    """``e`` compiled for a boolean position: a value other than ``True`` or
    ``False`` raises, naming ``context``. A node that evaluates to a bool by
    construction needs no check."""
    compiled = _expr(e, stubs)
    if isinstance(e, (Not, BoolChain, BoolLit)) or (isinstance(e, Call) and e.name in _BOOLEAN_CONSTRUCTS):
        return compiled

    def checked(ev: Evaluator) -> bool:
        value = compiled(ev)
        if value is True or value is False:
            return value
        raise EvalError(f"{context} evaluated to non-boolean {render_value(value)}")

    return checked


def _not(operand: Expr, context: str, stubs: StubBindings) -> Compiled:
    value = _boolean(operand, context, stubs)
    return lambda ev: not value(ev)


def _chain(operands: tuple[Expr, ...], context: str, decisive: bool, stubs: StubBindings) -> Compiled:
    """Short-circuit AND (``decisive`` False) or OR (True), left to right."""
    parts = [_boolean(o, context, stubs) for o in operands]

    def chain(ev: Evaluator) -> bool:
        for operand in parts:
            if operand(ev) is decisive:
                return decisive
        return not decisive

    return chain


def _implication(args: tuple[Expr, ...], stubs: StubBindings) -> tuple[Compiled, Compiled]:
    """IMPLIES's antecedent and consequent, each compiled for a boolean position."""
    return _boolean(args[0], "IMPLIES antecedent", stubs), _boolean(args[1], "IMPLIES consequent", stubs)


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


def _method(e: MethodCall, stubs: StubBindings) -> Compiled:
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

    receiver = _expr(e.receiver, stubs)
    if e.args:
        return _applied(method, [receiver, *(_expr(a, stubs) for a in e.args)])

    def method_of(ev: Evaluator) -> Any:
        target = receiver(ev)
        return get(target) if isinstance(target, kind) else method(target)

    return method_of


def _call(e: Call, stubs: StubBindings) -> Compiled:
    name, args = e.name, e.args
    if name == "Input":
        return _by_index(args[0], "Input", Evaluator.input_sequence, stubs)
    if name == "Output" and len(args) == 1:
        return _by_index(args[0], "Output", Evaluator.output_sequence, stubs)
    if name == "Output":
        return _output_at(args[0], args[1], stubs)
    if name == "CREATE":
        return _create(args[0].args[0], args[1], stubs)
    if name == "NOT":
        return _not(args[0], "NOT operand", stubs)
    if name in ("AND", "OR"):
        return _chain(args, f"{name} operand", name == "OR", stubs)
    if name == "IMPLIES":
        antecedent, consequent = _implication(args, stubs)
        return lambda ev: not antecedent(ev) or consequent(ev)
    if name in stubs:
        return _applied(stubs[name], [_expr(a, stubs) for a in args])
    return _raising(f"no binding for stub function '{name}'")


def _literal_index(e: Expr) -> int | None:
    """The value of an integer literal, an index that needs no check when it runs."""
    return e.value if type(e) is IntLit and type(e.value) is int else None


def _by_index(e: Expr, construct: str, get: Callable[[Evaluator, int], Any], stubs: StubBindings) -> Compiled:
    k = _literal_index(e)
    if k is not None:
        return lambda ev: get(ev, k)
    index, context = _expr(e, stubs), f"{construct} index"
    return lambda ev: get(ev, _require_int(index(ev), context))


def _output_at(sequence_expr: Expr, position_expr: Expr, stubs: StubBindings) -> Compiled:
    is_input = type(sequence_expr) is Call and sequence_expr.name == "Input"
    k = _literal_index(sequence_expr.args[0]) if is_input else None
    sequence = None if k is not None else _expr(sequence_expr, stubs)
    position = _expr(position_expr, stubs)

    def output_at(ev: Evaluator) -> Output:
        if sequence is None:
            inputs = ev.input_sequence(k)
        else:
            inputs = sequence(ev)
            if not isinstance(inputs, ActionSequence):
                raise EvalError("two-argument Output takes an input sequence first")
        at = position(ev)
        if type(at) is not int:
            _require_int(at, "Output position")
        return ev.output_sequence(inputs.index).at(at)

    return output_at


def _create(index_expr: Expr, source_expr: Expr, stubs: StubBindings) -> Compiled:
    k, source = _literal_index(index_expr), _expr(source_expr, stubs)
    index = None if k is not None else _expr(index_expr, stubs)

    def create(ev: Evaluator) -> bool:
        key = k if index is None else _require_int(index(ev), "CREATE index")
        value = source(ev)
        if not isinstance(value, ActionSequence):
            raise EvalError("CREATE source must be an input sequence")
        ev.register_and_execute(key, value)
        return True

    return create


# -- entry points -----------------------------------------------------------


def _no_session() -> SutSessionLike:
    raise EvalError("no SUT session factory; cannot execute inputs")


def eval_bool(expr: Expr, env: Mapping[str, Any] | None = None, stubs: StubBindings | None = None) -> bool:
    """Evaluate a boolean construct expression under ``env`` without a SUT;
    an unbound stub raises only when it is reached."""
    unbound_stubs(EmrAst("expression", (ExprStmt(expr),)), {})
    evaluator = Evaluator(_no_session)
    if env:
        evaluator.scopes[0].update(env)
    return _boolean(expr, "expression", stubs or {})(evaluator)


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
    body = _block(ast.statements, stubs)

    def program(source_input: ActionSequence, session_factory: SessionFactory) -> Verdict:
        evaluator = Evaluator(session_factory)
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
