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
Compiling never raises what running would: a malformed ``CREATE`` target,
an unknown method, a non-iterable loop or a missing stub becomes a closure
that raises its error only when it is reached.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Protocol

from ..dsl.ast import (
    CONSTRUCT_ARITY,
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
from ..dsl.validate import stub_names, validate
from .errors import EvalError, MissingStub, TypeMismatch
from .values import (
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


def _require_bool(value: Any, context: str) -> bool:
    if not isinstance(value, bool):
        raise TypeMismatch(f"{context} evaluated to non-boolean {render_value(value)}")
    return value


class Evaluator:
    """The state of one (EMR, input) pair, which compiled closures read and update."""

    def __init__(self, session_factory: SessionFactory | None):
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
            self.failures.append(FailingBinding(line, bindings, True, False))

    def register_and_execute(self, index: int, sequence: ActionSequence) -> None:
        if self.session_factory is None:
            raise EvalError("no SUT session factory; cannot execute inputs")
        registered = sequence.copy(index=index)
        session = self.session_factory()
        outputs = [session.execute(action) for action in registered.actions]
        self.inputs[index] = registered
        self.outputs[index] = OutputSequence(outputs)

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


def _raising(error: Callable[[str], Exception], message: str) -> Compiled:
    def fail(ev: Evaluator) -> Any:
        raise error(message)

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
        cond, body = _expr(st.cond, stubs), _block(st.body, stubs)
        return lambda ev: _require_bool(cond(ev), "if condition") and body(ev)
    if isinstance(st, Continue):
        return lambda ev: True
    if isinstance(st, VarDecl):
        name, init = st.name, _expr(st.init, stubs)

        def declare(ev: Evaluator) -> None:
            ev.scopes[-1][name] = init(ev)

        return declare
    if isinstance(st, ExprStmt):
        return _check(st, stubs)
    return _raising(EvalError, f"unknown statement node {st!r}")


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
    if isinstance(expr, Call) and expr.name == "IMPLIES" and len(expr.args) == 2:
        antecedent, consequent = (_expr(a, stubs) for a in expr.args)

        def check(ev: Evaluator) -> None:
            if _require_bool(antecedent(ev), "IMPLIES antecedent"):
                ev.record(line, _require_bool(consequent(ev), "IMPLIES consequent"))
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
        return _logic("NOT", (e.operand,), "'!'", stubs)
    if isinstance(e, BoolChain):
        return _logic("AND" if e.op == "&&" else "OR", e.operands, f"'{e.op}'", stubs)
    if isinstance(e, MethodCall):
        return _method(e, stubs)
    if isinstance(e, Call):
        return _call(e, stubs)
    return _raising(EvalError, f"unknown expression node {e!r}")


def _logic(op: str, operands: tuple[Expr, ...], label: str, stubs: StubBindings) -> Compiled:
    """Short-circuit NOT/AND/OR/IMPLIES, left to right; ``label`` names the
    operands in type errors (IMPLIES: its antecedent and consequent)."""
    if op == "IMPLIES":
        contexts = ["IMPLIES antecedent", "IMPLIES consequent"]
    else:
        contexts = [f"{label} operand"] * len(operands)
    parts = [(_expr(o, stubs), c) for o, c in zip(operands, contexts)]
    if op == "NOT":
        [(operand, context)] = parts
        return lambda ev: not _require_bool(operand(ev), context)
    if op == "IMPLIES":
        (a, a_context), (c, c_context) = parts
        return lambda ev: not _require_bool(a(ev), a_context) or _require_bool(c(ev), c_context)
    decisive = op == "OR"  # the operand value that ends the chain

    def chain(ev: Evaluator) -> bool:
        for operand, context in parts:
            if _require_bool(operand(ev), context) is decisive:
                return decisive
        return not decisive

    return chain


# Runtime method -> (receiver type, result from the receiver and the arguments).
_METHODS: dict[str, tuple[type, Callable[[Any, list[Any]], Any]]] = {
    "actions": (ActionSequence, lambda receiver, args: receiver.actions),
    "getPosition": (Action, lambda receiver, args: receiver.position),
    "getKind": (Action, lambda receiver, args: receiver.kind),
    "getParameter": (Action, lambda receiver, args: receiver.parameters.get(args[0])),
}


def _method(e: MethodCall, stubs: StubBindings) -> Compiled:
    name, receiver = e.name, _expr(e.receiver, stubs)
    args = [_expr(a, stubs) for a in e.args]
    kind, get = _METHODS.get(name, ((), None))
    if name == "getParameter" and len(args) != 1:
        kind = ()  # isinstance(x, ()) is always false

    def method(ev: Evaluator) -> Any:
        target = receiver(ev)
        values = [a(ev) for a in args]
        if isinstance(target, kind):
            return get(target, values)
        raise EvalError(f"method '{name}' is not defined on {render_value(target)}")

    return method


def _call(e: Call, stubs: StubBindings) -> Compiled:
    name, args = e.name, e.args
    if name in CONSTRUCT_ARITY and len(args) not in CONSTRUCT_ARITY[name]:
        return _raising(EvalError, f"{name} cannot take {len(args)} argument(s)")
    if name == "Input":
        return _by_index(_expr(args[0], stubs), "Input", Evaluator.input_sequence)
    if name == "Output" and len(args) == 1:
        return _by_index(_expr(args[0], stubs), "Output", Evaluator.output_sequence)
    if name == "Output":
        return _output_at(_expr(args[0], stubs), _expr(args[1], stubs))
    if name == "CREATE":
        return _create(args, stubs)
    if name in ("NOT", "AND", "OR", "IMPLIES"):
        return _logic(name, args, name, stubs)
    if name in stubs:
        fn, compiled = stubs[name], [_expr(a, stubs) for a in args]
        return lambda ev: fn(*[a(ev) for a in compiled])
    return _raising(MissingStub, name)


def _by_index(index: Compiled, construct: str, get: Callable[[Evaluator, int], Any]) -> Compiled:
    def indexed(ev: Evaluator) -> Any:
        value = index(ev)
        if not isinstance(value, int):
            raise TypeMismatch(f"{construct} index must be an integer")
        return get(ev, value)

    return indexed


def _output_at(sequence: Compiled, position: Compiled) -> Compiled:
    def output_at(ev: Evaluator) -> Output:
        inputs = sequence(ev)
        if not isinstance(inputs, ActionSequence):
            raise TypeMismatch("two-argument Output takes an input sequence first")
        at = position(ev)
        if not isinstance(at, int) or isinstance(at, bool):
            raise TypeMismatch("Output position must be an integer")
        return ev.output_sequence(inputs.index).at(at)

    return output_at


def _create(args: tuple[Expr, ...], stubs: StubBindings) -> Compiled:
    target = args[0]
    if not (isinstance(target, Call) and target.name == "Input" and target.args
            and isinstance(target.args[0], IntLit)):
        return _raising(EvalError, "CREATE target must be Input(k) with a literal index")
    index, source = target.args[0].value, _expr(args[1], stubs)

    def create(ev: Evaluator) -> bool:
        value = source(ev)
        if not isinstance(value, ActionSequence):
            raise TypeMismatch("CREATE source must be an input sequence")
        ev.register_and_execute(index, value)
        return True

    return create


# -- entry points -----------------------------------------------------------


def eval_bool(expr: Expr, env: Mapping[str, Any] | None = None, stubs: StubBindings | None = None) -> bool:
    """Evaluate a boolean construct expression under ``env`` without a SUT."""
    evaluator = Evaluator(session_factory=None)
    if env:
        evaluator.scopes[0].update(env)
    return _require_bool(_expr(expr, stubs or {})(evaluator), "expression")


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
