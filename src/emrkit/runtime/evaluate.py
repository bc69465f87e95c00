"""Evaluation semantics for EMRs.

An EMR quantifies universally over its loop bindings: the verdict is Fail
as soon as one binding makes a checked implication's antecedent true and
its consequent false, Pass when no binding fails and at least one
antecedent held, and Inapplicable when no antecedent ever held. EMRs whose
stub functions lack bindings are NotExecutable and are never run against
the SUT.

Statement semantics: ``Input(1)`` is the supplied source input, executed
against a fresh SUT session up front. ``CREATE(Input(k), e)`` deep-copies
the sequence ``e``, registers it as input k, executes it on a fresh
session immediately (so ``Output(Input(k), pos)`` resolves later in the
same expression), and evaluates to true.
"""

from __future__ import annotations

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


class _ContinueSignal(Exception):
    pass


def _require_bool(value: Any, context: str) -> bool:
    if not isinstance(value, bool):
        raise TypeMismatch(f"{context} evaluated to non-boolean {render_value(value)}")
    return value


class Evaluator:
    def __init__(self, session_factory: SessionFactory | None, stubs: StubBindings):
        self.session_factory = session_factory
        self.stubs = stubs
        self.inputs: dict[int, ActionSequence] = {}
        self.outputs: dict[int, OutputSequence] = {}
        self.scopes: list[dict[str, Any]] = [{}]
        self.loop_vars: list[str] = []
        self.antecedent_held = False
        self.failures: list[FailingBinding] = []

    # -- environment ------------------------------------------------------

    def lookup(self, name: str) -> Any:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise EvalError(f"unbound identifier '{name}'")

    def bind(self, name: str, value: Any) -> None:
        self.scopes[-1][name] = value

    def _loop_snapshot(self) -> dict[str, str]:
        snapshot: dict[str, str] = {}
        for name in self.loop_vars:
            snapshot[name] = render_value(self.lookup(name))
        return snapshot

    # -- inputs and outputs -------------------------------------------------

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

    # -- statements --------------------------------------------------------

    def run(self, stmts: tuple[Stmt, ...]) -> None:
        for st in stmts:
            self.execute_stmt(st)

    def execute_stmt(self, st: Stmt) -> None:
        if isinstance(st, ForEach):
            iterable = self.eval_expr(st.iterable)
            if isinstance(iterable, ActionSequence):
                iterable = iterable.actions
            if not isinstance(iterable, (list, tuple)):
                raise EvalError(f"cannot iterate over {render_value(iterable)}")
            for item in iterable:
                self.scopes.append({st.var: item})
                self.loop_vars.append(st.var)
                try:
                    self.run(st.body)
                except _ContinueSignal:
                    pass
                finally:
                    self.loop_vars.pop()
                    self.scopes.pop()
        elif isinstance(st, If):
            if _require_bool(self.eval_expr(st.cond), "if condition"):
                self.run(st.body)
        elif isinstance(st, Continue):
            raise _ContinueSignal()
        elif isinstance(st, VarDecl):
            self.bind(st.name, self.eval_expr(st.init))
        elif isinstance(st, ExprStmt):
            self.check_stmt(st)
        else:
            raise EvalError(f"unknown statement node {st!r}")

    def check_stmt(self, st: ExprStmt) -> None:
        """Top-level boolean statements are the checks an EMR quantifies over."""
        expr = st.expr
        if isinstance(expr, Call) and expr.name == "IMPLIES" and len(expr.args) == 2:
            antecedent = _require_bool(self.eval_expr(expr.args[0]), "IMPLIES antecedent")
            if not antecedent:
                return
            self.antecedent_held = True
            consequent = _require_bool(self.eval_expr(expr.args[1]), "IMPLIES consequent")
            if not consequent:
                self.failures.append(
                    FailingBinding(st.pos.line, self._loop_snapshot(), antecedent, consequent)
                )
            return
        value = self.eval_expr(expr)
        if isinstance(value, bool):
            # A bare boolean statement asserts itself (antecedent trivially true).
            self.antecedent_held = True
            if not value:
                self.failures.append(
                    FailingBinding(st.pos.line, self._loop_snapshot(), True, False)
                )

    # -- expressions --------------------------------------------------------

    def eval_expr(self, e: Expr) -> Any:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, StringLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, Name):
            return self.lookup(e.ident)
        if isinstance(e, Not):
            return self.eval_logic("NOT", (e.operand,), "'!'")
        if isinstance(e, BoolChain):
            return self.eval_logic("AND" if e.op == "&&" else "OR", e.operands, f"'{e.op}'")
        if isinstance(e, MethodCall):
            return self.eval_method(e)
        if isinstance(e, Call):
            return self.eval_call(e)
        raise EvalError(f"unknown expression node {e!r}")

    def eval_logic(self, op: str, operands: tuple[Expr, ...], label: str) -> bool:
        """Short-circuit NOT/AND/OR/IMPLIES, left to right; ``label`` names the
        operands in type errors (IMPLIES: its antecedent and consequent)."""
        if op == "IMPLIES":
            contexts = ["IMPLIES antecedent", "IMPLIES consequent"]
        else:
            contexts = [f"{label} operand"] * len(operands)
        values = (_require_bool(self.eval_expr(o), c) for o, c in zip(operands, contexts))
        if op == "NOT":
            return not next(values)
        if op == "AND":
            return all(values)
        if op == "OR":
            return any(values)
        return not next(values) or next(values)

    def eval_method(self, e: MethodCall) -> Any:
        receiver = self.eval_expr(e.receiver)
        args = [self.eval_expr(a) for a in e.args]
        if e.name == "actions" and isinstance(receiver, ActionSequence):
            return receiver.actions
        if isinstance(receiver, Action):
            if e.name == "getPosition":
                return receiver.position
            if e.name == "getKind":
                return receiver.kind
            if e.name == "getParameter" and len(args) == 1:
                return receiver.parameters.get(args[0])
        raise EvalError(f"method '{e.name}' is not defined on {render_value(receiver)}")

    def eval_call(self, e: Call) -> Any:
        if e.name == "Input":
            index = self.eval_expr(e.args[0])
            if not isinstance(index, int):
                raise TypeMismatch("Input index must be an integer")
            return self.input_sequence(index)
        if e.name == "Output":
            return self.eval_output(e)
        if e.name == "CREATE":
            return self.eval_create(e)
        if e.name in ("NOT", "AND", "OR", "IMPLIES"):
            return self.eval_logic(e.name, e.args, e.name)
        if e.name in self.stubs:
            args = [self.eval_expr(a) for a in e.args]
            return self.stubs[e.name](*args)
        raise MissingStub(e.name)

    def eval_output(self, e: Call) -> Any:
        if len(e.args) == 1:
            index = self.eval_expr(e.args[0])
            if not isinstance(index, int):
                raise TypeMismatch("Output index must be an integer")
            return self.output_sequence(index)
        sequence = self.eval_expr(e.args[0])
        if not isinstance(sequence, ActionSequence):
            raise TypeMismatch("two-argument Output takes an input sequence first")
        position = self.eval_expr(e.args[1])
        if not isinstance(position, int) or isinstance(position, bool):
            raise TypeMismatch("Output position must be an integer")
        return self.output_sequence(sequence.index).at(position)

    def eval_create(self, e: Call) -> bool:
        target = e.args[0]
        if not (isinstance(target, Call) and target.name == "Input" and target.args
                and isinstance(target.args[0], IntLit)):
            raise EvalError("CREATE target must be Input(k) with a literal index")
        index = target.args[0].value
        value = self.eval_expr(e.args[1])
        if not isinstance(value, ActionSequence):
            raise TypeMismatch("CREATE source must be an input sequence")
        self.register_and_execute(index, value)
        return True


def eval_bool(expr: Expr, env: Mapping[str, Any] | None = None, stubs: StubBindings | None = None) -> bool:
    """Evaluate a boolean construct expression under ``env`` without a SUT."""
    evaluator = Evaluator(session_factory=None, stubs=stubs or {})
    if env:
        evaluator.scopes[0].update(env)
    return _require_bool(evaluator.eval_expr(expr), "expression")


def unbound_stubs(ast: EmrAst, stubs: StubBindings) -> list[str]:
    """Validate the EMR and return its stub names that ``stubs`` leaves unbound.

    Raises EvalError for a structurally invalid EMR.
    """
    diags = validate(ast)
    first = next((d for d in diags if d.severity == "error"), None)
    if first is not None:
        raise EvalError(f"EMR '{ast.id}' has validation errors: {first.message} (line {first.line})")
    return sorted(name for name in stub_names(diags) if name not in stubs)


def run_emr(
    ast: EmrAst,
    source_input: ActionSequence,
    session_factory: SessionFactory,
    stubs: StubBindings,
    missing: list[str],
) -> Verdict:
    """Verdict of a validated EMR on one source input; ``missing`` is its
    ``unbound_stubs`` list, and a non-empty one makes it NotExecutable."""
    if missing:
        return Verdict(VerdictValue.NOT_EXECUTABLE, stubs=missing)
    evaluator = Evaluator(session_factory, stubs)
    evaluator.register_and_execute(1, source_input)
    evaluator.run(ast.statements)
    if evaluator.failures:
        return Verdict(VerdictValue.FAIL, failing_bindings=evaluator.failures)
    if evaluator.antecedent_held:
        return Verdict(VerdictValue.PASS)
    return Verdict(VerdictValue.INAPPLICABLE)


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
    stubs = dict(stubs or {})
    return run_emr(ast, source_input, session_factory, stubs, unbound_stubs(ast, stubs))
