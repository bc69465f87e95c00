"""Evaluation semantics for EMRs: verdicts, follow-up inputs, suite runs."""

from .errors import AdapterFailure, EvalError
from .evaluate import Evaluator, eval_bool, evaluate_emr, unbound_stubs
from .suite import SuiteEntry, SuiteReport, run_suite
from .values import (
    Action,
    ActionSequence,
    Edit,
    FailingBinding,
    InsertAction,
    Output,
    OutputSequence,
    PositionOutOfRange,
    RemoveAction,
    SetParameter,
    StubBindings,
    Verdict,
    VerdictValue,
    create_followup,
    render_value,
)

__all__ = [
    "Action",
    "ActionSequence",
    "AdapterFailure",
    "Edit",
    "EvalError",
    "Evaluator",
    "FailingBinding",
    "InsertAction",
    "Output",
    "OutputSequence",
    "PositionOutOfRange",
    "RemoveAction",
    "SetParameter",
    "StubBindings",
    "SuiteEntry",
    "SuiteReport",
    "Verdict",
    "VerdictValue",
    "create_followup",
    "eval_bool",
    "evaluate_emr",
    "render_value",
    "run_suite",
    "unbound_stubs",
]
