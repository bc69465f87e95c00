"""Evaluation semantics for EMRs: verdicts, follow-up inputs, suite runs."""

from .errors import AdapterFailure, EvalError
from .evaluate import evaluate_emr
from .suite import run_suite
from .values import (
    Action,
    ActionSequence,
    InsertAction,
    Output,
    PositionOutOfRange,
    RemoveAction,
    SetParameter,
    VerdictValue,
    create_followup,
)

__all__ = [
    "Action",
    "ActionSequence",
    "AdapterFailure",
    "EvalError",
    "InsertAction",
    "Output",
    "PositionOutOfRange",
    "RemoveAction",
    "SetParameter",
    "VerdictValue",
    "create_followup",
    "evaluate_emr",
    "run_suite",
]
