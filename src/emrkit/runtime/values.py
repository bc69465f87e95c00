"""Runtime values: action sequences, outputs, verdicts, follow-up edits."""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .._record import Record
from ..jsonl import check


class PositionOutOfRange(Exception):
    def __init__(self, position: int, length: int):
        super().__init__(f"position {position} out of range for sequence of length {length}")


# Immutable JSON scalars: a copy can share them.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _copy_value(value: Any) -> Any:
    return value if type(value) in _SCALARS else copy.deepcopy(value)


def _copy_parameters(parameters: Mapping[str, Any]) -> dict[str, Any]:
    """Parameters come from user JSON and may nest: the copy shares
    immutable scalars and deep-copies nested values. Most hold scalars only,
    which one scan of the value types shows before any item is walked."""
    copied = dict(parameters)
    for value in copied.values():
        if type(value) not in _SCALARS:
            break
    else:
        return copied
    for name, value in copied.items():
        if type(value) not in _SCALARS:
            copied[name] = copy.deepcopy(value)
    return copied


# Runtime values built once per action or output are built without a class
# call, which passes the arguments through the dataclass ``__init__``.
# Attributes are set in the order that ``__init__`` sets them, so instances
# share one key table.
_new = object.__new__


@dataclass(eq=False, repr=False)
class Action(Record):
    """One action of an input sequence: its position, kind and parameters."""

    position: int
    kind: str
    parameters: dict[str, Any] = field(default_factory=dict)


@dataclass(eq=False, repr=False)
class ActionSequence(Record):
    """An input sequence: its actions, numbered from 0."""

    actions: list[Action] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Renumber by replacing: the caller may still hold these actions in another sequence.
        self.actions = [
            action if action.position == pos else Action(pos, action.kind, action.parameters)
            for pos, action in enumerate(self.actions)
        ]

    def copy(self) -> "ActionSequence":
        """One pass over the actions: each copy takes its position from its
        place in the sequence, so the result is dense without a
        ``__post_init__`` walk."""
        actions = []
        for position, action in enumerate(self.actions):
            copied = _new(Action)
            copied.position, copied.kind, copied.parameters = position, action.kind, _copy_parameters(action.parameters)
            actions.append(copied)
        result = _new(ActionSequence)
        result.actions = actions
        return result

    @classmethod
    def from_json(cls, data: Any) -> "ActionSequence":
        actions = []
        for pos, item in enumerate(check(data, "a JSON list", "the input sequence")):
            item = check(item, "a JSON object", f"action at position {pos}")
            what = f"action at position {pos} field"
            actions.append(Action(pos, check(item.get("kind"), "a string", f"{what} 'kind'"),
                                  dict(check(item.get("parameters", {}), "a JSON object", f"{what} 'parameters'"))))
        return cls(actions)


@dataclass(eq=False, repr=False)
class Output(Record):
    """What the SUT returned for one action: status, payload and result count."""

    status: str
    payload: Any = None
    summary_size: int = 0

    def to_json(self) -> dict[str, Any]:
        return {"status": self.status, "payload": self.payload, "summary_size": self.summary_size}

    @classmethod
    def from_json(cls, data: Mapping[str, Any], what: str = "output") -> "Output":
        return cls(check(data.get("status"), "a string", f"{what} field 'status'"), data.get("payload"),
                   check(data.get("summary_size", 0), "an integer", f"{what} field 'summary_size'"))


@dataclass(eq=False, repr=False)
class OutputSequence(Record):
    """The outputs of one input sequence's actions, in order."""

    outputs: list[Output] = field(default_factory=list)

    def at(self, position: int) -> Output:
        if not 0 <= position < len(self.outputs):
            raise PositionOutOfRange(position, len(self.outputs))
        return self.outputs[position]


class VerdictValue(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INAPPLICABLE = "Inapplicable"
    NOT_EXECUTABLE = "NotExecutable"


@dataclass(eq=False, repr=False)
class FailingBinding(Record):
    """A check that failed: its line and the values bound in its scope."""

    line: int
    bindings: dict[str, str]

    def to_json(self) -> dict[str, Any]:
        # A binding fails only where the antecedent held and the consequent did not.
        return {"line": self.line, "bindings": self.bindings, "antecedent": True, "consequent": False}


@dataclass(eq=False, repr=False)
class Verdict(Record):
    """One EMR's verdict on one input, with its failing bindings and the unbound stubs it names."""

    value: VerdictValue
    failing_bindings: list[FailingBinding] = field(default_factory=list)
    stubs: list[str] = field(default_factory=list)


# Host-provided implementations for stub functions: name -> callable.
StubBindings = Mapping[str, Callable[..., Any]]


# --- follow-up input construction -------------------------------------------


@dataclass(eq=False, repr=False)
class SetParameter(Record):
    """A follow-up edit that sets one parameter of the action at ``position``."""

    position: int
    name: str
    value: Any


@dataclass(eq=False, repr=False)
class RemoveAction(Record):
    """A follow-up edit that removes the action at ``position``."""

    position: int


@dataclass(eq=False, repr=False)
class InsertAction(Record):
    """A follow-up edit that inserts an action at ``position``."""

    position: int  # 0..len(actions), insertion point
    kind: str
    parameters: dict[str, Any] = field(default_factory=dict)


Edit = SetParameter | RemoveAction | InsertAction


def create_followup(source: ActionSequence, edits: Sequence[Edit] = ()) -> ActionSequence:
    """Copy ``source`` and apply ``edits``; the source is never touched.

    The copy (and every edit's value) copies nested values and shares
    immutable scalars, so no later change to either side reaches the other.

    Positions are re-densified after structural edits, so the result is
    always positionally addressable from 0.
    """
    result = source.copy()
    for edit in edits:
        if isinstance(edit, SetParameter):
            if not 0 <= edit.position < len(result.actions):
                raise PositionOutOfRange(edit.position, len(result.actions))
            result.actions[edit.position].parameters[edit.name] = _copy_value(edit.value)
        elif isinstance(edit, RemoveAction):
            if not 0 <= edit.position < len(result.actions):
                raise PositionOutOfRange(edit.position, len(result.actions))
            del result.actions[edit.position]
        elif isinstance(edit, InsertAction):
            if not 0 <= edit.position <= len(result.actions):
                raise PositionOutOfRange(edit.position, len(result.actions))
            result.actions.insert(
                edit.position, Action(edit.position, edit.kind, _copy_parameters(edit.parameters))
            )
        else:
            raise TypeError(f"unknown edit: {edit!r}")
        if isinstance(edit, (RemoveAction, InsertAction)):
            for pos, action in enumerate(result.actions):
                action.position = pos
    return result


def render_value(value: Any) -> str:
    """Short human-readable rendering for failure reports."""
    if isinstance(value, Action):
        return f"{value.kind}@{value.position}"
    if isinstance(value, ActionSequence):
        return f"ActionSequence(len={len(value.actions)})"
    if isinstance(value, Output):
        return f"Output(status={value.status}, size={value.summary_size})"
    if isinstance(value, OutputSequence):
        return f"OutputSequence(len={len(value.outputs)})"
    return repr(value)
