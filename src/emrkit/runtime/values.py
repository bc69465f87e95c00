"""Runtime values: action sequences, outputs, verdicts, follow-up edits."""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence


class PositionOutOfRange(Exception):
    def __init__(self, position: int, length: int):
        super().__init__(f"position {position} out of range for sequence of length {length}")
        self.position = position
        self.length = length


@dataclass
class Action:
    position: int
    kind: str
    parameters: dict[str, Any] = field(default_factory=dict)

    def copy(self) -> "Action":
        return Action(self.position, self.kind, copy.deepcopy(self.parameters))


@dataclass
class ActionSequence:
    index: int
    actions: list[Action] = field(default_factory=list)

    def __post_init__(self) -> None:
        for pos, action in enumerate(self.actions):
            action.position = pos

    def copy(self, index: int | None = None) -> "ActionSequence":
        return ActionSequence(self.index if index is None else index, [a.copy() for a in self.actions])

    @classmethod
    def from_json(cls, data: Sequence[Mapping[str, Any]], index: int = 1) -> "ActionSequence":
        actions = [
            Action(pos, item["kind"], dict(item.get("parameters", {})))
            for pos, item in enumerate(data)
        ]
        return cls(index, actions)


@dataclass
class Output:
    status: str
    payload: Any = None
    summary_size: int = 0

    def to_json(self) -> dict[str, Any]:
        return {"status": self.status, "payload": self.payload, "summary_size": self.summary_size}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Output":
        return cls(data["status"], data.get("payload"), int(data.get("summary_size", 0)))


@dataclass
class OutputSequence:
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


@dataclass
class FailingBinding:
    line: int
    bindings: dict[str, str]
    antecedent: bool
    consequent: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "line": self.line,
            "bindings": self.bindings,
            "antecedent": self.antecedent,
            "consequent": self.consequent,
        }


@dataclass
class Verdict:
    value: VerdictValue
    failing_bindings: list[FailingBinding] = field(default_factory=list)
    stubs: list[str] = field(default_factory=list)


# Host-provided implementations for stub functions: name -> callable.
StubBindings = Mapping[str, Callable[..., Any]]


# --- follow-up input construction -------------------------------------------


@dataclass
class SetParameter:
    position: int
    name: str
    value: Any


@dataclass
class RemoveAction:
    position: int


@dataclass
class InsertAction:
    position: int  # 0..len(actions), insertion point
    kind: str
    parameters: dict[str, Any] = field(default_factory=dict)


Edit = SetParameter | RemoveAction | InsertAction


def create_followup(source: ActionSequence, edits: Sequence[Edit] = ()) -> ActionSequence:
    """Deep-copy ``source`` and apply ``edits``; the source is never touched.

    Positions are re-densified after structural edits, so the result is
    always positionally addressable from 0.
    """
    result = source.copy()
    for edit in edits:
        if isinstance(edit, SetParameter):
            if not 0 <= edit.position < len(result.actions):
                raise PositionOutOfRange(edit.position, len(result.actions))
            result.actions[edit.position].parameters[edit.name] = copy.deepcopy(edit.value)
        elif isinstance(edit, RemoveAction):
            if not 0 <= edit.position < len(result.actions):
                raise PositionOutOfRange(edit.position, len(result.actions))
            del result.actions[edit.position]
        elif isinstance(edit, InsertAction):
            if not 0 <= edit.position <= len(result.actions):
                raise PositionOutOfRange(edit.position, len(result.actions))
            result.actions.insert(
                edit.position, Action(edit.position, edit.kind, copy.deepcopy(edit.parameters))
            )
        else:
            raise TypeError(f"unknown edit: {edit!r}")
        for pos, action in enumerate(result.actions):
            action.position = pos
    return result


def render_value(value: Any) -> str:
    """Short human-readable rendering for failure reports."""
    if isinstance(value, Action):
        return f"{value.kind}@{value.position}"
    if isinstance(value, ActionSequence):
        return f"Input({value.index})"
    if isinstance(value, Output):
        return f"Output(status={value.status}, size={value.summary_size})"
    if isinstance(value, OutputSequence):
        return f"OutputSequence(len={len(value.outputs)})"
    return repr(value)
