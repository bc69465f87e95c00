"""Conversations and their on-disk transcripts.

A transcript file is rewritten after every appended message, so an
interrupted run loses at most the turn in flight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .templates import PromptPhase


@dataclass
class Message:
    role: str  # system | user | assistant
    content: str
    phase: int

    def to_json(self) -> dict[str, Any]:
        return {"role": self.role, "content": self.content, "phase": self.phase}


@dataclass
class Conversation:
    pipeline: str  # "derive" | "generate"
    ref: str  # document id or MR-batch id; names the transcript file
    config: dict[str, Any] = field(default_factory=dict)
    messages: list[Message] = field(default_factory=list)

    def append(self, role: str, content: str, phase: int) -> Message:
        if self.messages and phase < self.messages[-1].phase:
            raise ValueError(
                f"phase ordinals must be ascending: {phase} after {self.messages[-1].phase}"
            )
        message = Message(role, content, phase)
        self.messages.append(message)
        return message

    def last_user_message(self) -> Message:
        for message in reversed(self.messages):
            if message.role == "user":
                return message
        raise ValueError("conversation has no user message")

    def phases(self) -> list[int]:
        return [m.phase for m in self.messages]

    def to_json(self) -> dict[str, Any]:
        return {
            "pipeline": self.pipeline,
            "ref": self.ref,
            "config": self.config,
            "messages": [m.to_json() for m in self.messages],
        }


class TranscriptStore:
    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path_for(self, conversation: Conversation) -> Path:
        return self.directory / f"{conversation.pipeline}-{conversation.ref}.json"

    def write(self, conversation: Conversation) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(conversation)
        path.write_text(
            json.dumps(conversation.to_json(), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        return path


def run_turn(
    conversation: Conversation,
    client: Any,
    store: TranscriptStore | None,
    phase: PromptPhase,
    content: str,
) -> str:
    """One user turn in ``phase``: send, persist, read the assistant reply,
    persist. With no store nothing is persisted."""
    conversation.append("user", content, phase.ordinal)
    if store is not None:
        store.write(conversation)
    reply = client.complete(conversation)
    conversation.append("assistant", reply, phase.ordinal)
    if store is not None:
        store.write(conversation)
    return reply
