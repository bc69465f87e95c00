"""Conversations and their on-disk transcripts.

A transcript is a JSON Lines file (see ``emrkit.jsonl``),
``<pipeline>-<ref>.jsonl``: a header line with the conversation's
``pipeline``, ``ref`` and ``config``, then one line per message. Messages
are appended as they are sent and received, so an interrupted run loses at
most the turn in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import jsonl
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

    def header(self) -> dict[str, Any]:
        return {"pipeline": self.pipeline, "ref": self.ref, "config": self.config}


class TranscriptStore:
    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        # path -> (the conversation that owns the file, messages written)
        self._written: dict[Path, tuple[Conversation, int]] = {}

    def path_for(self, conversation: Conversation) -> Path:
        return self.directory / f"{conversation.pipeline}-{conversation.ref}.jsonl"

    def write(self, conversation: Conversation) -> Path:
        """Append the messages of ``conversation`` not yet written. Its first
        write creates the file, or empties one left by another conversation
        with the same name, and starts it with the header line. A failed
        write raises its ``OSError``."""
        path = self.path_for(conversation)
        owner, written = self._written.get(path, (None, 0))
        if owner is conversation:
            jsonl.append(path, [m.to_json() for m in conversation.messages[written:]])
        else:
            records = [conversation.header(), *(m.to_json() for m in conversation.messages)]
            # Truncate, not jsonl.rewrite: an interrupted in-place rewrite would
            # leave whole stale lines after the new ones, and they would decode.
            jsonl.append(path, records, truncate=True)
        self._written[path] = (conversation, len(conversation.messages))
        return path


_HEADER_KEYS = ("pipeline", "ref", "config")
_MESSAGE_KEYS = ("role", "content", "phase")


def _has_keys(record: Any, keys: tuple[str, ...]) -> bool:
    return isinstance(record, dict) and all(key in record for key in keys)


def load_transcript(path: str | Path) -> dict[str, Any]:
    """A transcript file as ``{pipeline, ref, config, messages}``."""
    records = jsonl.read(Path(path))
    if not records or not _has_keys(records[0], _HEADER_KEYS):
        raise ValueError("line 1 is not a header object with 'pipeline', 'ref' and 'config'")
    header, *messages = records
    for number, message in enumerate(messages, 2):
        if not _has_keys(message, _MESSAGE_KEYS):
            raise ValueError(f"line {number} is not a message object with 'role', 'content' and 'phase'")
    return {**{key: header[key] for key in _HEADER_KEYS}, "messages": messages}


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
