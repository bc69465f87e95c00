"""Conversations and their on-disk transcripts.

A transcript is a JSON Lines file (see ``emrkit.jsonl``),
``<pipeline>-<ref>.jsonl``: a header line with the conversation's
``pipeline``, ``ref`` and ``config``, then one line per message. It is held
open while written, and each message reaches it as it is sent or received,
so an interrupted run loses at most the turn in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import jsonl
from .._record import Record
from .templates import PromptPhase


@dataclass(eq=False, repr=False)
class Message(Record):
    """One chat message and the prompt phase it belongs to."""

    role: str  # system | user | assistant
    content: str
    phase: int

    def to_json(self) -> dict[str, Any]:
        return {"role": self.role, "content": self.content, "phase": self.phase}


@dataclass(eq=False, repr=False)
class Conversation(Record):
    """The messages of one derive or generate conversation, saved as its transcript."""

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

    def header(self) -> dict[str, Any]:
        return {"pipeline": self.pipeline, "ref": self.ref, "config": self.config}


class TranscriptStore:
    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        # (pipeline, ref) -> (the conversation that owns the file, messages written, its path and handle)
        self._files: dict[tuple[str, str], tuple[Conversation | None, int, Path, jsonl.Appender]] = {}

    def path_for(self, conversation: Conversation) -> Path:
        return self.directory / f"{conversation.pipeline}-{conversation.ref}.jsonl"

    def write(self, conversation: Conversation) -> Path:
        """Append the messages of ``conversation`` not yet written. Its first
        write opens the file empty, closing the handle of another
        conversation with the same name, and starts it with the header line.
        A failed write raises its ``OSError``."""
        key = (conversation.pipeline, conversation.ref)
        owner, written, path, handle = self._files.get(key, (None, 0, None, None))
        if owner is conversation:
            records = [m.to_json() for m in conversation.messages[written:]]
        else:
            if handle is not None:
                handle.close()
            # Emptied, not jsonl.rewrite: an interrupted in-place rewrite would
            # leave whole stale lines after the new ones, and they would decode.
            path = self.path_for(conversation)
            handle = jsonl.Appender(path)
            self._files[key] = (None, 0, path, handle)  # owned once the header is written
            records = [conversation.header(), *(m.to_json() for m in conversation.messages)]
        handle.write(records)
        self._files[key] = (conversation, len(conversation.messages), path, handle)
        return path

    def close(self) -> None:
        """Close every transcript file; a later write starts its file anew."""
        for *_, handle in self._files.values():
            handle.close()
        self._files.clear()


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
