"""Chat clients: a live chat-completions client and a scripted mock.

The mock is keyed by (pipeline, phase, content hash of the latest user
message); script files may give the hash as "*" to match any content.
Several entries under one key form a queue consumed call by call, so a
phase that repeats (one message per MR) can be scripted. An unknown key
raises LlmError: the mock never fabricates a reply.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

from .._record import Record
from ..jsonl import check
from .conversation import Conversation


class LlmError(Exception):
    """A conversation with the LLM failed: no reply, or one in the wrong format."""


@dataclass(eq=False, repr=False)
class LlmConfig(Record):
    """Where the chat model is and how to call it; the credential stays in ``credential_env``."""

    endpoint: str = ""
    model: str = "mock"
    temperature: float = 0.0
    max_response_tokens: int = 4096
    credential_env: str = "EMRKIT_API_KEY"  # the variable that holds the credential, never stored itself


class ChatClient(Protocol):
    def complete(self, conversation: Conversation) -> str: ...


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(eq=False, repr=False)
class MockChatClient(Record):
    """Deterministic scripted client for tests and --mock runs."""

    queues: dict[tuple[str, int, str], list[str]] = field(default_factory=dict)

    @classmethod
    def from_scripts(cls, scripts: Any) -> "MockChatClient":
        def field_of(entry: dict, name: str, kind: str, default: Any = None) -> Any:
            return check(entry.get(name, default), kind, f"mock script field '{name}'")

        client = cls()
        for number, entry in enumerate(check(scripts, "a JSON list", "the mock scripts"), 1):
            entry = check(entry, "a JSON object", f"mock script {number}")
            key = (field_of(entry, "pipeline", "a string"), field_of(entry, "phase", "an integer"),
                   field_of(entry, "content_hash", "a string", "*"))
            client.queues.setdefault(key, []).append(field_of(entry, "response", "a string"))
        return client

    @classmethod
    def from_file(cls, path: str | Path) -> "MockChatClient":
        return cls.from_scripts(json.loads(Path(path).read_text(encoding="utf-8")))

    def complete(self, conversation: Conversation) -> str:
        last = conversation.last_user_message()
        digest = content_hash(last.content)
        for key in ((conversation.pipeline, last.phase, digest), (conversation.pipeline, last.phase, "*")):
            queue = self.queues.get(key)
            if queue:
                return queue.pop(0)
        raise LlmError(
            f"no scripted response for pipeline={conversation.pipeline!r} phase={last.phase} content_hash={digest}"
        )


@dataclass(eq=False, repr=False)
class LiveChatClient(Record):
    """Chat-completions style HTTP client with bounded retries. A reply
    without a string ``choices[0].message.content`` is a failed attempt."""

    config: LlmConfig
    max_retries: int = 3
    backoff: float = 0.5

    def complete(self, conversation: Conversation) -> str:
        # Imported here: urllib.request loads http.client, ssl and email,
        # which no offline command needs.
        import urllib.error
        import urllib.request

        payload = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_response_tokens,
            "messages": [{"role": m.role, "content": m.content} for m in conversation.messages],
        }
        headers = {"Content-Type": "application/json"}
        credential = os.environ.get(self.config.credential_env, "")
        if credential:
            headers["Authorization"] = f"Bearer {credential}"
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            request = urllib.request.Request(self.config.endpoint, data=body, headers=headers, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    data = json.loads(response.read().decode("utf-8"))
                return check(data["choices"][0]["message"]["content"], "a string", "reply content")
            except (urllib.error.URLError, OSError, LookupError, TypeError, ValueError) as exc:
                last_error = exc
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff * (2**attempt))
        raise LlmError(f"chat request failed after {self.max_retries} attempts: {last_error}")
