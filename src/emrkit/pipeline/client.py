"""Chat clients: a live chat-completions client and a scripted mock.

The mock is keyed by (pipeline, phase, content hash of the latest user
message); script files may give the hash as "*" to match any content.
Several entries under one key form a queue consumed call by call, so a
phase that repeats (one message per MR) can be scripted. An unknown key
raises MissingScript: the mock never fabricates a reply.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from .conversation import Conversation


class LlmTransport(Exception):
    """The chat endpoint could not produce a response (retries exhausted)."""


class MissingScript(Exception):
    def __init__(self, pipeline: str, phase: int, content_hash: str):
        super().__init__(
            f"no scripted response for pipeline={pipeline!r} phase={phase} content_hash={content_hash}"
        )
        self.key = (pipeline, phase, content_hash)


@dataclass
class LlmConfig:
    endpoint: str = ""
    model: str = "mock"
    temperature: float = 0.0
    max_response_tokens: int = 4096
    credential_env: str = "EMRKIT_API_KEY"

    def to_json(self) -> dict:
        # The credential itself never enters transcripts, only the env var name.
        return {
            "endpoint": self.endpoint,
            "model": self.model,
            "temperature": self.temperature,
            "max_response_tokens": self.max_response_tokens,
            "credential_env": self.credential_env,
        }


class ChatClient(Protocol):
    def complete(self, conversation: Conversation) -> str: ...


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class MockChatClient:
    """Deterministic scripted client for tests and --mock runs."""

    queues: dict[tuple[str, int, str], list[str]] = field(default_factory=dict)

    @classmethod
    def from_scripts(cls, scripts: list[dict]) -> "MockChatClient":
        client = cls()
        for entry in scripts:
            key = (entry["pipeline"], int(entry["phase"]), entry.get("content_hash", "*"))
            client.queues.setdefault(key, []).append(entry["response"])
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
        raise MissingScript(conversation.pipeline, last.phase, digest)


@dataclass
class LiveChatClient:
    """Chat-completions style HTTP client with bounded retries."""

    config: LlmConfig
    max_retries: int = 3
    backoff: float = 0.5

    def complete(self, conversation: Conversation) -> str:
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
                return data["choices"][0]["message"]["content"]
            except (urllib.error.URLError, OSError, KeyError, ValueError) as exc:
                last_error = exc
                time.sleep(self.backoff * (2**attempt))
        raise LlmTransport(f"chat request failed after {self.max_retries} attempts: {last_error}")
