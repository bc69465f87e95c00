"""Record/replay of SUT interactions.

A cassette is an append-ordered JSON list of (request fingerprint, output)
pairs. Replay serves entries strictly in order; a fingerprint mismatch is
an error, never a silent fallthrough.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from ..runtime.errors import AdapterFailure
from ..runtime.values import Action, Output


class FingerprintMismatch(AdapterFailure):
    def __init__(self, expected: str, got: str):
        super().__init__(f"cassette fingerprint mismatch: recorded {expected}, requested {got}")
        self.expected = expected
        self.got = got


class CassetteExhausted(AdapterFailure):
    pass


def fingerprint(action: Action) -> str:
    """Action kind plus canonically ordered parameters."""
    return json.dumps(
        {"kind": action.kind, "parameters": action.parameters},
        sort_keys=True,
        separators=(",", ":"),
    )


class Cassette:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: list[dict[str, Any]] = []

    def load(self) -> "Cassette":
        self.entries = json.loads(self.path.read_text(encoding="utf-8"))
        return self

    def append(self, fp: str, output: Output) -> None:
        self.entries.append({"fingerprint": fp, "output": output.to_json()})
        self.save()

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(self.entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


class _RecordingSession:
    def __init__(self, inner: Any, cassette: Cassette):
        self.inner = inner
        self.cassette = cassette

    def execute(self, action: Action) -> Output:
        output = self.inner.execute(action)
        self.cassette.append(fingerprint(action), output)
        return output


class _ReplaySession:
    """All replay sessions share one cursor: entries are consumed in the
    exact order they were recorded across the whole run."""

    def __init__(self, state: dict[str, Any]):
        self.state = state

    def execute(self, action: Action) -> Output:
        cursor = self.state["cursor"]
        if cursor >= len(self.state["entries"]):
            raise CassetteExhausted(f"cassette exhausted after {cursor} interactions")
        recorded, output = self.state["entries"][cursor]
        got = fingerprint(action)
        if recorded != got:
            raise FingerprintMismatch(recorded, got)
        self.state["cursor"] = cursor + 1
        return output


def record_replay(
    mode: str,
    cassette_path: str | Path,
    inner_factory: Callable[[], Any] | None = None,
) -> Callable[[], Any]:
    """Session factory that records to or replays from ``cassette_path``.

    ``record`` wraps ``inner_factory`` and persists every interaction;
    ``replay`` needs no inner factory and never touches the real SUT. It
    decodes every entry up front, so a malformed cassette fails here.
    """
    if mode == "record":
        if inner_factory is None:
            raise ValueError("record mode needs an inner session factory")
        cassette = Cassette(cassette_path)
        cassette.save()
        return lambda: _RecordingSession(inner_factory(), cassette)
    if mode == "replay":
        cassette = Cassette(cassette_path).load()
        entries = [(e["fingerprint"], Output.from_json(e["output"])) for e in cassette.entries]
        state = {"entries": entries, "cursor": 0}
        return lambda: _ReplaySession(state)
    raise ValueError(f"mode must be 'record' or 'replay', not {mode!r}")
