"""Record/replay of SUT interactions.

A cassette is a JSON Lines file (see ``emrkit.jsonl``) with one
``{"fingerprint", "output"}`` line per SUT interaction, appended as the
interaction happens. Replay serves entries strictly in order; a fingerprint
mismatch is an error, never a silent fallthrough.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .. import jsonl
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

    def create(self) -> "Cassette":
        """Create the file empty, or empty an existing one."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(b"")
        return self

    def load(self) -> list[tuple[str, Output]]:
        """Every recorded (fingerprint, output) pair, in recording order."""
        entries = []
        for number, entry in enumerate(jsonl.read(self.path), 1):
            if not isinstance(entry, dict) or not isinstance(entry.get("fingerprint"), str) or "output" not in entry:
                raise ValueError(f"line {number} is not an object with a string 'fingerprint' and an 'output'")
            entries.append((entry["fingerprint"], Output.from_json(entry["output"])))
        return entries

    def append(self, fp: str, output: Output) -> None:
        jsonl.append(self.path, [{"fingerprint": fp, "output": output.to_json()}])


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

    ``record`` wraps ``inner_factory``, empties the cassette here (so an
    unwritable path fails before any interaction) and appends every
    interaction as it happens. ``replay`` needs no inner factory and never
    touches the real SUT. It decodes every entry up front, so a malformed
    cassette fails here.
    """
    if mode == "record":
        if inner_factory is None:
            raise ValueError("record mode needs an inner session factory")
        cassette = Cassette(cassette_path).create()
        return lambda: _RecordingSession(inner_factory(), cassette)
    if mode == "replay":
        state = {"entries": Cassette(cassette_path).load(), "cursor": 0}
        return lambda: _ReplaySession(state)
    raise ValueError(f"mode must be 'record' or 'replay', not {mode!r}")
