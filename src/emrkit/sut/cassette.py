"""Record/replay of SUT interactions.

A cassette is a JSON Lines file (see ``emrkit.jsonl``) with one
``{"fingerprint", "output"}`` line per SUT interaction, written as it
happens; a line that cannot be written ends the run (``RunAborted``). Replay
serves entries strictly in order; a fingerprint mismatch is an error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .. import jsonl
from ..runtime.errors import AdapterFailure, RunAborted
from ..runtime.values import Action, Output


# json.dumps(..., sort_keys=True, separators=(",", ":")) without a new encoder per interaction.
_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def fingerprint(action: Action) -> str:
    """Action kind plus canonically ordered parameters."""
    return _compact_json({"kind": action.kind, "parameters": action.parameters})


class Cassette:
    def __init__(self, path: str | Path):
        self.path = Path(path)

    def create(self) -> "Cassette":
        """Create the file empty, or empty an existing one, open until ``close``."""
        self._file = jsonl.Appender(self.path)
        self.close = self._file.close
        return self

    def load(self) -> list[tuple[str, Output]]:
        """Every recorded (fingerprint, output) pair, in recording order."""
        entries = []
        for number, entry in enumerate(jsonl.read(self.path), 1):
            entry = jsonl.check(entry, "a JSON object", f"line {number}")
            recorded = jsonl.check(entry.get("fingerprint"), "a string", f"line {number} field 'fingerprint'")
            output = jsonl.check(entry.get("output"), "a JSON object", f"line {number} field 'output'")
            entries.append((recorded, Output.from_json(output, f"line {number} output")))
        return entries

    def append(self, fp: str, output: Output) -> None:
        try:
            self._file.write([{"fingerprint": fp, "output": output.to_json()}])
        except OSError as exc:
            raise RunAborted(exc.errno, exc.strerror, exc.filename) from exc


class _RecordingSession:
    def __init__(self, inner: Any, cassette: Cassette):
        self.inner = inner
        self.cassette = cassette

    def execute(self, action: Action) -> Output:
        output = self.inner.execute(action)
        self.cassette.append(fingerprint(action), output)
        return output


class _Replay:
    """The replay session factory and its only session: every session of a
    run is this object, so its one cursor serves entries in the exact order
    they were recorded across the whole run."""

    def __init__(self, entries: list[tuple[str, Output]]):
        self.entries = entries
        self.cursor = 0

    def __call__(self) -> "_Replay":
        return self

    def execute(self, action: Action) -> Output:
        if self.cursor >= len(self.entries):
            raise AdapterFailure(f"cassette exhausted after {self.cursor} interactions")
        recorded, output = self.entries[self.cursor]
        got = fingerprint(action)
        if recorded != got:
            raise AdapterFailure(f"cassette fingerprint mismatch: recorded {recorded}, requested {got}")
        self.cursor += 1
        return output


def record_replay(
    mode: str,
    cassette_path: str | Path | Cassette,
    inner_factory: Callable[[], Any] | None = None,
) -> Callable[[], Any]:
    """Session factory that records to or replays from ``cassette_path``.

    ``record`` wraps ``inner_factory``, empties the cassette here (so an
    unwritable path fails before any interaction) and appends every
    interaction as it happens (or takes a created ``Cassette``, which its
    caller closes). ``replay`` needs no inner factory and never touches the
    real SUT. It decodes every entry up front, so a bad cassette fails here.
    """
    if mode == "record":
        if inner_factory is None:
            raise ValueError("record mode needs an inner session factory")
        cassette = cassette_path if isinstance(cassette_path, Cassette) else Cassette(cassette_path).create()
        return lambda: _RecordingSession(inner_factory(), cassette)
    if mode == "replay":
        return _Replay(Cassette(cassette_path).load())
    raise ValueError(f"mode must be 'record' or 'replay', not {mode!r}")
