"""API catalogs: the functions a SUT exposes, with docs for prompt injection."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .._record import Record
from ..jsonl import check


def _entry_error(message: str, entry: Any) -> ValueError:
    """A catalog error that quotes the start of the entry it is about."""
    if entry is not None:
        message = f"{message}: {json.dumps(entry, sort_keys=True)[:200]}"
    return ValueError(message)


@dataclass(eq=False, repr=False)
class ApiEntry(Record):
    """One documented SUT function: name, typed parameters, return type and description."""

    name: str
    parameters: list[tuple[str, str]]  # (name, semantic type)
    returns: str
    doc: str

    def signature(self) -> str:
        params = ", ".join(f"{ptype} {pname}" for pname, ptype in self.parameters)
        return f"{self.returns} {self.name}({params})"


@dataclass(eq=False, repr=False)
class ApiCatalog(Record):
    """The documented SUT functions that the generate prompt lists."""

    entries: list[ApiEntry]

    def render_for_prompt(self) -> str:
        if not self.entries:
            return "(no API documentation is available for this system)"
        blocks = [f"{e.signature()}\n    {e.doc}" for e in self.entries]
        return "\n".join(blocks)


def _parse_entry(raw: Mapping[str, Any]) -> ApiEntry:
    if not isinstance(raw, Mapping):
        raise _entry_error("catalog entry must be an object", raw)
    for key in ("name", "returns", "doc"):
        if not isinstance(raw.get(key), str) or not raw[key].strip():
            raise _entry_error(f"catalog entry needs a non-empty '{key}'", dict(raw))
    params_raw = raw.get("parameters", [])
    if not isinstance(params_raw, Sequence) or isinstance(params_raw, str):
        raise _entry_error("'parameters' must be a list", dict(raw))
    parameters: list[tuple[str, str]] = []
    for p in params_raw:
        if not isinstance(p, Mapping) or "name" not in p or "type" not in p:
            raise _entry_error("parameter needs 'name' and 'type'", dict(raw))
        what = f"catalog entry '{raw['name']}' parameter field"
        parameters.append((check(p["name"], "a string", f"{what} 'name'"),
                           check(p["type"], "a string", f"{what} 'type'")))
    return ApiEntry(raw["name"], parameters, raw["returns"], raw["doc"])


def load_api_catalog(path: str | Path) -> ApiCatalog:
    """Load a catalog file (JSON list of entries), preserving file order."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise ValueError("catalog file must contain a JSON list")
    entries = [_parse_entry(item) for item in raw]
    seen: set[str] = set()
    for e in entries:
        if e.name in seen:
            raise ValueError(f"duplicate catalog entry name '{e.name}'")
        seen.add(e.name)
    return ApiCatalog(entries)


EMPTY_CATALOG = ApiCatalog([])
