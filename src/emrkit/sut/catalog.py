"""API catalogs: the functions a SUT exposes, with docs for prompt injection."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .._record import Record
from ..jsonl import check


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


def _parse_entry(number: int, raw: Any) -> ApiEntry:
    what = f"catalog entry {number}"
    raw = check(raw, "a JSON object", what)
    text = {}
    for key in ("name", "returns", "doc"):
        text[key] = check(raw.get(key), "a string", f"{what} field '{key}'")
        if not text[key].strip():
            raise ValueError(f"{what} field '{key}' must be a non-blank string, not {json.dumps(text[key])}")
    what = f"catalog entry '{text['name']}'"
    parameters: list[tuple[str, str]] = []
    for index, p in enumerate(check(raw.get("parameters", []), "a JSON list", f"{what} field 'parameters'"), 1):
        p = check(p, "a JSON object", f"{what} parameter {index}")
        parameters.append((check(p.get("name"), "a string", f"{what} parameter field 'name'"),
                           check(p.get("type"), "a string", f"{what} parameter field 'type'")))
    return ApiEntry(parameters=parameters, **text)


def load_api_catalog(path: str | Path) -> ApiCatalog:
    """Load a catalog file (JSON list of entries), preserving file order."""
    raw = check(json.loads(Path(path).read_text(encoding="utf-8")), "a JSON list", "the API catalog")
    entries = [_parse_entry(number, item) for number, item in enumerate(raw, 1)]
    seen: set[str] = set()
    for e in entries:
        if e.name in seen:
            raise ValueError(f"duplicate catalog entry name '{e.name}'")
        seen.add(e.name)
    return ApiCatalog(entries)


EMPTY_CATALOG = ApiCatalog([])
