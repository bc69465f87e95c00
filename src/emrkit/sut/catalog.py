"""API catalogs: the functions a SUT exposes, with docs for prompt injection."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence


class SchemaError(Exception):
    def __init__(self, message: str, entry: Any = None):
        if entry is not None:
            message = f"{message}: {json.dumps(entry, sort_keys=True)[:200]}"
        super().__init__(message)
        self.entry = entry


@dataclass
class ApiEntry:
    name: str
    parameters: list[tuple[str, str]]  # (name, semantic type)
    returns: str
    doc: str

    def signature(self) -> str:
        params = ", ".join(f"{ptype} {pname}" for pname, ptype in self.parameters)
        return f"{self.returns} {self.name}({params})"


@dataclass
class ApiCatalog:
    entries: list[ApiEntry]

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def render_for_prompt(self) -> str:
        if not self.entries:
            return "(no API documentation is available for this system)"
        blocks = [f"{e.signature()}\n    {e.doc}" for e in self.entries]
        return "\n".join(blocks)


def _parse_entry(raw: Mapping[str, Any]) -> ApiEntry:
    if not isinstance(raw, Mapping):
        raise SchemaError("catalog entry must be an object", raw)
    for key in ("name", "returns", "doc"):
        if not isinstance(raw.get(key), str) or not raw[key].strip():
            raise SchemaError(f"catalog entry needs a non-empty '{key}'", dict(raw))
    params_raw = raw.get("parameters", [])
    if not isinstance(params_raw, Sequence) or isinstance(params_raw, str):
        raise SchemaError("'parameters' must be a list", dict(raw))
    parameters: list[tuple[str, str]] = []
    for p in params_raw:
        if not isinstance(p, Mapping) or "name" not in p or "type" not in p:
            raise SchemaError("parameter needs 'name' and 'type'", dict(raw))
        parameters.append((str(p["name"]), str(p["type"])))
    return ApiEntry(raw["name"], parameters, raw["returns"], raw["doc"])


def load_api_catalog(path: str | Path) -> ApiCatalog:
    """Load a catalog file (JSON list of entries), preserving file order."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise SchemaError("catalog file must contain a JSON list")
    entries = [_parse_entry(item) for item in raw]
    seen: set[str] = set()
    for e in entries:
        if e.name in seen:
            raise SchemaError(f"duplicate catalog entry name '{e.name}'")
        seen.add(e.name)
    return ApiCatalog(entries)


EMPTY_CATALOG = ApiCatalog([])
