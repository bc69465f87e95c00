"""Live HTTP adapter: maps actions onto a request/response SUT.

The per-SUT adapter config is a JSON file:

    {
      "base_url": "http://localhost:8099",
      "actions": {
        "search": {"path": "/search", "method": "GET"},
        "login":  {"path": "/login",  "method": "POST"}
      }
    }

GET requests carry parameters in the query string, POST requests as a JSON
body. A JSON response shaped like {"status", "payload", "summary_size"} is
an ``Output`` (a field of the wrong type is an ``AdapterFailure``); any
other JSON document becomes the payload. A list payload without a summary
size reports its length.
"""

from __future__ import annotations

import json
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .._record import Record
from ..jsonl import check
from ..runtime.errors import AdapterFailure
from ..runtime.values import Action, Output


@dataclass(eq=False, repr=False)
class AdapterConfig(Record):
    """A live SUT's base URL and the request that each action kind maps to."""

    base_url: str
    actions: dict[str, dict[str, str]]

    @classmethod
    def load(cls, path: str | Path) -> "AdapterConfig":
        raw = check(json.loads(Path(path).read_text(encoding="utf-8")), "a JSON object", "the adapter config")
        base_url = check(raw.get("base_url"), "a string", "adapter config field 'base_url'")
        actions = check(raw.get("actions"), "a JSON object", "adapter config field 'actions'")
        for kind, mapping in actions.items():
            check(mapping, "a JSON object", f"action '{kind}'")
            check(mapping.get("path"), "a string", f"action '{kind}' field 'path'")
            check(mapping.get("method", "GET"), "a string", f"action '{kind}' field 'method'")
        return cls(base_url.rstrip("/"), actions)


def _to_output(status_code: int, body: bytes) -> Output:
    status = "ok" if 200 <= status_code < 300 else "error"
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return Output(status, body.decode("utf-8", "replace"), 0)
    if isinstance(data, dict) and "status" in data and "payload" in data:
        payload = data["payload"]
        data.setdefault("summary_size", len(payload) if isinstance(payload, list) else 0)
        try:
            return Output.from_json(data, "live response")
        except ValueError as exc:
            raise AdapterFailure(str(exc)) from exc
    return Output(status, data, len(data) if isinstance(data, list) else 0)


@dataclass(eq=False, repr=False)
class LiveHttpSut(Record):
    """A live SUT keeps no session state of its own, so it is its own
    session factory: every session is the SUT itself."""

    config: AdapterConfig
    timeout: float = 10.0

    @classmethod
    def from_config_file(cls, path: str | Path) -> "LiveHttpSut":
        return cls(AdapterConfig.load(path))

    def __call__(self) -> "LiveHttpSut":
        return self

    def execute(self, action: Action) -> Output:
        # Imported here: urllib.request loads http.client, ssl and email,
        # which no offline command needs.
        import urllib.error
        import urllib.request

        mapping = self.config.actions.get(action.kind)
        if mapping is None:
            raise AdapterFailure(f"adapter config has no mapping for action kind '{action.kind}'")
        url = self.config.base_url + mapping["path"]
        method = mapping.get("method", "GET").upper()
        data = None
        headers = {"Accept": "application/json"}
        if method == "GET":
            if action.parameters:
                url += "?" + urllib.parse.urlencode(action.parameters)
        else:
            data = json.dumps(action.parameters).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                output = _to_output(response.status, response.read())
        except urllib.error.HTTPError as exc:
            output = _to_output(exc.code, exc.read())
        except (urllib.error.URLError, OSError) as exc:
            raise AdapterFailure(f"{method} {url} failed: {exc}") from exc
        return output
