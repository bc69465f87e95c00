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
taken as-is; any other JSON document becomes the payload (lists report
their length as summary size).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from ..runtime.errors import AdapterFailure
from ..runtime.values import Action, Output


class TransportError(AdapterFailure):
    pass


@dataclass
class AdapterConfig:
    base_url: str
    actions: dict[str, dict[str, str]]

    @classmethod
    def load(cls, path: str | Path) -> "AdapterConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or "base_url" not in raw or "actions" not in raw:
            raise ValueError("adapter config must be a JSON object with 'base_url' and 'actions'")
        if not isinstance(raw["base_url"], str) or not isinstance(raw["actions"], dict):
            raise ValueError("adapter config needs a string 'base_url' and an object 'actions'")
        for kind, mapping in raw["actions"].items():
            if not isinstance(mapping, dict) or not isinstance(mapping.get("path"), str):
                raise ValueError(f"action '{kind}' must be an object with a string 'path'")
            if not isinstance(mapping.get("method", "GET"), str):
                raise ValueError(f"action '{kind}' has a 'method' that is not a string")
        return cls(raw["base_url"].rstrip("/"), raw["actions"])


def _to_output(status_code: int, body: bytes) -> Output:
    status = "ok" if 200 <= status_code < 300 else "error"
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return Output(status, body.decode("utf-8", "replace"), 0)
    if isinstance(data, dict) and "status" in data and "payload" in data:
        return Output(
            str(data["status"]),
            data["payload"],
            int(data.get("summary_size", len(data["payload"]) if isinstance(data["payload"], list) else 0)),
        )
    return Output(status, data, len(data) if isinstance(data, list) else 0)


@dataclass
class LiveHttpSession:
    config: AdapterConfig
    timeout: float = 10.0

    def execute(self, action: Action) -> Output:
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
            raise TransportError(f"{method} {url} failed: {exc}") from exc
        return output


@dataclass
class LiveHttpSut:
    config: AdapterConfig
    timeout: float = 10.0

    @classmethod
    def from_config_file(cls, path: str | Path, timeout: float = 10.0) -> "LiveHttpSut":
        return cls(AdapterConfig.load(path), timeout)

    def session(self) -> LiveHttpSession:
        return LiveHttpSession(self.config, self.timeout)

    def __call__(self) -> LiveHttpSession:
        return self.session()
