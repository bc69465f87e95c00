"""The top level, each row and each typed field of every input file go
through ``jsonl.check``.

``FIELDS`` has one entry per value: the loader that reads it, a minimal
valid record, the value's path in that record, the JSON kind it must hold
and the name the error gives it. Each ``tests/test_cli_fuzz.py`` swap value
that is not of that kind must be refused with ``<what> must be <kind>, not
<value>``. A loader that coerced the value instead (``str()``, ``int()``,
``dict()``) would load it without error, and the CLI would exit 0, which
the fuzz test accepts; this test does not. A field whose key is deleted
must be refused as null is, unless it may be absent (``ABSENT_LOADS``).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest

from emrkit import cli, jsonl
from emrkit.grading import load_annotations
from emrkit.pipeline import MockChatClient, load_fewshot, load_mr_catalog
from emrkit.resources import fixture_path
from emrkit.runtime import ActionSequence
from emrkit.sut.cassette import Cassette
from emrkit.sut.catalog import load_api_catalog
from emrkit.sut.live import AdapterConfig
from test_cli_fuzz import SWAPS

# The SWAPS values of each kind, as JSON: every other SWAPS value must be refused.
ACCEPTED = {
    "a string": {'""', '"x"'},
    "a string or null": {"null", '""', '"x"'},
    "an integer": {"0", "-1"},
    "a number": {"0", "-1", "2.5"},
    "a boolean": {"true"},
    "a JSON object": {"{}", '{"k": 1}'},
    "a JSON list": {"[]", "[null]"},
    "a list of strings": {"[]"},
}


class Loader(NamedTuple):
    load: Callable[[Path], Any]
    record: Any
    one_line: bool = False  # the file holds the record as one JSON line


LOADERS = {
    "mr-catalog": Loader(load_mr_catalog, [
        {"id": "m1", "text": "t", "document_id": "d", "requirement_ref": None, "source_sentences": []}]),
    "mock-scripts": Loader(MockChatClient.from_file, [
        {"pipeline": "derive", "phase": 1, "content_hash": "*", "response": "ok"}]),
    "config": Loader(cli._read_config, asdict(cli.ToolConfig())),
    "annotations": Loader(load_annotations, {"emr": "x", "line": 3, "labels": ["C"], "note": None}, one_line=True),
    "fewshot": Loader(load_fewshot, json.loads(fixture_path("fewshot.json").read_text(encoding="utf-8"))[:1]),
    "api-catalog": Loader(load_api_catalog, [
        {"name": "f", "parameters": [{"name": "a", "type": "Action"}], "returns": "boolean", "doc": "d"}]),
    "cassette": Loader(lambda path: Cassette(path).load(), {
        "fingerprint": "a", "output": {"status": "ok", "payload": None, "summary_size": 0}}, one_line=True),
    "input-sequence": Loader(lambda path: ActionSequence.from_json(json.loads(path.read_text(encoding="utf-8"))),
                             [{"kind": "search", "parameters": {}}]),
    "live-config": Loader(AdapterConfig.load, {"base_url": "http://h", "actions": {"search": {"path": "/s"}}}),
}

MR, SCRIPT = "MR field", "mock script field"
# (loader, path of the field in its record, kind, what the error calls it)
FIELDS: list[tuple[str, tuple[Any, ...], str, str]] = [
    ("mr-catalog", (), "a JSON list", "the MR catalog"),
    ("mr-catalog", (0,), "a JSON object", "MR 1"),
    ("mr-catalog", (0, "id"), "a string", f"{MR} 'id'"),
    ("mr-catalog", (0, "text"), "a string", f"{MR} 'text'"),
    ("mr-catalog", (0, "document_id"), "a string", f"{MR} 'document_id'"),
    ("mr-catalog", (0, "requirement_ref"), "a string or null", f"{MR} 'requirement_ref'"),
    ("mr-catalog", (0, "source_sentences"), "a list of strings", f"{MR} 'source_sentences'"),
    ("mock-scripts", (), "a JSON list", "the mock scripts"),
    ("mock-scripts", (0,), "a JSON object", "mock script 1"),
    ("mock-scripts", (0, "pipeline"), "a string", f"{SCRIPT} 'pipeline'"),
    ("mock-scripts", (0, "phase"), "an integer", f"{SCRIPT} 'phase'"),
    ("mock-scripts", (0, "content_hash"), "a string", f"{SCRIPT} 'content_hash'"),
    ("mock-scripts", (0, "response"), "a string", f"{SCRIPT} 'response'"),
    ("config", (), "a JSON object", "the config"),
    ("config", ("llm",), "a JSON object", "'llm' in config"),
    ("config", ("llm", "endpoint"), "a string", "'llm.endpoint' in config"),
    ("config", ("llm", "model"), "a string", "'llm.model' in config"),
    ("config", ("llm", "temperature"), "a number", "'llm.temperature' in config"),
    ("config", ("llm", "max_response_tokens"), "an integer", "'llm.max_response_tokens' in config"),
    ("config", ("llm", "credential_env"), "a string", "'llm.credential_env' in config"),
    ("config", ("mock",), "a boolean", "'mock' in config"),
    ("config", ("mock_scripts",), "a string", "'mock_scripts' in config"),
    ("config", ("templates_dir",), "a string or null", "'templates_dir' in config"),
    ("config", ("fewshot",), "a string", "'fewshot' in config"),
    ("config", ("out_dir",), "a string", "'out_dir' in config"),
    ("config", ("turn_budget",), "an integer", "'turn_budget' in config"),
    ("config", ("sut",), "a string", "'sut' in config"),
    ("config", ("stubs_module",), "a string", "'stubs_module' in config"),
    ("annotations", (), "a JSON object", "line 1"),
    ("annotations", ("emr",), "a string", "emr"),
    ("annotations", ("line",), "an integer", "x: line"),
    ("annotations", ("note",), "a string or null", "x line 3: note"),
    ("annotations", ("labels",), "a list of strings", "x line 3: labels"),
    ("fewshot", (), "a JSON list", "the few-shot examples"),
    ("fewshot", (0,), "a JSON object", "few-shot example 1"),
    ("fewshot", (0, "mr"), "a string", "few-shot example 1 field 'mr'"),
    ("fewshot", (0, "emr"), "a string", "few-shot example 1 field 'emr'"),
    ("api-catalog", (), "a JSON list", "the API catalog"),
    ("api-catalog", (0,), "a JSON object", "catalog entry 1"),
    ("api-catalog", (0, "name"), "a string", "catalog entry 1 field 'name'"),
    ("api-catalog", (0, "returns"), "a string", "catalog entry 1 field 'returns'"),
    ("api-catalog", (0, "doc"), "a string", "catalog entry 1 field 'doc'"),
    ("api-catalog", (0, "parameters"), "a JSON list", "catalog entry 'f' field 'parameters'"),
    ("api-catalog", (0, "parameters", 0), "a JSON object", "catalog entry 'f' parameter 1"),
    ("api-catalog", (0, "parameters", 0, "name"), "a string", "catalog entry 'f' parameter field 'name'"),
    ("api-catalog", (0, "parameters", 0, "type"), "a string", "catalog entry 'f' parameter field 'type'"),
    ("cassette", (), "a JSON object", "line 1"),
    ("cassette", ("fingerprint",), "a string", "line 1 field 'fingerprint'"),
    ("cassette", ("output",), "a JSON object", "line 1 field 'output'"),
    ("cassette", ("output", "status"), "a string", "line 1 output field 'status'"),
    ("cassette", ("output", "summary_size"), "an integer", "line 1 output field 'summary_size'"),
    ("input-sequence", (), "a JSON list", "the input sequence"),
    ("input-sequence", (0,), "a JSON object", "action at position 0"),
    ("input-sequence", (0, "kind"), "a string", "action at position 0 field 'kind'"),
    ("input-sequence", (0, "parameters"), "a JSON object", "action at position 0 field 'parameters'"),
    ("live-config", (), "a JSON object", "the adapter config"),
    ("live-config", ("base_url",), "a string", "adapter config field 'base_url'"),
    ("live-config", ("actions",), "a JSON object", "adapter config field 'actions'"),
    ("live-config", ("actions", "search"), "a JSON object", "action 'search'"),
    ("live-config", ("actions", "search", "path"), "a string", "action 'search' field 'path'"),
    ("live-config", ("actions", "search", "method"), "a string", "action 'search' field 'method'"),
]


# The fields besides those of the config (which all have defaults) and those
# that admit null that may be absent: each has a default, and
# "actions.search" is an entry of a map, whose absence is an adapter without
# that action.
ABSENT_LOADS = {
    ("mr-catalog", (0, "document_id")), ("mr-catalog", (0, "source_sentences")),
    ("mock-scripts", (0, "content_hash")), ("api-catalog", (0, "parameters")),
    ("cassette", ("output", "summary_size")), ("input-sequence", (0, "parameters")),
    ("live-config", ("actions", "search")), ("live-config", ("actions", "search", "method")),
}
# The FIELDS entries that a key names: deleting it makes the field absent.
KEYED = [(loader, path, kind, what) for loader, path, kind, what in FIELDS if path and isinstance(path[-1], str)]


def _copied(record: Any, path: tuple[Any, ...]) -> tuple[Any, Any]:
    """A deep copy of ``record`` and, in it, the container ``path`` ends in."""
    record = json.loads(json.dumps(record))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    return record, parent


def _replaced(record: Any, path: tuple[Any, ...], value: Any) -> Any:
    if not path:
        return value
    record, parent = _copied(record, path)
    parent[path[-1]] = value
    return record


@pytest.mark.parametrize("loader, path, kind, what", FIELDS,
                         ids=[f"{loader}:{'.'.join(map(str, path)) or 'whole'}" for loader, path, _, _ in FIELDS])
def test_a_value_of_another_kind_is_refused_naming_the_field(tmp_path, loader, path, kind, what):
    load, record, one_line = LOADERS[loader]
    refused = [value for value in SWAPS if json.dumps(value) not in ACCEPTED[kind]]
    assert refused
    for value in refused:
        file = tmp_path / "input.json"
        file.write_text(json.dumps(_replaced(record, path, value)) + ("\n" if one_line else ""), encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load(file)
        assert str(excinfo.value) == f"{what} must be {kind}, not {json.dumps(value)}"


@pytest.mark.parametrize("loader, path, kind, what", KEYED,
                         ids=[f"{loader}:{'.'.join(map(str, path))}" for loader, path, _, _ in KEYED])
def test_a_missing_field_is_refused_as_null_is(tmp_path, loader, path, kind, what):
    load, record, one_line = LOADERS[loader]
    record, parent = _copied(record, path)
    parent.pop(path[-1], None)  # a minimal record may leave a defaulted field out already
    file = tmp_path / "input.json"
    file.write_text(json.dumps(record) + ("\n" if one_line else ""), encoding="utf-8")
    if "null" in ACCEPTED[kind] or loader == "config" or (loader, path) in ABSENT_LOADS:
        load(file)
    else:
        with pytest.raises(ValueError) as excinfo:
            load(file)
        assert str(excinfo.value) == f"{what} must be {kind}, not null"


@pytest.mark.parametrize("loader", LOADERS)
def test_each_minimal_record_loads(tmp_path, loader):
    load, record, one_line = LOADERS[loader]
    file = tmp_path / "input.json"
    file.write_text(json.dumps(record) + ("\n" if one_line else ""), encoding="utf-8")
    load(file)


def test_every_kind_is_a_key_of_the_check_table():
    assert set(ACCEPTED) == set(jsonl._KINDS)
