"""Fuzz the CLI's input boundary: every kind of input file, mutated.

``KINDS`` has one entry per input the CLI reads: the file's name, the bytes
it starts from, its format and the command that reads it. ``mutants`` makes
seeded variants of those bytes: each sampled JSON value replaced by a value
of another type, a value nested deeply, the file cut short, a non-UTF-8
prefix, the whole file nested too deeply for the JSON decoder, an empty file,
every key (or line) written twice, and one key deleted. For each mutant ``cli.main`` must
return one of the documented exit codes without raising or printing a
traceback, and an exit 2 must name the file.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

from emrkit import cli
from emrkit.resources import asset_path, fixture_path

DOC = str(fixture_path("requirements_shop.md"))
FIG4 = str(fixture_path("search_filter.smrl"))
INPUTS = str(fixture_path("inputs"))
SUITE = str(fixture_path("suite"))

DOCUMENTED_EXITS = {
    cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_LLM, cli.EXIT_ALL_FAILED, cli.EXIT_FAILURES, cli.EXIT_ERRORS,
    cli.EXIT_NOT_EXECUTABLE,
}

# A value of each JSON type; a type swap picks one whose type differs from the
# value it replaces (a boolean is not a number here, as in the loaders).
SWAPS: list[Any] = [None, True, 0, -1, 2.5, "", "x", [], [None], {}, {"k": 1}]
SWAPS_PER_KIND = 48
DELETES_PER_KIND = 8
CUTS_PER_KIND = 4
DECODER_DEPTH = 100_000  # deeper than json's recursion limit
WALKER_DEPTH = 500  # decodes, then reaches any recursive walk of the value


@dataclass(frozen=True)
class Kind:
    name: str  # the file written under tmp_path; its first part is what an exit 2 names
    base: Callable[[dict[str, Path]], bytes]
    fmt: str  # "json", "jsonl" or "text"
    command: tuple[str, ...]  # after --mock --out; "{path}" is the file, "{mrs}" an MR catalog
    config_key: str | None = None  # set: the file reaches the CLI through this --config key


def _fixture(*parts: str) -> Callable[[dict[str, Path]], bytes]:
    return lambda made: fixture_path(*parts).read_bytes()


def _config(made: dict[str, Path]) -> bytes:
    resolved = asdict(cli.ToolConfig())
    del resolved["templates_dir"]  # a string there is a valid config naming another file
    return json.dumps(resolved).encode()


def _adapter_config(made: dict[str, Path]) -> bytes:
    config = json.loads(fixture_path("adapter_config_example.json").read_bytes())
    config["base_url"] = "http://127.0.0.1:1"  # a closed loopback port: each request is refused at once
    return json.dumps(config).encode()


def _template(made: dict[str, Path]) -> bytes:
    return asset_path("derive_phase2_document.txt").read_bytes()


KINDS = [
    Kind("config.json", _config, "json", ("--config", "{path}", "pipeline", DOC)),
    Kind("scripts.json", _fixture("mock_scripts.json"), "json", ("pipeline", DOC), "mock_scripts"),
    Kind("templates/derive_phase2_document.txt", _template, "text", ("derive", DOC), "templates_dir"),
    Kind("doc.md", _fixture("requirements_shop.md"), "text", ("derive", "{path}")),
    Kind("catalog.json", _fixture("api_catalog_search_filter.json"), "json",
         ("generate", "{mrs}", "--catalog", "{path}")),
    Kind("mrs.json", lambda made: made["mrs"].read_bytes(), "json", ("generate", "{path}")),
    Kind("fewshot.json", _fixture("fewshot.json"), "json", ("generate", "{mrs}"), "fewshot"),
    Kind("emr.smrl", _fixture("search_filter.smrl"), "text", ("run", "{path}", "--inputs", INPUTS)),
    Kind("adapter.json", _adapter_config, "json", ("run", FIG4, "--inputs", INPUTS, "--sut", "live:{path}")),
    Kind("cassette.jsonl", lambda made: made["cassette"].read_bytes(), "jsonl",
         ("run", FIG4, "--inputs", INPUTS, "--sut", "replay:{path}")),
    Kind("input.json", _fixture("inputs", "login_search_desk.json"), "json", ("run", FIG4, "--inputs", "{path}")),
    Kind("annotations.jsonl", _fixture("suite_annotations.jsonl"), "jsonl", ("grade", "{path}", "--emrs", SUITE)),
    Kind("survey.csv", _fixture("survey_responses.csv"), "text", ("survey", "{path}")),
]


def _paths(value: Any, path: tuple = ()) -> Iterator[tuple]:
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*path, index))


def _at(value: Any, path: tuple) -> Any:
    for step in path:
        value = value[step]
    return value


def _replaced(value: Any, path: tuple, new: Any) -> Any:
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _replaced(value[head], rest, new)}
    return [_replaced(item, rest, new) if index == head else item for index, item in enumerate(value)]


def _deleted(value: Any, path: tuple) -> Any:
    """``value`` without the key that ``path`` ends in."""
    head, rest = path[0], path[1:]
    if not rest:
        return {key: item for key, item in value.items() if key != head}
    if isinstance(value, dict):
        return {**value, head: _deleted(value[head], rest)}
    return [_deleted(item, rest) if index == head else item for index, item in enumerate(value)]


def _repeating_keys(value: Any, decoy: Any) -> str:
    """``value`` as JSON with every key written twice, ``decoy`` first."""
    if isinstance(value, dict):
        pairs = [f"{json.dumps(k)}: {json.dumps(decoy)}, {json.dumps(k)}: {_repeating_keys(v, decoy)}"
                 for k, v in value.items()]
        return "{" + ", ".join(pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_repeating_keys(item, decoy) for item in value) + "]"
    return json.dumps(value)


def _nested(depth: int) -> Any:
    value: Any = []
    for _ in range(depth - 1):
        value = [value]
    return value


def mutants(kind: Kind, base: bytes) -> Iterator[tuple[str, bytes]]:
    """(label, bytes) for each mutant of ``base``, the same on every run."""
    rng = random.Random(kind.name)
    for cut in sorted(rng.sample(range(1, len(base)), CUTS_PER_KIND)):
        yield f"cut at byte {cut}", base[:cut]
    yield "non-UTF-8 prefix", b"\xff\xfe" + base
    yield "nested too deep to decode", b"[" * DECODER_DEPTH + b"]" * DECODER_DEPTH
    yield "empty", b""
    if kind.fmt == "text":
        yield "every line twice", b"".join(line * 2 for line in base.splitlines(keepends=True))
        return
    # A JSON Lines file is mutated as the list of its records.
    value = [json.loads(line) for line in base.splitlines()] if kind.fmt == "jsonl" else json.loads(base)

    def encode(new: Any, dump: Callable[[Any], str] = json.dumps) -> bytes:
        if kind.fmt == "jsonl":
            return "".join(dump(record) + "\n" for record in new).encode()
        return dump(new).encode()

    paths = list(_paths(value))
    if kind.fmt == "jsonl":
        paths = [path for path in paths if path]  # the file itself is always a list of lines
    swaps = [(path, new) for path in paths for new in SWAPS if type(new) is not type(_at(value, path))]
    for path, new in rng.sample(swaps, min(SWAPS_PER_KIND, len(swaps))):
        yield f"{list(path)} = {json.dumps(new)}", encode(_replaced(value, path, new))
    path = rng.choice(paths)
    yield f"{list(path)} nested {WALKER_DEPTH} deep", encode(_replaced(value, path, _nested(WALKER_DEPTH)))
    yield "every key twice", encode(value, lambda new: _repeating_keys(new, [None]))
    keys = [path for path in paths if path and isinstance(path[-1], str)]
    for path in rng.sample(keys, min(DELETES_PER_KIND, len(keys))):
        yield f"{list(path)} deleted", encode(_deleted(value, path))


@pytest.fixture(scope="module")
def made(tmp_path_factory) -> dict[str, Path]:
    """Inputs the CLI itself writes: an MR catalog and a cassette."""
    root = tmp_path_factory.mktemp("made")
    assert cli.main(["--mock", "--out", str(root), "derive", DOC]) == cli.EXIT_OK
    cassette = root / "cassette.jsonl"
    assert cli.main(["--out", str(root), "run", FIG4, "--inputs", INPUTS, "--record", str(cassette)]) == cli.EXIT_OK
    return {"mrs": root / "mrs.json", "cassette": cassette}


@pytest.mark.parametrize("kind", KINDS, ids=[kind.name.split("/")[0] for kind in KINDS])
def test_every_mutant_of_an_input_file_exits_with_a_documented_code(kind, made, tmp_path, capsys):
    target = tmp_path / kind.name
    target.parent.mkdir(parents=True, exist_ok=True)
    named = tmp_path / Path(kind.name).parts[0]  # the file, or the templates directory
    argv = ["--mock", "--out", str(tmp_path / "out")]
    if kind.config_key:
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({kind.config_key: str(named)}))
        argv += ["--config", str(config)]
    argv += [a.replace("{path}", str(named)).replace("{mrs}", str(made["mrs"])) for a in kind.command]
    base = kind.base(made)
    for label, content in mutants(kind, base):
        target.write_bytes(content)
        try:
            code = cli.main(argv)
        except Exception as exc:  # the CLI would have printed a traceback
            pytest.fail(f"{kind.name}, {label}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert code in DOCUMENTED_EXITS, (kind.name, label, code, err)
        assert "Traceback" not in err, (kind.name, label, err)
        if code == cli.EXIT_INPUT:
            assert str(named) in err, (kind.name, label, err)
