"""Command-line interface: the subcommands are the ``COMMANDS`` table at the
bottom of this module. Exit codes form a fixed mapping:

    0  success (run: no Fail verdicts)
    2  bad usage, an input file that cannot be read or understood, an
       output directory that is not one, or an output file that cannot be
       written; the message names the file (or the --config key)
    3  a failed LLM conversation: any LlmError (transport, a missing mock
       script, a reply in the wrong format)
    4  every EMR in a generate batch failed to parse
    5  at least one Fail verdict
    6  at least one Error entry: a pair that raised (a SUT adapter failure,
       a runtime error, a stub that raised) or an EMR that failed validation;
       report.txt lists each one's reason
    7  EMRs not executable (unbound stub functions)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from . import jsonl
from ._record import Record
from .dsl import DslError, canonical_units, parse_emr
from .dsl.repair import repair
from .dsl.validate import validate
from .grading import (
    emr_size_stats,
    load_annotations,
    load_survey,
    summarize_annotations,
    summarize_survey,
)
from .pipeline import (
    LiveChatClient,
    LlmConfig,
    LlmError,
    MetamorphicRelation,
    MockChatClient,
    TranscriptStore,
    dedupe_mrs,
    derive_mrs,
    generate_emrs,
    ingest_document,
    load_fewshot,
    load_mr_catalog,
    save_mr_catalog,
)
from .pipeline.templates import DeriveTemplates, GenerateTemplates
from .resources import fixture_path
from .runtime import ActionSequence, run_suite
from .sut import (
    EMPTY_CATALOG,
    Cassette,
    LiveHttpSut,
    MockShopSut,
    load_api_catalog,
    record_replay,
)

# The stdout record of ``check`` and ``repair``, and the compact output files
# (the C encoder): json.dumps without a new encoder per call.
_record_json = json.JSONEncoder(sort_keys=True).encode
_file_json = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LLM = 3
EXIT_ALL_FAILED = 4
EXIT_FAILURES = 5
EXIT_ERRORS = 6
EXIT_NOT_EXECUTABLE = 7


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


# What reading and decoding an input file raises when the file is missing,
# unreadable or not in the expected format: ``json`` raises RecursionError on
# a document nested too deep, and every emrkit error for bad input is a
# ValueError, a wrong shape too: each loader checks the file's top level,
# each row and each field, a missing field as null (``jsonl.check``).
_INPUT_ERRORS = (OSError, ValueError, RecursionError)


def _load(what: str, path: str | Path | None, loader: Callable[..., Any], *args: Any) -> Any:
    """``loader(path, *args)``: the one place where an input file that cannot
    be read or understood becomes exit 2, with a message that names it."""
    try:
        return loader(path, *args)
    except _INPUT_ERRORS as exc:
        # An OSError's path is already in the message.
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        named = f"{what} {path}" if what else path
        raise CliError(f"cannot read {named}: {reason}")


@dataclass(eq=False, repr=False)
class ToolConfig(Record):
    """Fully resolved tool configuration; every default is materialized."""

    llm: LlmConfig = field(default_factory=LlmConfig)
    mock: bool = False
    mock_scripts: str = str(fixture_path("mock_scripts.json"))
    templates_dir: str | None = None
    fewshot: str = str(fixture_path("fewshot.json"))
    out_dir: str = "out"
    turn_budget: int = 12000
    sut: str = "mock"
    stubs_module: str = "emrkit.shopstubs"

    @functools.cached_property
    def chat_client(self):  # one per configuration: ``pipeline`` reads the mock scripts once
        if self.mock:
            return _load("mock scripts", self.mock_scripts, MockChatClient.from_file)
        if not self.llm.endpoint:
            raise CliError("live mode needs llm.endpoint in the config (or pass --mock)")
        return LiveChatClient(self.llm)

    def conversation_config(self) -> dict[str, Any]:
        return {"model": self.llm.model if not self.mock else "mock", "temperature": self.llm.temperature}


# The JSON kind of a config field, by the type of its default (None stands for ``str | None``).
_CONFIG_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
                 type(None): "a string or null"}


def _read_config(path: str) -> ToolConfig:
    raw = jsonl.check(json.loads(Path(path).read_text(encoding="utf-8")), "a JSON object", "the config")
    config = ToolConfig()
    _overlay(config.llm, jsonl.check(raw.get("llm", {}), "a JSON object", "'llm' in config"), "llm.")
    _overlay(config, raw, "")
    if config.turn_budget < 1:
        raise ValueError(f"'turn_budget' in config must be at least 1, not {config.turn_budget}")
    return config


def _overlay(target: Any, raw: dict[str, Any], prefix: str) -> None:
    """Set each field of the dataclass ``target`` that ``raw`` names to a
    value of the field's JSON kind (an int for a float field becomes a
    float). Nested dataclasses are left to the caller."""
    for f in fields(target):
        default = getattr(target, f.name)
        if f.name not in raw or is_dataclass(default):
            continue
        value = jsonl.check(raw[f.name], _CONFIG_KINDS[type(default)], f"'{prefix}{f.name}' in config")
        setattr(target, f.name, float(value) if isinstance(default, float) else value)


def _cannot_write(path: Path, exc: OSError) -> CliError:
    # ``exc.filename`` names the directory when that is what failed.
    return CliError(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _write(verbose: bool, path: Path, content: str | Callable[[Path], Any] | None) -> None:
    """The one writer of every output file: ``content`` is text, a function
    that writes the file at the path it is given, or None to remove ``path``.
    A failure is exit 2 naming the file; --verbose reports each file written."""
    try:
        if content is None:
            path.unlink(missing_ok=True)
        elif callable(content):
            content(path)
        else:
            jsonl.rewrite(path, content.encode("utf-8"))
    except OSError as exc:
        raise _cannot_write(path, exc)
    if verbose and content is not None:
        print(f"wrote {path}", file=sys.stderr)


Write = Callable[[Path, "str | Callable[[Path], Any] | None"], None]  # ``_write`` with --verbose bound


@contextlib.contextmanager
def _conversation(failure: str, store: TranscriptStore):
    """A failed conversation is exit 3; a transcript that cannot be written, exit 2. Either way, closed."""
    try:
        yield
    except LlmError as exc:
        raise CliError(f"{failure}: {exc}", EXIT_LLM)
    except OSError as exc:
        raise _cannot_write(store.directory, exc)
    finally:
        store.close()


def _dump_json(data: Any) -> str:
    return _file_json(data) + "\n"


# --- subcommands --------------------------------------------------------------


def cmd_derive(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    _derive(args, config, write)
    return EXIT_OK


def _derive(args: argparse.Namespace, config: ToolConfig, write: Write) -> list[MetamorphicRelation]:
    """Derive, deduplicate and write ``mrs.json``; the MRs it holds."""
    out = Path(config.out_dir)
    store = TranscriptStore(out / "transcripts")
    templates = _load("templates", config.templates_dir, DeriveTemplates.load)
    client = config.chat_client
    all_mrs = []
    derived: dict[str, str] = {}  # doc id -> the path derived with it
    for doc_path in args.documents:
        document = _load("document", doc_path, ingest_document)
        # Equal content shares a doc id, and so a transcript name: derive it once.
        if document.doc_id in derived:
            print(f"warning: {doc_path} has the content of {derived[document.doc_id]}; derived once",
                  file=sys.stderr)
            continue
        derived[document.doc_id] = doc_path
        with _conversation(f"derivation failed for {doc_path}", store):
            result = derive_mrs(
                document,
                client,
                store,
                templates,
                config=config.conversation_config(),
                turn_budget=config.turn_budget,
            )
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"{document.name}: {len(result.mrs)} MR(s) derived")
        if not result.mrs and not args.allow_empty:
            raise CliError(f"no MRs derived from {doc_path} (use --allow-empty to accept)", EXIT_LLM)
        all_mrs.extend(result.mrs)
    all_mrs, dropped = dedupe_mrs(all_mrs)
    if dropped:
        print(f"merged {dropped} duplicate MR(s)")
    write(out / "mrs.json", functools.partial(save_mr_catalog, all_mrs))
    return all_mrs


def _load_catalog(path: str | None):
    return _load("API catalog", path, load_api_catalog) if path else EMPTY_CATALOG


def cmd_generate(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    return _generate(_load("MR catalog", args.mrs, load_mr_catalog), args.catalog, config, write)


def _generate(mrs: list[MetamorphicRelation], catalog_path: str | None, config: ToolConfig, write: Write) -> int:
    out = Path(config.out_dir)
    catalog = _load_catalog(catalog_path)
    fewshot = _load("few-shot examples", config.fewshot, load_fewshot)
    if not mrs:
        print("notice: MR catalog is empty; nothing to generate")
        return EXIT_OK
    client = config.chat_client
    store = TranscriptStore(out / "transcripts")
    templates = _load("templates", config.templates_dir, GenerateTemplates.load)
    with _conversation("generation failed", store):
        result = generate_emrs(
            mrs, catalog, fewshot, client, store, templates, config=config.conversation_config()
        )
    emr_dir = out / "emrs"
    # The files of an MR: its EMR and three sidecars when the reply parses, the
    # rejected reply when it does not. Each outcome removes the other's files,
    # so a rerun into the same --out leaves no stale EMR to check or run.
    for item in result.items:
        print(f"{item.mr_id}: {item.status}")
        if item.status == "unparseable":
            print(f"warning: {item.mr_id}: reply does not parse: {item.error}", file=sys.stderr)
            write(emr_dir / f"{item.mr_id}.rejected.txt", (item.source or "") + "\n")
            for suffix in (".smrl", ".stubs.json", ".repairs.json", ".explanations.json"):
                write(emr_dir / f"{item.mr_id}{suffix}", None)
            continue
        write(emr_dir / f"{item.mr_id}.smrl", (item.source or "") + "\n")
        write(emr_dir / f"{item.mr_id}.stubs.json", _dump_json(item.stubs))
        write(emr_dir / f"{item.mr_id}.repairs.json", _dump_json([e.to_json() for e in item.repair_log.entries]))
        write(emr_dir / f"{item.mr_id}.explanations.json", _dump_json(item.explanations))
        write(emr_dir / f"{item.mr_id}.rejected.txt", None)
    if all(item.status == "unparseable" for item in result.items):
        print("error: every EMR failed to parse", file=sys.stderr)
        return EXIT_ALL_FAILED
    return EXIT_OK


# A .smrl file's suffix says what it is, so its messages name only the path.
def _read_smrl(path: Path) -> str:
    return _load("", path, Path.read_text, "utf-8")


# ``run``, ``check`` and ``grade`` parse without the ``//`` explanations: none
# of their outputs holds one.
def _parse_smrl(path: Path):
    return parse_emr(path.read_text(encoding="utf-8"), path.stem, explanations=False)


def _read_input(path: Path) -> ActionSequence:
    return ActionSequence.from_json(json.loads(path.read_text(encoding="utf-8")))


def _collect(paths: Sequence[str], pattern: str, noun: str) -> list[Path]:
    """The files named by ``paths``, each directory contributing its files
    that match ``pattern`` in sorted order; no two may share a stem, their id."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob(pattern)))
        elif path.exists():
            files.append(path)
        else:
            raise CliError(f"no such {noun} file or directory: {path}")
    if not files:
        raise CliError(f"no {noun} files found in {', '.join(paths)}")
    by_stem: dict[str, Path] = {}
    for file in files:
        first = by_stem.setdefault(file.stem, file)
        if first is not file:
            raise CliError(f"two {noun} files named {file.stem}: {first} and {file}")
    return files


def cmd_check(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    catalog = _load_catalog(args.catalog)
    worst = EXIT_OK
    for path in _collect(args.emrs, "*.smrl", ".smrl"):
        try:
            ast = parse_emr(_read_smrl(path), path.stem, explanations=False)
        except DslError as exc:
            print(json.dumps({"file": str(path), "severity": "error", "message": str(exc)}))
            worst = EXIT_INPUT
            continue
        diags = validate(ast, catalog)
        for diag in diags:
            record = {"file": str(path), **diag.to_json()}
            print(_record_json(record))
            if diag.severity == "error":
                worst = EXIT_INPUT
        if not diags:
            print(json.dumps({"file": str(path), "severity": "none", "message": "clean"}))
    return worst


def cmd_repair(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    out = Path(config.out_dir) / "repaired"
    for path in _collect(args.emrs, "*.smrl", ".smrl"):
        fixed, log = repair(_read_smrl(path))
        for entry in log.entries:
            print(_record_json({"file": str(path), **entry.to_json()}))
        if args.in_place:
            write(path, functools.partial(jsonl.replace, data=fixed.encode("utf-8")))
        else:
            write(out / path.name, fixed)
    return EXIT_OK


def _load_stubs(module_name: str):
    if not module_name or module_name == "none":
        return {}
    try:
        module = importlib.import_module(module_name)
    except Exception as exc:  # not found, or the module raised while it ran
        reason = exc if isinstance(exc, ImportError) else f"{type(exc).__name__}: {exc}"
        raise CliError(f"cannot import stubs module '{module_name}': {reason}")
    stubs = getattr(module, "STUBS", None)
    if not isinstance(stubs, dict):
        raise CliError(f"stubs module '{module_name}' does not define a STUBS dict")
    return stubs


def _session_factory(spec: str, record_cassette: str | None, on_end: Callable[..., Any]):
    """The session factory of ``spec``; ``on_end`` gets the close of a cassette it records to."""
    kind, _, detail = spec.partition(":")
    if kind == "mock":
        try:
            factory = MockShopSut(detail or None)
        except ValueError as exc:  # an unknown fault; the message lists the known ones
            raise CliError(f"mock SUT: {exc}")
    elif kind == "live":
        if not detail:
            raise CliError("--sut live:<adapter-config.json> needs a config path")
        factory = _load("adapter config", detail, LiveHttpSut.from_config_file)
    elif kind == "replay":
        if not detail:
            raise CliError("--sut replay:<cassette.jsonl> needs a cassette path")
        if record_cassette:
            raise CliError("--record cannot be combined with --sut replay: a replay never reaches the SUT")
        return _load("cassette", detail, functools.partial(record_replay, "replay"))
    else:
        raise CliError(f"unknown SUT spec '{spec}' (use mock[:fault], live:<config>, replay:<cassette.jsonl>)")
    if record_cassette:
        cassette = Cassette(record_cassette).create()
        on_end(cassette.close)
        return record_replay("record", cassette, factory)
    return factory


def cmd_run(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    emrs = [_load("", path, _parse_smrl) for path in _collect(args.emrs, "*.smrl", ".smrl")]
    input_files = _collect(args.inputs, "*.json", "input-sequence")
    inputs = [_load("input sequence", path, _read_input) for path in input_files]
    stubs = _load_stubs(args.stubs if args.stubs is not None else config.stubs_module)
    with contextlib.ExitStack() as run:
        try:
            factory = _session_factory(args.sut or config.sut, args.record, run.callback)
            report = run_suite(emrs, inputs, factory, stubs, input_names=[p.stem for p in input_files])
        except OSError as exc:  # the cassette cannot be created, or a line of it written (RunAborted)
            raise CliError(f"cannot write cassette {args.record}: {exc.strerror or exc}")
    per_emr, unbound = report.tally()
    out = Path(config.out_dir)
    write(out / "report.json", _dump_json(report.to_json(per_emr)))
    text = report.to_text(per_emr)
    write(out / "report.txt", text + "\n")
    print(text)
    if unbound:
        print(f"not executable; unbound stubs: {', '.join(unbound)}", file=sys.stderr)
        return EXIT_NOT_EXECUTABLE
    outcomes = {outcome for counts in per_emr.values() for outcome in counts}
    if "Error" in outcomes:
        return EXIT_ERRORS
    if "Fail" in outcomes:
        return EXIT_FAILURES
    return EXIT_OK


def cmd_grade(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    units = stats = None
    if args.emrs:
        units = {path.stem: canonical_units(_load("", path, _parse_smrl))
                 for path in _collect(args.emrs, "*.smrl", ".smrl")}
        stats = emr_size_stats(units.values())
    annotations = _load("annotations", args.annotations, load_annotations, units)
    statement_count = args.statements
    if statement_count is None:
        statement_count = stats.total if stats is not None else len(annotations)
    try:
        report = summarize_annotations(annotations, statement_count)
    except ValueError as exc:  # --statements below the number of annotations
        raise CliError(f"cannot grade {args.annotations}: {exc}")
    out = Path(config.out_dir)
    write(out / "grade.json", _dump_json(report.to_json()))
    print(report.to_text())
    if stats is not None:
        write(out / "sizes.json", _dump_json(stats.to_json()))
        mean = f"{stats.mean:.1f}" if stats.mean is not None else "-"
        print(f"sizes: min {stats.min} mean {mean} max {stats.max} total {stats.total}")
    return EXIT_OK


def cmd_survey(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    responses = _load("survey", args.responses, load_survey)
    report = summarize_survey(responses)
    write(Path(config.out_dir) / "survey.json", _dump_json(report.to_json()))
    print(report.to_text())
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    # Generates from the MRs that derive wrote to mrs.json, without reading it back.
    return _generate(_derive(args, config, write), args.catalog, config, write)


def cmd_show_config(args: argparse.Namespace, config: ToolConfig, write: Write) -> int:
    print(json.dumps(asdict(config), indent=2, sort_keys=True, ensure_ascii=False))
    return EXIT_OK


# --- the subcommand table -------------------------------------------------------


def _arg(*flags: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, options


# The arguments more than one subcommand takes.
_DOCUMENTS = _arg("documents", nargs="+", help="requirements documents (text/markdown)")
_ALLOW_EMPTY = _arg("--allow-empty", action="store_true", help="succeed even when a document yields no MRs")
_CATALOG = _arg("--catalog", help="SUT API catalog (JSON)")
_EMRS = _arg("emrs", nargs="+", help=".smrl files or directories")

# name -> (function, whether it writes under --out, help, arguments...)
COMMANDS: dict[str, tuple[Any, ...]] = {
    "derive": (cmd_derive, True, "derive MRs from requirements documents", _DOCUMENTS, _ALLOW_EMPTY),
    "generate": (cmd_generate, True, "generate EMRs from an MR catalog",
                 _arg("mrs", help="MR catalog file (mrs.json)"), _CATALOG),
    "check": (cmd_check, False, "parse and validate EMR files", _EMRS, _CATALOG),
    "repair": (cmd_repair, True, "apply the auto-repair rules to EMR sources",
               _EMRS, _arg("--in-place", action="store_true", help="rewrite the input files")),
    "run": (cmd_run, True, "evaluate EMRs against a SUT", _EMRS,
            _arg("--inputs", nargs="+", required=True, help="input-sequence JSON files or directories"),
            _arg("--sut", help="mock[:fault] | live:<adapter-config> | replay:<cassette.jsonl>"),
            _arg("--record", help="record interactions to this cassette file (JSON Lines)"),
            _arg("--stubs", help="Python module providing a STUBS dict ('none' for no stubs)")),
    "grade": (cmd_grade, True, "summarize statement annotations",
              _arg("annotations", help="line-oriented JSON annotation file"),
              _arg("--emrs", nargs="*", help="the annotated .smrl files (enables line/class checks)"),
              _arg("--statements", type=int, help="total statement count (defaults to EMR statement total)")),
    "survey": (cmd_survey, True, "aggregate Likert survey responses",
               _arg("responses", help="CSV with header subject,statement,respondent,rating")),
    "pipeline": (cmd_pipeline, True, "derive then generate in one go", _DOCUMENTS, _CATALOG, _ALLOW_EMPTY),
    "show-config": (cmd_show_config, False, "print the fully resolved configuration"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emrkit",
        description="Derive, generate, repair, execute, and grade executable metamorphic relations.",
    )
    parser.add_argument("--config", help="tool config file (JSON)")
    parser.add_argument("--mock", action="store_true", help="use the scripted mock chat client")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--verbose", action="store_true", help="report every file written")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, summary, *arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
    return parser


def _check_out_dir(out_dir: str) -> None:
    """Fail before any work when the output directory cannot be created: it,
    or the nearest of its parents that exists, is not a directory."""
    out = Path(out_dir)
    nearest = next((p for p in (out, *out.parents) if p.exists()), None)
    if nearest is not None and not nearest.is_dir():
        blocker = "it" if nearest == out else str(nearest)
        raise CliError(f"cannot use output directory {out_dir}: {blocker} is not a directory")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, writes, *_ = COMMANDS[args.command]
    try:
        config = _load("config", args.config, _read_config) if args.config else ToolConfig()
        config.mock |= args.mock
        config.out_dir = args.out or config.out_dir
        if writes:
            _check_out_dir(config.out_dir)
        return command(args, config, functools.partial(_write, args.verbose))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
