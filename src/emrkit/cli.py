"""Command-line interface.

Subcommands: derive, generate, check, repair, run, grade, survey, pipeline,
show-config. Exit codes form a fixed mapping:

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
import functools
import importlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from . import jsonl
from .dsl import DslError, parse_emr, repair, validate
from .grading import (
    emr_size_stats,
    load_annotations,
    load_survey,
    summarize_annotations,
    summarize_survey,
)
from .pipeline import (
    DeriveResult,
    LiveChatClient,
    LlmConfig,
    LlmError,
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
    LiveHttpSut,
    MockShopSut,
    load_api_catalog,
    record_replay,
)

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
# unreadable or not in the expected format: every emrkit error for bad input
# is a ValueError, and ``json`` raises RecursionError on a document nested
# too deep. A well-formed document of the wrong shape fails in the code that
# indexes into it, hence the last three.
_SHAPE_ERRORS = (LookupError, TypeError, AttributeError)
_INPUT_ERRORS = (OSError, ValueError, RecursionError, *_SHAPE_ERRORS)


def _load(what: str, path: str | Path | None, loader: Callable[..., Any], *args: Any) -> Any:
    """``loader(path, *args)``: the one place where an input file that cannot
    be read or understood becomes exit 2, with a message that names it."""
    try:
        return loader(path, *args)
    except _INPUT_ERRORS as exc:
        reason: Any = exc
        if isinstance(exc, OSError) and exc.strerror:
            reason = exc.strerror  # the path is already in the message
        elif isinstance(exc, _SHAPE_ERRORS):
            reason = f"unexpected structure ({type(exc).__name__}: {exc})"
        named = f"{what} {path}" if what else path
        raise CliError(f"cannot read {named}: {reason}")


@dataclass
class ToolConfig:
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

    @classmethod
    def load(cls, path: str | None, args: argparse.Namespace) -> "ToolConfig":
        config = _load("config", path, _read_config) if path else cls()
        if getattr(args, "mock", False):
            config.mock = True
        if getattr(args, "out", None):
            config.out_dir = args.out
        return config

    def chat_client(self):
        if self.mock:
            return _load("mock scripts", self.mock_scripts, MockChatClient.from_file)
        if not self.llm.endpoint:
            raise CliError("live mode needs llm.endpoint in the config (or pass --mock)")
        return LiveChatClient(self.llm)

    def conversation_config(self) -> dict[str, Any]:
        return {"model": self.llm.model if not self.mock else "mock", "temperature": self.llm.temperature}


# The JSON values a config field takes, by the type of its default (None
# stands for ``str | None``); a JSON boolean is never a number.
_CONFIG_VALUES: dict[type, tuple[str, tuple[type, ...]]] = {
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    type(None): ("a string or null", (str, type(None))),
}


def _read_config(path: str) -> ToolConfig:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("the config must be a JSON object")
    llm_raw = raw.get("llm", {})
    if not isinstance(llm_raw, dict):
        raise ValueError("'llm' in config must be a JSON object")
    config = ToolConfig()
    _overlay(config.llm, llm_raw, "llm.")
    _overlay(config, raw, "")
    if config.turn_budget < 1:
        raise ValueError(f"'turn_budget' in config must be at least 1, not {config.turn_budget}")
    return config


def _overlay(target: Any, raw: dict[str, Any], prefix: str) -> None:
    """Set each field of the dataclass ``target`` that ``raw`` names to a
    value of the field's type (an int for a float field becomes a float).
    Nested dataclasses are left to the caller."""
    for f in fields(target):
        default = getattr(target, f.name)
        if f.name not in raw or is_dataclass(default):
            continue
        value = raw[f.name]
        kind, allowed = _CONFIG_VALUES[type(default)]
        if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, allowed):
            raise ValueError(f"'{prefix}{f.name}' in config must be {kind}, not {json.dumps(value)}")
        setattr(target, f.name, float(value) if isinstance(default, float) else value)


def _cannot_write(path: Path, exc: OSError) -> CliError:
    # ``exc.filename`` names the directory when that is what failed.
    return CliError(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _write(path: Path, text: str, verbose: bool) -> None:
    try:
        jsonl.rewrite(path, text.encode("utf-8"))
    except OSError as exc:
        raise _cannot_write(path, exc)
    if verbose:
        print(f"wrote {path}", file=sys.stderr)


def _dump_json(data: Any) -> str:
    # Compact: without ``indent``, json.dumps runs its C encoder.
    return json.dumps(data, sort_keys=True, ensure_ascii=False) + "\n"


# --- subcommands --------------------------------------------------------------


def cmd_derive(args: argparse.Namespace, config: ToolConfig) -> int:
    out = Path(config.out_dir)
    store = TranscriptStore(out / "transcripts")
    templates = _load("templates", config.templates_dir, DeriveTemplates.load)
    client = config.chat_client()
    all_mrs = []
    for doc_path in args.documents:
        document = _load("document", doc_path, ingest_document)
        try:
            result: DeriveResult = derive_mrs(
                document,
                client,
                store,
                templates,
                config=config.conversation_config(),
                turn_budget=config.turn_budget,
            )
        except LlmError as exc:
            raise CliError(f"derivation failed for {doc_path}: {exc}", EXIT_LLM)
        except OSError as exc:
            raise _cannot_write(store.directory, exc)
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"{document.name}: {len(result.mrs)} MR(s) derived")
        if not result.mrs and not args.allow_empty:
            raise CliError(f"no MRs derived from {doc_path} (use --allow-empty to accept)", EXIT_LLM)
        all_mrs.extend(result.mrs)
    all_mrs, dropped = dedupe_mrs(all_mrs)
    if dropped:
        print(f"merged {dropped} duplicate MR(s)")
    try:
        save_mr_catalog(all_mrs, out / "mrs.json")
    except OSError as exc:
        raise _cannot_write(out / "mrs.json", exc)
    if args.verbose:
        print(f"wrote {out / 'mrs.json'}", file=sys.stderr)
    return EXIT_OK


def _load_catalog(path: str | None):
    return _load("API catalog", path, load_api_catalog) if path else EMPTY_CATALOG


# The files generate writes for an MR: its EMR and three sidecars when the
# reply parses, the rejected reply when it does not. Each outcome removes the
# other's files, so a rerun into the same --out leaves no stale EMR to check
# or run.
_EMR_SUFFIXES = (".smrl", ".stubs.json", ".repairs.json", ".explanations.json")
_REJECTED_SUFFIXES = (".rejected.txt",)


def _remove(directory: Path, mr_id: str, suffixes: tuple[str, ...]) -> None:
    for suffix in suffixes:
        path = directory / f"{mr_id}{suffix}"
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise _cannot_write(path, exc)


def cmd_generate(args: argparse.Namespace, config: ToolConfig) -> int:
    out = Path(config.out_dir)
    mrs = _load("MR catalog", args.mrs, load_mr_catalog)
    catalog = _load_catalog(args.catalog)
    fewshot = _load("few-shot examples", config.fewshot, load_fewshot)
    if not mrs:
        print("notice: MR catalog is empty; nothing to generate")
        return EXIT_OK
    client = config.chat_client()
    store = TranscriptStore(out / "transcripts")
    templates = _load("templates", config.templates_dir, GenerateTemplates.load)
    try:
        result = generate_emrs(
            mrs, catalog, fewshot, client, store, templates, config=config.conversation_config()
        )
    except LlmError as exc:
        raise CliError(f"generation failed: {exc}", EXIT_LLM)
    except OSError as exc:
        raise _cannot_write(store.directory, exc)
    emr_dir = out / "emrs"
    ok_count = 0
    for item in result.items:
        print(f"{item.mr_id}: {item.status}")
        if item.status == "unparseable":
            _write(emr_dir / f"{item.mr_id}.rejected.txt", (item.source or "") + "\n", args.verbose)
            _remove(emr_dir, item.mr_id, _EMR_SUFFIXES)
            continue
        ok_count += 1
        _write(emr_dir / f"{item.mr_id}.smrl", (item.source or "") + "\n", args.verbose)
        _write(emr_dir / f"{item.mr_id}.stubs.json", _dump_json(item.stubs), args.verbose)
        _write(
            emr_dir / f"{item.mr_id}.repairs.json",
            _dump_json([e.to_json() for e in item.repair_log.entries]),
            args.verbose,
        )
        _write(emr_dir / f"{item.mr_id}.explanations.json", _dump_json(item.explanations), args.verbose)
        _remove(emr_dir, item.mr_id, _REJECTED_SUFFIXES)
    if ok_count == 0:
        print("error: every EMR failed to parse", file=sys.stderr)
        return EXIT_ALL_FAILED
    return EXIT_OK


# A .smrl file's suffix says what it is, so its messages name only the path.
def _read_smrl(path: Path) -> str:
    return _load("", path, Path.read_text, "utf-8")


def _parse_smrl(path: Path):
    return parse_emr(path.read_text(encoding="utf-8"), path.stem)


def _read_input(path: Path) -> ActionSequence:
    return ActionSequence.from_json(json.loads(path.read_text(encoding="utf-8")))


def _collect(paths: Sequence[str], pattern: str, noun: str) -> list[Path]:
    """The files named by ``paths``, each directory contributing its files
    that match ``pattern`` in sorted order."""
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
    return files


def cmd_check(args: argparse.Namespace, config: ToolConfig) -> int:
    catalog = _load_catalog(args.catalog)
    worst = EXIT_OK
    for path in _collect(args.emrs, "*.smrl", ".smrl"):
        try:
            ast = parse_emr(_read_smrl(path), path.stem)
        except DslError as exc:
            print(json.dumps({"file": str(path), "severity": "error", "message": str(exc)}))
            worst = EXIT_INPUT
            continue
        diags = validate(ast, catalog)
        for diag in diags:
            record = {"file": str(path), **diag.to_json()}
            print(json.dumps(record, sort_keys=True))
            if diag.severity == "error":
                worst = EXIT_INPUT
        if not diags:
            print(json.dumps({"file": str(path), "severity": "none", "message": "clean"}))
    return worst


def cmd_repair(args: argparse.Namespace, config: ToolConfig) -> int:
    out = Path(config.out_dir) / "repaired"
    for path in _collect(args.emrs, "*.smrl", ".smrl"):
        fixed, log = repair(_read_smrl(path))
        for entry in log.entries:
            print(json.dumps({"file": str(path), **entry.to_json()}, sort_keys=True))
        _write(path if args.in_place else out / path.name, fixed, args.verbose)
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


def _session_factory(spec: str, record_cassette: str | None):
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
        return _load("cassette", detail, functools.partial(record_replay, "replay"))
    else:
        raise CliError(f"unknown SUT spec '{spec}' (use mock[:fault], live:<config>, replay:<cassette.jsonl>)")
    if record_cassette:
        try:
            return record_replay("record", record_cassette, factory)
        except OSError as exc:
            raise CliError(f"cannot write cassette {record_cassette}: {exc.strerror or exc}")
    return factory


def cmd_run(args: argparse.Namespace, config: ToolConfig) -> int:
    emrs = [_load("", path, _parse_smrl) for path in _collect(args.emrs, "*.smrl", ".smrl")]
    input_files = _collect(args.inputs, "*.json", "input-sequence")
    inputs = [_load("input sequence", path, _read_input) for path in input_files]
    stubs = _load_stubs(args.stubs if args.stubs is not None else config.stubs_module)
    factory = _session_factory(args.sut or config.sut, args.record)
    report = run_suite(emrs, inputs, factory, stubs, input_names=[p.stem for p in input_files])
    out = Path(config.out_dir)
    _write(out / "report.json", _dump_json(report.to_json()), args.verbose)
    text = report.to_text()
    _write(out / "report.txt", text + "\n", args.verbose)
    print(text)
    unbound = report.not_executable_stubs
    if unbound:
        print(f"not executable; unbound stubs: {', '.join(unbound)}", file=sys.stderr)
        return EXIT_NOT_EXECUTABLE
    if report.has_errors:
        return EXIT_ERRORS
    if report.has_failures:
        return EXIT_FAILURES
    return EXIT_OK


def cmd_grade(args: argparse.Namespace, config: ToolConfig) -> int:
    emrs = stats = None
    statement_count = args.statements
    if args.emrs:
        emrs = {path.stem: _load("", path, _parse_smrl) for path in _collect(args.emrs, "*.smrl", ".smrl")}
        stats = emr_size_stats(emrs.values())
        if statement_count is None:
            statement_count = stats.total
    annotations = _load("annotations", args.annotations, load_annotations, emrs)
    if statement_count is None:
        statement_count = len(annotations)
    try:
        report = summarize_annotations(annotations, statement_count)
    except ValueError as exc:  # --statements below the number of annotations
        raise CliError(f"cannot grade {args.annotations}: {exc}")
    out = Path(config.out_dir)
    _write(out / "grade.json", _dump_json(report.to_json()), args.verbose)
    print(report.to_text())
    if stats is not None:
        _write(out / "sizes.json", _dump_json(stats.to_json()), args.verbose)
        mean = f"{stats.mean:.1f}" if stats.mean is not None else "-"
        print(f"sizes: min {stats.min} mean {mean} max {stats.max} total {stats.total}")
    return EXIT_OK


def cmd_survey(args: argparse.Namespace, config: ToolConfig) -> int:
    responses = _load("survey", args.responses, load_survey)
    report = summarize_survey(responses)
    out = Path(config.out_dir)
    _write(out / "survey.json", _dump_json(report.to_json()), args.verbose)
    print(report.to_text())
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace, config: ToolConfig) -> int:
    code = cmd_derive(args, config)
    if code != EXIT_OK:
        return code
    args.mrs = str(Path(config.out_dir) / "mrs.json")
    return cmd_generate(args, config)


def cmd_show_config(args: argparse.Namespace, config: ToolConfig) -> int:
    print(json.dumps(asdict(config), indent=2, sort_keys=True, ensure_ascii=False))
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------


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

    p = sub.add_parser("derive", help="derive MRs from requirements documents")
    p.add_argument("documents", nargs="+", help="requirements documents (text/markdown)")
    p.add_argument("--allow-empty", action="store_true", help="succeed even when a document yields no MRs")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("generate", help="generate EMRs from an MR catalog")
    p.add_argument("mrs", help="MR catalog file (mrs.json)")
    p.add_argument("--catalog", help="SUT API catalog (JSON)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="parse and validate EMR files")
    p.add_argument("emrs", nargs="+", help=".smrl files or directories")
    p.add_argument("--catalog", help="SUT API catalog (JSON)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repair", help="apply the auto-repair rules to EMR sources")
    p.add_argument("emrs", nargs="+", help=".smrl files or directories")
    p.add_argument("--in-place", action="store_true", help="rewrite the input files")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("run", help="evaluate EMRs against a SUT")
    p.add_argument("emrs", nargs="+", help=".smrl files or directories")
    p.add_argument("--inputs", nargs="+", required=True, help="input-sequence JSON files or directories")
    p.add_argument("--sut", help="mock[:fault] | live:<adapter-config> | replay:<cassette.jsonl>")
    p.add_argument("--record", help="record interactions to this cassette file (JSON Lines)")
    p.add_argument("--stubs", help="Python module providing a STUBS dict ('none' for no stubs)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grade", help="summarize statement annotations")
    p.add_argument("annotations", help="line-oriented JSON annotation file")
    p.add_argument("--emrs", nargs="*", help="the annotated .smrl files (enables line/class checks)")
    p.add_argument("--statements", type=int, help="total statement count (defaults to EMR statement total)")
    p.set_defaults(func=cmd_grade)

    p = sub.add_parser("survey", help="aggregate Likert survey responses")
    p.add_argument("responses", help="CSV with header subject,statement,respondent,rating")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("pipeline", help="derive then generate in one go")
    p.add_argument("documents", nargs="+", help="requirements documents (text/markdown)")
    p.add_argument("--catalog", help="SUT API catalog (JSON)")
    p.add_argument("--allow-empty", action="store_true", help="succeed even when a document yields no MRs")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("show-config", help="print the fully resolved configuration")
    p.set_defaults(func=cmd_show_config)

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
    try:
        config = ToolConfig.load(args.config, args)
        if args.func not in (cmd_check, cmd_show_config):  # the commands that write nothing
            _check_out_dir(config.out_dir)
        return args.func(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
