"""The EMR-generation conversation: MRs in, parsed-and-repaired EMRs out.

Six phases: (1) context, (2) the DSL construct notations, (3) the output
template, (4) few-shot MR/EMR pairs, (5) the SUT's API docs, (6) one
transform request per MR. Every response is passed through the repair
rules and then parsed once; a response that parses as it is has nothing
for them to rewrite. An EMR that does not parse is recorded as such and the
pipeline moves on to the next MR.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .._record import Record
from ..dsl.ast import EmrAst
from ..dsl.errors import DslError
from ..dsl.parser import parse_emr, parse_with_layout
from ..dsl.repair import RepairLog, repair
from ..dsl.validate import has_errors, stub_names, validate
from ..jsonl import check
from ..sut.catalog import ApiCatalog
from .client import ChatClient, content_hash
from .conversation import Conversation, TranscriptStore, run_turn
from .derive import MetamorphicRelation, conversation_config
from .templates import GenerateTemplates

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n(.*?)```", re.DOTALL)


@dataclass(eq=False, repr=False)
class FewShotExample(Record):
    """An MR and the EMR written for it, shown to the model as an example."""

    mr: str
    emr: str


def load_fewshot(path: str | Path) -> list[FewShotExample]:
    """Load MR/EMR pairs; every EMR must parse without error diagnostics."""
    examples = []
    raw = check(json.loads(Path(path).read_text(encoding="utf-8")), "a JSON list", "the few-shot examples")
    for i, item in enumerate(raw, 1):
        item = check(item, "a JSON object", f"few-shot example {i}")
        mr, emr = (check(item.get(key), "a string", f"few-shot example {i} field '{key}'") for key in ("mr", "emr"))
        diags = validate(parse_emr(emr, f"fewshot{i}", explanations=False))
        if has_errors(diags):
            bad = next(d for d in diags if d.severity == "error")
            raise ValueError(f"few-shot example {i} is invalid: {bad.message} (line {bad.line})")
        examples.append(FewShotExample(mr, emr))
    if not examples:
        raise ValueError("the file holds no examples; generation needs at least one")
    return examples


def render_fewshot(examples: list[FewShotExample]) -> str:
    blocks = []
    for i, example in enumerate(examples, start=1):
        blocks.append(f"Example {i}\nMR: {example.mr}\nEMR:\n```\n{example.emr}\n```")
    return "\n\n".join(blocks)


@dataclass(eq=False, repr=False)
class GeneratedEmr(Record):
    """The EMR generated for one MR: status, source, AST, repairs, stubs and explanations."""

    mr_id: str
    status: str  # "ok" | "repaired" | "unparseable"
    source: str | None = None
    ast: EmrAst | None = None
    repair_log: RepairLog = field(default_factory=RepairLog)
    stubs: list[str] = field(default_factory=list)
    explanations: list[dict[str, Any]] = field(default_factory=list)
    error: str | None = None


@dataclass(eq=False, repr=False)
class GenerateResult(Record):
    """The EMRs of one generate conversation, and the conversation."""

    items: list[GeneratedEmr]
    conversation: Conversation


def extract_emr_source(response: str) -> str:
    """The EMR code of a response: the first fenced block, else the raw text."""
    match = _FENCE_RE.search(response)
    text = match.group(1) if match else response
    return text.strip("\n")


def generate_emrs(
    mrs: list[MetamorphicRelation],
    catalog: ApiCatalog,
    fewshot: list[FewShotExample],
    client: ChatClient,
    store: TranscriptStore | None = None,
    templates: GenerateTemplates | None = None,
    config: dict[str, Any] | None = None,
) -> GenerateResult:
    """Run the six-phase generation conversation over a batch of MRs."""
    if not fewshot:
        raise ValueError("generation needs at least one few-shot example")
    t = templates or GenerateTemplates.load()
    batch = content_hash("\n".join(mr.id for mr in mrs))
    conversation = Conversation("generate", batch, config=conversation_config(config))

    run_turn(conversation, client, store, t.context, t.context.render())
    run_turn(conversation, client, store, t.constructs, t.constructs.render(constructs=t.constructs_text))
    run_turn(conversation, client, store, t.output_template,
             t.output_template.render(template=t.emr_template_text))
    run_turn(conversation, client, store, t.fewshot, t.fewshot.render(fewshot=render_fewshot(fewshot)))
    run_turn(conversation, client, store, t.apis, t.apis.render(apis=catalog.render_for_prompt()))

    items: list[GeneratedEmr] = []
    for mr in mrs:
        response = run_turn(conversation, client, store, t.transform, t.transform.render(mr=mr.text))
        raw_source = extract_emr_source(response)
        # A source that parses has no lone '&', the only token the repair
        # rules rewrite, so repairing first leaves every source that parses
        # as it is and spares a defective reply a failed parse.
        repaired, log = repair(raw_source)
        try:
            ast, lines = parse_with_layout(repaired, mr.id)
        except DslError as exc:
            items.append(
                GeneratedEmr(mr.id, "unparseable", source=raw_source, repair_log=log, error=str(exc))
            )
            continue
        diags = validate(ast, catalog)
        explanations = [
            {"index": u.index, "line": u.line, "statement": u.text, "explanation": u.explanation}
            for u in lines if u.kind is not None
        ]
        items.append(
            GeneratedEmr(
                mr.id,
                "repaired" if log else "ok",
                source=repaired,
                ast=ast,
                repair_log=log,
                stubs=stub_names(diags),
                explanations=explanations,
            )
        )
    return GenerateResult(items, conversation)
