"""The MR-derivation conversation: requirements document in, MRs out.

Four phases: (1) set the context, (2) hand over the document (chunked when
it exceeds the per-turn budget, one summary per chunk plus a consolidation
turn), (3) ask for the sentences relevant to inputs and outputs, (4) ask
for the MRs in a fixed, mechanically parseable list format. A single
monolithic query is deliberately not offered: staged conversations are the
only mode.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .client import ChatClient
from .conversation import Conversation, TranscriptStore, run_turn
from .ingest import Document, chunk_document
from .templates import DeriveTemplates


class ResponseFormatError(Exception):
    def __init__(self, message: str, response: str):
        super().__init__(message)
        self.response = response


@dataclass
class MetamorphicRelation:
    id: str
    text: str
    document_id: str
    requirement_ref: str | None = None
    source_sentences: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "text": self.text,
            "document_id": self.document_id,
            "requirement_ref": self.requirement_ref,
            "source_sentences": self.source_sentences,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "MetamorphicRelation":
        return cls(
            id=data["id"],
            text=data["text"],
            document_id=data.get("document_id", ""),
            requirement_ref=data.get("requirement_ref"),
            source_sentences=list(data.get("source_sentences", [])),
        )


@dataclass
class DeriveResult:
    mrs: list[MetamorphicRelation]
    conversation: Conversation
    warnings: list[str] = field(default_factory=list)


_ITEM_RE = re.compile(r"^\s*\d+\.\s*MR:\s*(?P<text>.+?)\s*$")
_SOURCE_RE = re.compile(r'^\s*SOURCE:\s*"(?P<sentence>.*)"\s*$')
_REQ_RE = re.compile(r"^\s*REQ:\s*(?P<ref>.+?)\s*$")


def parse_mr_list(response: str, document: Document) -> tuple[list[MetamorphicRelation], list[str]]:
    """Parse the enforced phase-4 list format into MR records.

    Sentences that do not occur verbatim in the document are dropped with a
    warning; they never enter source_sentences.
    """
    mrs: list[MetamorphicRelation] = []
    warnings: list[str] = []
    current: MetamorphicRelation | None = None
    for line in response.split("\n"):
        if not line.strip():
            continue
        item = _ITEM_RE.match(line)
        if item:
            current = MetamorphicRelation(
                id=f"{document.doc_id}-mr{len(mrs) + 1:02d}",
                text=item.group("text"),
                document_id=document.doc_id,
            )
            mrs.append(current)
            continue
        if current is None:
            continue
        source = _SOURCE_RE.match(line)
        if source:
            sentence = source.group("sentence")
            if sentence in document.text:
                current.source_sentences.append(sentence)
            else:
                warnings.append(
                    f"{current.id}: cited sentence not found verbatim in document: {sentence[:80]!r}"
                )
            continue
        req = _REQ_RE.match(line)
        if req:
            ref = req.group("ref")
            current.requirement_ref = None if ref == "-" else ref
    return mrs, warnings


def conversation_config(config: dict[str, Any] | None) -> dict[str, Any]:
    # Sampling settings always land in the transcript for reproducibility audit.
    base: dict[str, Any] = {"temperature": 0.0}
    base.update(config or {})
    return base


def derive_mrs(
    document: Document,
    client: ChatClient,
    store: TranscriptStore | None = None,
    templates: DeriveTemplates | None = None,
    config: dict[str, Any] | None = None,
    turn_budget: int = 12000,
    max_mrs: int | None = None,
) -> DeriveResult:
    """Run the four-phase derivation conversation for one document.

    ``max_mrs`` caps how many MRs phase 4 asks for; by default the count is
    left to the model and the caller just gets whatever comes back.
    """
    t = templates or DeriveTemplates.load()
    conversation = Conversation("derive", document.doc_id, config=conversation_config(config))

    run_turn(conversation, client, store, t.context, t.context.render())

    chunks = chunk_document(document.text, turn_budget)
    for i, chunk in enumerate(chunks, start=1):
        part = f"part {i} of {len(chunks)}" if len(chunks) > 1 else "complete"
        run_turn(conversation, client, store, t.document, t.document.render(part=part, document=chunk))
    if len(chunks) > 1:
        run_turn(conversation, client, store, t.consolidate, t.consolidate.render())

    sentences = run_turn(conversation, client, store, t.sentences, t.sentences.render())
    if not sentences.strip():
        return DeriveResult([], conversation)

    request = t.mrs.render()
    if max_mrs is not None and max_mrs > 0:
        request += f"\nDerive at most {max_mrs} MRs."
    response = run_turn(conversation, client, store, t.mrs, request)
    mrs, warnings = parse_mr_list(response, document)
    if not mrs and response.strip():
        raise ResponseFormatError("phase-4 response contains no items in the required MR list format", response)
    return DeriveResult(mrs, conversation, warnings)


def dedupe_mrs(mrs: list[MetamorphicRelation]) -> tuple[list[MetamorphicRelation], int]:
    """Drop later MRs whose text repeats an earlier one (chunked documents
    tend to restate relations); returns the survivors and the dropped count."""
    seen: set[str] = set()
    kept: list[MetamorphicRelation] = []
    for mr in mrs:
        key = " ".join(mr.text.split()).lower()
        if key in seen:
            continue
        seen.add(key)
        kept.append(mr)
    return kept, len(mrs) - len(kept)


def save_mr_catalog(mrs: list[MetamorphicRelation], path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps([mr.to_json() for mr in mrs], indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_mr_catalog(path: str | Path) -> list[MetamorphicRelation]:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise ValueError("MR catalog must be a JSON list")
    return [MetamorphicRelation.from_json(item) for item in raw]
