"""Prompt phase templates loaded from asset files."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from ..resources import asset_path

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


class TemplateError(Exception):
    pass


def fill(text: str, /, **values: str) -> str:
    """Substitute {{name}} placeholders; every placeholder must be supplied."""

    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise TemplateError(f"placeholder {{{{{name}}}}} was not filled")
        return values[name]

    return _PLACEHOLDER.sub(replace, text)


@dataclass
class PromptPhase:
    ordinal: int
    template: str

    def render(self, **values: str) -> str:
        return fill(self.template, **values)

    def __post_init__(self) -> None:
        if self.ordinal < 1:
            raise ValueError("phase ordinals start at 1")


def _load(name: str, directory: Path | None) -> str:
    path = directory / name if directory is not None and (directory / name).exists() else asset_path(name)
    try:
        return path.read_text(encoding="utf-8").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise TemplateError(f"{name}: {exc}") from exc


def _phase(ordinal: int, name: str, directory: Path | None, *placeholders: str) -> PromptPhase:
    """Load a phase template that its pipeline renders with ``placeholders``;
    any other placeholder fails here rather than midway through a conversation."""
    template = _load(name, directory)
    unfilled = sorted(set(_PLACEHOLDER.findall(template)) - set(placeholders))
    if unfilled:
        raise TemplateError(f"{name}: placeholder {{{{{unfilled[0]}}}}} is never filled")
    return PromptPhase(ordinal, template)


@dataclass
class DeriveTemplates:
    context: PromptPhase
    document: PromptPhase
    consolidate: PromptPhase
    sentences: PromptPhase
    mrs: PromptPhase

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "DeriveTemplates":
        directory = Path(directory) if directory else None
        return cls(
            context=_phase(1, "derive_phase1_context.txt", directory),
            document=_phase(2, "derive_phase2_document.txt", directory, "part", "document"),
            consolidate=_phase(2, "derive_phase2_consolidate.txt", directory),
            sentences=_phase(3, "derive_phase3_sentences.txt", directory),
            mrs=_phase(4, "derive_phase4_mrs.txt", directory),
        )


@dataclass
class GenerateTemplates:
    context: PromptPhase
    constructs: PromptPhase
    output_template: PromptPhase
    fewshot: PromptPhase
    apis: PromptPhase
    transform: PromptPhase
    constructs_text: str
    emr_template_text: str

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "GenerateTemplates":
        directory = Path(directory) if directory else None
        return cls(
            context=_phase(1, "generate_phase1_context.txt", directory),
            constructs=_phase(2, "generate_phase2_constructs.txt", directory, "constructs"),
            output_template=_phase(3, "generate_phase3_template.txt", directory, "template"),
            fewshot=_phase(4, "generate_phase4_fewshot.txt", directory, "fewshot"),
            apis=_phase(5, "generate_phase5_apis.txt", directory, "apis"),
            transform=_phase(6, "generate_phase6_transform.txt", directory, "mr"),
            constructs_text=_load("constructs.txt", directory),
            emr_template_text=_load("emr_template.txt", directory),
        )
