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
    if directory is not None:
        candidate = directory / name
        if candidate.exists():
            return candidate.read_text(encoding="utf-8").rstrip("\n")
    return asset_path(name).read_text(encoding="utf-8").rstrip("\n")


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
            context=PromptPhase(1, _load("derive_phase1_context.txt", directory)),
            document=PromptPhase(2, _load("derive_phase2_document.txt", directory)),
            consolidate=PromptPhase(2, _load("derive_phase2_consolidate.txt", directory)),
            sentences=PromptPhase(3, _load("derive_phase3_sentences.txt", directory)),
            mrs=PromptPhase(4, _load("derive_phase4_mrs.txt", directory)),
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
            context=PromptPhase(1, _load("generate_phase1_context.txt", directory)),
            constructs=PromptPhase(2, _load("generate_phase2_constructs.txt", directory)),
            output_template=PromptPhase(3, _load("generate_phase3_template.txt", directory)),
            fewshot=PromptPhase(4, _load("generate_phase4_fewshot.txt", directory)),
            apis=PromptPhase(5, _load("generate_phase5_apis.txt", directory)),
            transform=PromptPhase(6, _load("generate_phase6_transform.txt", directory)),
            constructs_text=_load("constructs.txt", directory),
            emr_template_text=_load("emr_template.txt", directory),
        )
