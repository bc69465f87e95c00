"""Access to bundled fixtures and prompt assets."""

from __future__ import annotations

from pathlib import Path

_PACKAGE = Path(__file__).parent


def fixture_path(*parts: str) -> Path:
    """Path of a bundled fixture file, e.g. fixture_path("search_filter.smrl")."""
    return _PACKAGE.joinpath("fixtures", *parts)


def asset_path(*parts: str) -> Path:
    """Path of a bundled prompt asset file."""
    return _PACKAGE.joinpath("pipeline", "assets", *parts)


def read_fixture(*parts: str) -> str:
    return fixture_path(*parts).read_text(encoding="utf-8")
