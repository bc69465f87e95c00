"""Each name a package ``__init__`` exports is imported through the package.

A name that nothing imports through ``emrkit.<package>`` is a second import
path with no user; it is imported from its module instead. A file uses a
name through a package when it imports it from the package (absolutely or
relatively) or reads it as an attribute of the package: through an alias
(``import emrkit.dsl as dsl``, ``from emrkit import dsl``), through a
dotted path (``emrkit.dsl.parse_emr``) or through a subscript keyed by
the package (``modules["dsl"].parse_emr``, ``modules["emrkit.dsl"]``).
The users are the files under ``src/``, ``tests/`` (this file aside),
``tools/`` and ``bench/``, and the Python blocks of ``README.md``.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from functools import cache
from importlib.util import resolve_name
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGES = tuple(f"emrkit.{name}" for name in ("dsl", "runtime", "pipeline", "sut"))


def _imported_and_all(package: str) -> tuple[set[str], set[str]]:
    """The names the package's ``__init__`` imports, and its ``__all__``."""
    tree = ast.parse(SRC.joinpath(*package.split("."), "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    exported = {element.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for element in node.value.elts}
    return imported, exported


def _package_of(path: Path) -> str | None:
    """The package a relative import in ``path`` starts from."""
    try:
        parts = path.relative_to(SRC).with_suffix("").parts
    except ValueError:
        return None
    return ".".join(parts[:-1])


def _resolve(node: ast.ImportFrom, package: str | None) -> str | None:
    if node.level == 0:
        return node.module
    return resolve_name("." * node.level + (node.module or ""), package) if package else None


def _dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The module an expression names: an alias, a dotted path or a subscript."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value, aliases)
        return f"{owner}.{node.attr}" if owner else None
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        key = node.slice.value
        if isinstance(key, str):
            return key if key.startswith("emrkit.") else f"emrkit.{key}"
    return None


def _uses(tree: ast.AST, package: str | None) -> dict[str, set[str]]:
    """Package -> the names ``tree`` imports or reads through it."""
    aliases: dict[str, str] = {}
    used: dict[str, set[str]] = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name in PACKAGES:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            module = _resolve(node, package)
            for alias in node.names:
                if module in PACKAGES:
                    used[module].add(alias.name)
                elif f"{module}.{alias.name}" in PACKAGES:
                    aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
        elif isinstance(node, ast.Assign):
            pairs = [(node.targets[0], node.value)]
            if isinstance(node.targets[0], ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(node.targets[0].elts, node.value.elts))
            for target, value in pairs:
                if isinstance(target, ast.Name) and _dotted(value, {}) in PACKAGES:
                    aliases[target.id] = _dotted(value, {})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = _dotted(node.value, aliases)
            if owner in PACKAGES:
                used[owner].add(node.attr)
    return used


@cache
def _all_uses() -> dict[str, set[str]]:
    used: dict[str, set[str]] = defaultdict(set)
    trees: list[tuple[ast.AST, str | None]] = []
    for directory in ("src", "tests", "tools", "bench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.resolve() != Path(__file__).resolve():
                trees.append((ast.parse(path.read_text(encoding="utf-8")), _package_of(path)))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees += [(ast.parse(block), None) for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)]
    for tree, package in trees:
        for name, names in _uses(tree, package).items():
            used[name] |= names
    return used


@pytest.mark.parametrize("package", PACKAGES)
def test_all_lists_exactly_what_the_init_imports(package):
    imported, exported = _imported_and_all(package)
    assert exported == imported


@pytest.mark.parametrize("package", PACKAGES)
def test_each_export_is_imported_through_its_package(package):
    imported, _ = _imported_and_all(package)
    unused = sorted(imported - _all_uses()[package])
    assert not unused, f"{package} exports names nothing imports through it: {unused}"


def test_the_scanner_sees_every_kind_of_use():
    source = (
        "import emrkit.dsl as d\nfrom emrkit import runtime\nfrom ..sut import a\n"
        "x = d.b\ny = runtime.c\nz = emrkit.pipeline.e\n"
        "dsl, other = modules['emrkit.dsl'], 1\nw = dsl.f\nv = modules['sut'].g\n"
    )
    assert _uses(ast.parse(source), "emrkit.pipeline") == {
        "emrkit.dsl": {"b", "f"}, "emrkit.runtime": {"c"}, "emrkit.pipeline": {"e"}, "emrkit.sut": {"a", "g"},
    }
