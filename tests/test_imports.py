"""Every name a module imports is used in that module: the library, the
tests, the demos and the tools."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "coronawalk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(p for folder in ("tests", "demos", "tools") for p in (ROOT / folder).glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """name bound by an import -> line number; __future__ imports are not names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [str(p.relative_to(ROOT)) for p in SCRIPTS],
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
