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


def test_all_lists_exactly_the_imports():
    import coronawalk

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(coronawalk.__all__) == sorted([*imported_names(tree), "__version__"])


def test_every_private_helper_has_a_caller():
    """A module-level private function or class is referenced somewhere in
    the package other than inside its own definition."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    helpers = {
        (path, node.name): node
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    assert helpers
    uncalled = []
    for (path, name), definition in helpers.items():
        inside = {id(node) for node in ast.walk(definition)}
        refs = [
            node
            for tree in trees.values()
            for node in ast.walk(tree)
            if id(node) not in inside
            and (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)
            )
        ]
        if not refs:
            uncalled.append(f"{path.name}:{name}")
    assert not uncalled, f"private helpers nothing references: {uncalled}"
