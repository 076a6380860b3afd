"""Every name a library module imports at module level is used in it."""

import ast
from pathlib import Path

import pytest

import monoval

MODULES = sorted(
    p for p in Path(monoval.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # Annotations are parsed expressions, so a name used only in one counts.
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name != "annotations"
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nb()\n") == [
        "line 1: os", "line 2: d",
    ]
