"""What the library modules import: every module-level name is used, and nothing loads `dataclasses`."""

import ast
import os
import subprocess
import sys
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


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_the_dataclasses_check_sees_an_import_inside_a_function():
    assert "dataclasses" in imported_modules("def f():\n    from dataclasses import field\n")
    assert "dataclasses" in imported_modules("import dataclasses as dc\n")


# Prints, of the watched modules, those loaded after the import, then those
# that the import itself loaded.
_LOADED = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import monoval.cli\n"
    "watched = {'dataclasses', 'inspect'}\n"
    "print(' '.join(sorted(watched & set(sys.modules))))\n"
    "print(' '.join(sorted(watched & (set(sys.modules) - before))))\n"
)


@pytest.mark.parametrize("flags", [["-S"], []], ids=["no-site", "site"])
def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(flags):
    """In a fresh interpreter, with and without ``site``.

    Without ``site`` nothing else runs first, so neither module may be
    loaded at all.  With it, a ``.pth`` file of the installation may load
    modules first; the import itself must load neither.
    """
    src = str(Path(monoval.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *flags, "-c", _LOADED],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    loaded, by_the_import = done.stdout.split("\n")[:2]
    assert by_the_import == ""
    if flags == ["-S"]:
        assert loaded == ""
