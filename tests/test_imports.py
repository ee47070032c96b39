"""Every name a fillgap module imports is read somewhere in that module, and
every module-level private name it defines is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fillgap").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names that no ``Name`` node of ``source`` reads, as
    ``line N: name``; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in read]


def test_sources_are_found():
    assert {"selection.py", "regression.py", "rng.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "x = np.zeros(dataclass)\n"
    )
    assert unused_imports(source) == ["line 4: field", "line 2: math"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (``_x``, not dunders) that a module of
    ``sources``, keyed by module name, defines and that no module reads, as
    ``module: name``. A read is a loaded ``Name`` in the defining module or a
    ``from .module import _x`` in any module."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update((node.module, alias.name) for alias in node.names)
    return [f"{module}: {name}" for module, name in defined if (module, name) not in read]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_reported():
    sources = {
        "a": (
            "_LIMIT, _SPARE = 3, 4\n"
            "_typed: int = 0\n"
            "__version__ = '1'\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _orphan():\n"
            "    _local = 1\n"
            "class _Shared:\n"
            "    pass\n"
        ),
        "b": "from .a import _Shared, _helper\n_SPARE = _Shared\n",
    }
    # b's _SPARE is its own, so a's stays unread; _local is not module-level.
    assert unread_private_names(sources) == ["a: _SPARE", "a: _typed", "a: _orphan", "b: _SPARE"]
