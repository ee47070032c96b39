"""Every name a fillgap module imports is read somewhere in that module."""

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
