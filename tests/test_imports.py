"""Every name a freqadapt module imports is used in that module.

``__init__.py`` is exempt: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import freqadapt

MODULES = sorted(p for p in Path(freqadapt.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom typing import Callable\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os", "Callable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
