"""Every module-level import is read somewhere in its module.

``__init__.py`` files are skipped, because their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for top in ("src/domgame", "tests", "scripts")
    for path in (ROOT / top).rglob("*.py") if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_has_teeth():
    assert _unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["os", "d"]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos\n") == []
