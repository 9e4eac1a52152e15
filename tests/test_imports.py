"""Every module-level import is read somewhere in its module, the scripts
import only public names from ``domgame``, and no ``domgame`` module takes
a private name from a sibling.

The unused-import check skips ``__init__.py`` files, because their imports
are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for top in ("src/domgame", "tests", "scripts")
    for path in (ROOT / top).rglob("*.py") if path.name != "__init__.py"
)
SCRIPTS = sorted((ROOT / "scripts").rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "domgame").rglob("*.py"))


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


def _private_domgame_imports(source: str) -> list[str]:
    """The underscore-prefixed names, modules included, that any import in
    source takes from ``domgame``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imports = [(node.module, [alias.name for alias in node.names])]
        elif isinstance(node, ast.Import):
            imports = [(alias.name, []) for alias in node.names]
        else:
            continue
        for module, names in imports:
            top, *parts = module.split(".")
            if top == "domgame":
                found += [name for name in parts + names if name.startswith("_")]
    return found


def _private_sibling_imports(source: str) -> list[str]:
    """The underscore-prefixed names, modules included, that any relative
    import in source takes from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            parts = node.module.split(".") if node.module else []
            found += [name for name in parts + [alias.name for alias in node.names]
                      if name.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_has_teeth():
    assert _unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["os", "d"]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos\n") == []


@pytest.mark.parametrize("path", SCRIPTS, ids=[str(p.relative_to(ROOT)) for p in SCRIPTS])
def test_scripts_import_no_private_domgame_name(path):
    assert _private_domgame_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_check_has_teeth():
    source = ("from domgame.strategies import _safe, get_strategy\n"
              "import domgame._inner.mod\n"
              "def f():\n    from domgame._x import y\n"
              "from other import _fine\nfrom . import _relative\n")
    assert _private_domgame_imports(source) == ["_safe", "_inner", "_x"]
    assert _private_domgame_imports("from domgame.graphs import nested_pair\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_imports_no_private_sibling_name(path):
    assert _private_sibling_imports(path.read_text(encoding="utf-8")) == []


def test_private_sibling_import_check_has_teeth():
    source = ("from __future__ import annotations\n"
              "from .solver import _Solver, solve\n"
              "from ._inner.mod import x\n"
              "from domgame.graphs import _absolute\n"
              "def f():\n    from .strategies import _seat\n")
    assert _private_sibling_imports(source) == ["_Solver", "_inner", "_seat"]
    assert _private_sibling_imports("from .graphs import nested_pair\nfrom . import engine\n") == []
