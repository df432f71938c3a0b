"""README test references must name tests that exist.

The README backs its claims with test ids.  A renamed or moved test
silently orphans such a claim, so every ``tests/<file>.py::Name[::test]``
id must resolve the way pytest resolves it (a module-level test, or a
method of a module-level class), and every bare ``TestClass::test`` id
must name a method of that class in some test file.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

FULL_ID = re.compile(r"tests/(\w+)\.py::(\w+)(?:::(\w+))?")
BARE_ID = re.compile(r"(?<![\w/.:])(Test\w+)::(\w+)")


def _module_index(path: Path) -> dict:
    """``{top-level name: set of method names (empty for functions)}``."""
    index = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            index[node.name] = {
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
        elif isinstance(node, ast.FunctionDef):
            index[node.name] = set()
    return index


def _resolves(index: dict, name: str, method: str | None) -> bool:
    if name not in index:
        return False
    return method is None or method in index[name]


def test_readme_has_test_ids():
    assert len(FULL_ID.findall(README)) >= 20
    assert len(BARE_ID.findall(README)) >= 10


def test_full_test_ids_resolve():
    broken = []
    for module, name, method in FULL_ID.findall(README):
        path = ROOT / "tests" / f"{module}.py"
        if not path.exists() or not _resolves(
                _module_index(path), name, method or None):
            broken.append(f"tests/{module}.py::{name}"
                          + (f"::{method}" if method else ""))
    assert broken == []


def test_bare_class_ids_resolve():
    indexes = [_module_index(p) for p in sorted((ROOT / "tests").glob("*.py"))]
    broken = [
        f"{cls}::{method}" for cls, method in BARE_ID.findall(README)
        if not any(_resolves(index, cls, method) for index in indexes)
    ]
    assert broken == []
