"""Every name a package module imports is used in it, or exported by ``__all__``.

Trims that delete code tend to leave an import behind; this finds it with
the standard library alone.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alarm_pipeline"


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports (``from __future__`` aside) but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {element.value for element in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "import io\nimport os.path\nfrom math import inf, nan as missing\nprint(os, inf)\n"
    assert unused_imports(source) == ["io (line 1)", "missing (line 3)"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []
