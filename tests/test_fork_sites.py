"""Only ``forks.py`` forks a process or opens a pipe.

A step that wants the usable CPUs maps over its tasks with
``forks.fork_map``, so one module holds the fork, the pipe format and the
reaping, and a one-process fallback needs to change one module. This reads
the package's sources with ``ast``, as ``test_unused_imports.py`` does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alarm_pipeline"
FORK_NAMES = ("fork", "pipe")


def fork_sites(source: str) -> list[str]:
    """The ``os.fork`` and ``os.pipe`` that ``source`` reads or imports, with their lines."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in FORK_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            sites.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            sites += [f"os.{a.name} (line {node.lineno})" for a in node.names if a.name in FORK_NAMES]
    return sites


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_forks_py_forks(module):
    sites = fork_sites(module.read_text(encoding="utf-8"))
    if module.name == "forks.py":
        assert {site.split()[0] for site in sites} == {"os.fork", "os.pipe"}
    else:
        assert sites == []


def test_fork_site_is_found():
    source = "import os\nfrom os import pipe as p, getpid\nos.fork()\nos.forkpty()\nos.path\n"
    assert fork_sites(source) == ["os.pipe (line 2)", "os.fork (line 3)"]
