"""Only ``forks.py`` forks a process or opens a pipe, and only three steps
map over forked children.

A step that wants the usable CPUs maps over its tasks with
``forks.fork_map``, so one module holds the fork, the pipe format and the
reaping, and a one-process fallback needs to change one module. Each caller
of ``fork_map`` is a deliberate one, whose tasks cost more than a fork round;
a new one is added here, with its reason. This reads the package's sources
with ``ast``, as ``test_unused_imports.py`` does.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alarm_pipeline"
FORK_NAMES = ("fork", "pipe")
# The reader's parts, the writer's pieces and a database's chunk counts.
FORK_MAP_CALLERS = ["corpus._load_parts", "corpus.save_predictions", "tuning._database_counts"]


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


def fork_map_callers(source: str, module: str) -> list[str]:
    """``module.function`` of the innermost function around each call of
    ``fork_map`` in ``source``, in source order; ``module.<module>`` for a
    call outside any function."""
    callers = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = f"{module}.{node.name}"
        elif isinstance(node, ast.Call) and "fork_map" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
            callers.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), f"{module}.<module>")
    return callers


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


def test_fork_map_callers_are_the_deliberate_ones():
    callers = [caller for module in sorted(PACKAGE.glob("*.py"))
               for caller in fork_map_callers(module.read_text(encoding="utf-8"), module.stem)]
    assert callers == FORK_MAP_CALLERS


def test_fork_map_caller_is_found():
    source = ("def f():\n    def g():\n        return forks.fork_map(h, [])\n"
              "    return fork_map(g, [])\nfork_map(f, [])\nfork_mapper(f, [])\n")
    assert fork_map_callers(source, "m") == ["m.g", "m.f", "m.<module>"]
