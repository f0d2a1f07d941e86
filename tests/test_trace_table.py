"""The benchmark tracer's table of traced functions names functions that exist.

``perfbench/trace_run.py`` looks the functions of its ``TRACED`` table up by
name when a traced run starts, so a renamed or deleted function would fail
only the benchmark. The table is read with ``ast``, without importing the
benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACE_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "trace_run.py"


def traced_table() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACE_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACE_RUN}")


def test_traced_functions_exist():
    table = traced_table()
    assert table
    for layer, names in table.items():
        module = importlib.import_module(f"alarm_pipeline.{layer}")
        for name in names:
            if "." in name:  # Class.method, wrapped as a classmethod
                cls_name, attr = name.split(".")
                assert isinstance(vars(getattr(module, cls_name)).get(attr), classmethod), name
            else:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"
