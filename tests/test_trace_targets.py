"""The traced benchmark runner wraps package functions by name.

``perfbench/traced_cli.py`` looks up every name in its TARGETS table with
getattr and patches ``records.SegmentRecord.__post_init__``, so a renamed
or deleted function makes every traced run fail.  The table is read with
ast, without importing the runner.
"""

import ast
import importlib
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def traced_targets() -> dict:
    for node in ast.parse(TRACED_CLI.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACED_CLI}")


def test_every_traced_name_is_defined():
    targets = traced_targets()
    assert "scoring" in targets and "experiments" in targets
    missing = [f"poif.{module}.{name}" for module, names in targets.items()
               for name in names
               if not hasattr(importlib.import_module(f"poif.{module}"), name)]
    assert missing == []
    records = importlib.import_module("poif.records")
    assert hasattr(records.SegmentRecord, "__post_init__")
