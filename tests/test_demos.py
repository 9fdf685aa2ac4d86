"""The demo scripts still import only names the package has.

Tier-1 does not run ``demos/*.py``, so a renamed or deleted name would
break a demo silently.  Each script is parsed, not run: every name it
imports from ``upright`` must exist.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "upright":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (demo.name, node.module,
                                                     alias.name)
                imported += 1
    assert imported > 0, demo.name
