"""The demo scripts run and reproduce their committed reference outputs.

Every name a demo imports from ``upright`` must exist, and each demo, run
from a copy, must rewrite ``demos/output/*`` byte for byte.
"""
from __future__ import annotations

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import upright

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
REFERENCE = ROOT / "demos" / "output"


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


def test_demos_rewrite_the_reference_outputs_byte_for_byte(tmp_path):
    # each demo writes next to itself, so copies write into tmp_path/output
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(upright.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    for demo in DEMOS:
        shutil.copy(demo, tmp_path)
        proc = subprocess.run([sys.executable, str(tmp_path / demo.name)],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, (demo.name, proc.stderr)
    written = sorted(p.name for p in (tmp_path / "output").iterdir())
    assert written == sorted(p.name for p in REFERENCE.iterdir())
    for name in written:
        assert (tmp_path / "output" / name).read_bytes() == \
            (REFERENCE / name).read_bytes(), name
