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
        new, ref = ((d / name).read_bytes() for d in (tmp_path / "output", REFERENCE))
        assert new == ref, _difference(name, new, ref)


def _difference(name: str, new: bytes, ref: bytes) -> str:
    """The file, how many of its rows differ and, for numeric CSV rows of
    one shape, the largest absolute difference: a change in the last bit
    reads apart from a real one."""
    rows = [b.decode().splitlines() for b in (new, ref)]
    if len(rows[0]) != len(rows[1]):
        return f"{name}: {len(rows[0])} rows where the reference has {len(rows[1])}"
    changed = [(a, b) for a, b in zip(*rows) if a != b]
    text = f"{name}: {len(changed)} of {len(rows[1])} rows differ"
    try:
        diff = max(abs(float(u) - float(v)) for a, b in changed
                   for u, v in zip(a.split(","), b.split(","), strict=True))
    except ValueError:  # a header, a text column or the row length differs
        return text
    return f"{text}, by at most {diff:.3g}"
