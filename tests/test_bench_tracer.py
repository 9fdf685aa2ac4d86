"""The benchmark's tracer still finds every name it wraps in the package.

``bench/spans.py`` replaces module attributes of ``upright`` by traced
wrappers; a deleted or renamed name makes ``instrument`` raise.  This test
installs the tracer and takes it down again, reading ``bench/`` only.
"""
from __future__ import annotations

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_patched_name(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    from upright import cli, dynamics, poincare

    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        patched = list(tracer._restore)
        assert (poincare, "jacobian", dynamics.jacobian) in patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
        # the wrappers are live: one subcommand through the traced cli
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"problem": "linear"}))
        assert cli.main(["degree", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert tracer.calls["cli.main"] == 1
    finally:
        tracer.uninstall()
    assert tracer._restore == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
