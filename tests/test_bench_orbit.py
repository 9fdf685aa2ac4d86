"""The benchmark's ``orbit`` workload passes its oracle checks.

One round of the workload at half size through the CLI: the line and plane
periodic solutions are found, each orbit's start point is a fixed point of
``bench/oracle.py``'s own period map, and the orbit stays in its certified
trap.  The oracle shares no code with the package.  ``bench/`` is only read.
"""
from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_orbit_workload_passes_its_oracle_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    wl = workloads.setup("orbit", tmp_path, seed=1, scale=0.5)
    outcomes = {}
    for op in wl.ops:
        outcomes[op.name] = op.run()
        if op.expect_rc is not None:
            assert outcomes[op.name]["rc"] == op.expect_rc, op.name
    assert wl.check(outcomes) == []
