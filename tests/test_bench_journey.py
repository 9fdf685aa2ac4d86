"""The benchmark's ``journey`` workload passes its oracle checks.

One round of the workload at half size: both survivor bisections through
the CLI and the planar start grid, each answer checked against
``bench/oracle.py``'s fixed-step RK4, which shares no code with the package.
So the grid's fall times meet the oracle's ``GRID_FALL_TOL`` on
every test run.  ``bench/`` is only read.
"""
from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_journey_workload_passes_its_oracle_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    wl = workloads.setup("journey", tmp_path, seed=1, scale=0.5)
    outcomes = {}
    for op in wl.ops:
        outcomes[op.name] = op.run()
        if op.expect_rc is not None:
            assert outcomes[op.name]["rc"] == op.expect_rc, op.name
    assert wl.check(outcomes) == []
