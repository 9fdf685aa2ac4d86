"""The benchmark's ``certify`` workload passes its oracle checks.

One round of the workload at half size through the CLI: the linear and
planar traps are verified, the undersized cone is refuted at the vertex,
and every reported worst cylinder margin recomputes from
``bench/oracle.py``'s forcing and curvature, which share no code with the
package.  ``bench/`` is only read.
"""
from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_certify_workload_passes_its_oracle_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    wl = workloads.setup("certify", tmp_path, seed=1, scale=0.5)
    outcomes = {}
    for op in wl.ops:
        outcomes[op.name] = op.run()
        if op.expect_rc is not None:
            assert outcomes[op.name]["rc"] == op.expect_rc, op.name
    assert wl.check(outcomes) == []
