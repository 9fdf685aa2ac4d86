#!/usr/bin/env python3
"""Self-test of the benchmark, at reduced input sizes.

    python3 bench/selftest.py

Runs one round of every workload and requires its checks to pass; then
corrupts one answer per workload (a perturbed fixed point, a flipped
verdict, a wrong survivor) and requires the checks to catch it.  It also
requires the traced counts to repeat exactly, and the benchmark to refuse
to run from a directory that holds no package.  Exits 0 when all hold.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from run import BENCH, ROOT, import_package, units
from spans import Tracer, instrument, layer_metrics

SCALE = 0.5
WORK = ROOT / ".bench_out" / "selftest"


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def perturb_fixed_point(data):
    data["fixed_point"][0] += 1e-6


def flip_verdict(data):
    data["verified"] = not data["verified"]


def wrong_survivor(data):
    data["best"] += 0.05
    data["survivor"] = data["best"]


CORRUPTIONS = {
    "orbit": ("linear_s", "result.json", perturb_fixed_point),
    "certify": ("refute", "certificate.json", flip_verdict),
    "journey": ("linear_s", "result.json", wrong_survivor),
}


def one_round(wl) -> dict:
    outcomes = {}
    for op in wl.ops:
        outcomes[op.name] = op.run()
        if op.expect_rc is not None and outcomes[op.name]["rc"] != op.expect_rc:
            raise AssertionError(f"{wl.name}/{op.name} exited {outcomes[op.name]['rc']}")
    return outcomes


def traced_counts(wl) -> list:
    unit = units("per_layer")
    tracer = instrument(Tracer())
    runs = []
    try:
        for _ in range(2):
            tracer.reset()
            one_round(wl)
            runs.append({k: v for k, v in layer_metrics(tracer).items()
                         if unit[k] in ("count", "ratio")})
    finally:
        tracer.uninstall()
    return runs


def refuses_without_package() -> bool:
    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    import_package()
    shutil.rmtree(WORK, ignore_errors=True)
    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for name, (op, artifact, corrupt) in CORRUPTIONS.items():
        wl = workloads.setup(name, WORK / name, seed=7, scale=SCALE)
        outcomes = one_round(wl)
        problems = wl.check(outcomes)
        expect(not problems, f"{name}: the program's answers pass {problems or ''}")
        edit_json(outcomes[op]["out"] / artifact, corrupt)
        expect(bool(wl.check(outcomes)), f"{name}: a corrupted {op}/{artifact} fails")
        first, second = traced_counts(wl)
        expect(first == second, f"{name}: {len(first)} traced counts repeat exactly")
    expect(refuses_without_package(), "without src/ the benchmark refuses to run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
