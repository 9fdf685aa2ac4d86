#!/usr/bin/env python3
"""Benchmark of ``upright``: periodic orbits, trap certificates and journeys.

    python3 bench/run.py --workload {orbit,certify,journey} --seed N \
        --seconds S --trace {0,1}

Run from a checkout: the package is imported from its ``src/`` directory,
and everything the run writes goes under ``.bench_out/``.  Set-up is timed
in fresh interpreters; then whole rounds of the workload's operations are
repeated until ``--seconds`` have passed.  Every answer of the first round
is checked against the independent oracle, and every later round must
reproduce the first byte for byte.

A shared machine can change speed by up to 3x for seconds to minutes at
a time, so every timing is taken in units of a fixed reference kernel
timed right before and right after it: a timed metric is the median over
repetitions of ``seconds * REF_S / reference seconds``, the seconds the step
takes on a machine where the kernel takes ``REF_S``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import workloads
from spans import Tracer, instrument, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
# The reference kernel's duration that timings are scaled to: about its
# fastest time on the 2-core machine where the bounds were measured.
REF_S = 0.06
OPS_METRICS = ("linear_s", "planar_s", "stress_s")


def units(kind: str) -> dict:
    """Units of the ``end_to_end`` or ``per_layer`` metrics, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_package():
    """Import ``upright`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "upright" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {src / 'upright'}; run from a checkout")
    sys.path.insert(0, str(src))
    import upright

    if src not in Path(upright.__file__).resolve().parents:
        sys.exit(f"bench: imported upright from {upright.__file__}, not {src}")


def reference_kernel() -> float:
    """Seconds taken by a fixed computation that shares no code with upright.

    Half of it steps a few lanes with small arrays, as the integrator does;
    half evaluates large arrays, as the boundary sampling does.
    """
    F = oracle.Fourier(1.0, 2, [[1.5, 0.0]], [[0.0, 1.5]])
    y0 = np.tile([0.1, 0.0, 0.0, 0.1], (4, 1))
    u = np.linspace(0.0, 1.0, 200_000)
    t0 = time.perf_counter()
    oracle.flow(y0, 0.0, 1.0, 200, 9.81, 1.0, F)
    for k in range(2):
        f = F(u + 0.1 * k)
        np.sum(np.sqrt(1.0 - np.sum(f * f, axis=1) / 9.0) * f[:, 0])
    return time.perf_counter() - t0


class Clock:
    """Times steps in reference-kernel units; see the module docstring."""

    def __init__(self):
        self.ref = reference_kernel()

    def time(self, step):
        """Run ``step()``; return its result, raw seconds and scaled seconds."""
        t0 = time.perf_counter()
        result = step()
        raw = time.perf_counter() - t0
        before, self.ref = self.ref, reference_kernel()
        return result, raw, raw * REF_S / (0.5 * (before + self.ref))


def time_setup(workload: str, seed: int, work: Path) -> tuple:
    """Raw and scaled seconds of fresh interpreters doing the set-up."""
    raw, scaled = [], []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload,
               str(seed), str(work / f"probe{k}")]
        proc = subprocess.run(cmd, check=True, timeout=120, capture_output=True,
                              text=True)
        seconds, ref = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REF_S / ref)
    return raw, scaled


def snapshot(op, outcome):
    """What a round produced, in a form two rounds can be compared by."""
    if op.expect_rc is None:
        return {k: np.asarray(v).tobytes() for k, v in outcome.items()}
    out = outcome["out"]
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def run_rounds(wl, seconds: float, clock: Clock, tracer=None):
    """Repeat whole rounds of the workload's operations for ``seconds``."""
    rounds = []
    first = None
    attempted = failed = 0
    mismatches = []
    deadline = time.perf_counter() + seconds
    while True:
        times = dict.fromkeys(OPS_METRICS, 0.0)
        raw = dict.fromkeys(OPS_METRICS, 0.0)
        outcomes, snaps = {}, {}
        failed_ops = set()
        if tracer is not None:
            tracer.reset()
        for op in wl.ops:
            outcome, r, s = clock.time(op.run)
            raw[op.metric] += r
            times[op.metric] += s
            attempted += 1
            if op.expect_rc is not None and outcome["rc"] != op.expect_rc:
                failed += 1
                failed_ops.add(op.name)
                print(f"bench: {wl.name}/{op.name} exited {outcome['rc']}, "
                      f"expected {op.expect_rc}", file=sys.stderr)
            outcomes[op.name] = outcome
            snaps[op.name] = snapshot(op, outcome)
            if tracer is not None and op.expect_rc is not None:
                tracer.counts["cli.artifact_bytes"] += sum(
                    len(b) for b in snaps[op.name].values())
        times["round_s"] = sum(times.values())
        raw["round_s"] = sum(raw.values())
        record = {"times": times, "raw": raw}
        if tracer is not None:
            record["layers"] = layer_metrics(tracer)
            record["scale"] = times["round_s"] / raw["round_s"]
            if first is None:
                record["spans"] = list(tracer.spans)
        if first is None:
            first = {"outcomes": outcomes, "snaps": snaps, "failed": failed_ops}
        else:
            for name, snap in snaps.items():
                if name not in failed_ops and snap != first["snaps"].get(name):
                    mismatches.append(f"{wl.name}/{name}: round {len(rounds) + 1} "
                                      "differs from round 1")
        rounds.append(record)
        if time.perf_counter() >= deadline:
            return rounds, first, attempted, failed, mismatches


def summarize(raw: list, scaled: list) -> dict:
    q = statistics.quantiles(raw, n=4) if len(raw) > 1 else raw * 3
    return {"n": len(raw), "raw_min": min(raw), "raw_q1": q[0],
            "raw_median": statistics.median(raw), "raw_q3": q[2],
            "median": statistics.median(scaled)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["orbit", "certify", "journey"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    import_package()
    seed = args.seed % 2**32
    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_raw, setup_scaled = time_setup(args.workload, seed, work)
    clock = Clock()
    wl = workloads.setup(args.workload, work / "run", seed)
    tracer = instrument(Tracer()) if args.trace else None
    try:
        rounds, first, attempted, failed, problems = run_rounds(
            wl, args.seconds, clock, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not first["failed"]:
        problems += wl.check(first["outcomes"])

    stats = {"setup_s": summarize(setup_raw, setup_scaled)}
    for name in OPS_METRICS + ("round_s",):
        stats[name] = summarize([r["raw"][name] for r in rounds],
                                [r["times"][name] for r in rounds])
    values = {k: stats[k]["median"] for k in ("setup_s",) + OPS_METRICS}
    values["wall_s"] = values["setup_s"] + stats["round_s"]["median"]
    values["peak_rss_mb"] = peak_rss_mb
    print(json.dumps({"workload": args.workload, "seed": seed,
                      "rounds": len(rounds), "layers": wl.layers,
                      "timings": stats, "end_to_end": values}))

    if args.trace:
        unit = units("per_layer")
        counts = [{k: int(v) for k, v in r["layers"].items()
                   if unit[k] in ("count", "bytes")} for r in rounds]
        if any(c != counts[0] for c in counts):
            problems.append("traced counts differ between rounds")
        typical = sorted(rounds, key=lambda r: r["times"]["round_s"])[len(rounds) // 2]
        values = {k: v * typical["scale"] if unit[k] == "s" else float(v)
                  for k, v in typical["layers"].items()}
        values.update(counts[0])
        (work / "trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": seed, "layers": wl.layers,
            "traced_round_s": typical["times"]["round_s"],
            "per_layer": values,
            "spans_round1": rounds[0]["spans"],
        }))
    else:
        unit = units("end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in unit.items()}
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
