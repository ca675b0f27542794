"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root)::

    python3 benchmarks/selftest.py

Runs every workload untraced and traced (twice) and exits non-zero unless
every metric named in ``BENCHMARK.json`` is emitted as a finite number, no
command fails a gate, traced call counts repeat exactly, and the Monte Carlo
gate flags a reference value moved by more than its width.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run
from workloads import MC_GATE_SE, SIZES, WORKLOADS, mc_gate


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    spec = run.load_spec()
    for name in WORKLOADS:
        traced = []
        for trace in (False, True, True):
            result = run.run(name, seed=0, seconds=0.2, trace=trace, scale="tiny")
            kind = "per_layer" if trace else "end_to_end"
            expect(list(result["metrics"]) == [m["name"] for m in spec[kind]],
                   f"{name} trace={trace}: metric names differ from BENCHMARK.json {kind}")
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{name} trace={trace}: a metric is not finite")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace}: {result['failed']} of {result['attempted']} ops failed")
            if trace:
                traced.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
        expect(traced[0] == traced[1], f"{name}: traced call counts differ between two runs with one seed")

    # The gate must pass the library's own estimate and fail it once the
    # reference moves by more than the gate's width.
    value, std_error, reference = _intrinsic_mc_estimate()
    expect(mc_gate(value, std_error, reference) == [], "MC gate rejects the unperturbed reference")
    for sign in (1.0, -1.0):
        moved = reference + sign * (abs(value - reference) + (MC_GATE_SE + 1.0) * std_error)
        expect(mc_gate(value, std_error, moved) != [], f"MC gate accepts a reference moved {'up' if sign > 0 else 'down'} "
               f"by {MC_GATE_SE + 1.0:.0f} std errors")

    for p in problems:
        print(f"FAIL {p}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def _intrinsic_mc_estimate():
    """One tiny ``entropy --mode mc`` run with its exact reference."""
    cli = run.import_cli()
    workdir = os.path.join(run.OUT_DIR, "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = WORKLOADS["intrinsic"](0, workdir, SIZES["tiny"]["intrinsic"])
        op = next(op for op in workload.ops(0) if op.name == "mc_entropy")
        code, stdout, _, _ = run.Runner(cli)._invoke(op.argv)
        if code != 0:
            raise RuntimeError(f"{op.argv} exited with {code}")
        obj = json.loads(stdout)
        return obj["value"], obj["std_error"], workload.specs[0]["mc"][2][0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
