"""Benchmark of the ``mixedrv`` command-line tool.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload intrinsic|extrinsic|glm --seed N \\
        --seconds S --trace 0|1

One client runs the workload's commands in-process through
``mixedrv.cli.main`` as a closed loop: each command starts when the previous
one has finished.  ``--trace 0`` loops for ``--seconds`` seconds and reports
the end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` runs
each iteration of a fixed schedule once untraced and once with every public
library callable wrapped in a span, and reports the per-layer metrics.
Every command's output passes the workload's correctness gates; a command
that fails a gate counts in ``failed``.  The last line of stdout is the
result as one JSON object; the full run record (sizes, versions, per-command
timings and output digests) and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy
import scipy

from calibration import REFERENCE_SECONDS, reference_seconds
from tracer import Tracer
from workloads import POOL, SIZES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Fresh interpreters started per run to measure set-up time.
SETUP_REPEATS = 5

#: Iterations of the traced schedule; fixed so that call counts repeat exactly.
TRACE_ITERATIONS = {"intrinsic": 4, "extrinsic": 6, "glm": 4}

#: Thread settings that could change the timings, copied into the run record.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MIXEDRV_THREADS")

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mixedrv.cli; "
    "from mixedrv.distspec import load_spec_file; [load_spec_file(p) for p in sys.argv[2:]]"
)


class MissingProgram(Exception):
    """The checkout does not contain the library this benchmark measures."""


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "mixedrv", "cli.py")):
        raise MissingProgram(f"no mixedrv sources under {SRC}")
    sys.path.insert(0, SRC)
    from mixedrv import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"mixedrv was imported from {cli.__file__}, not from {SRC}")
    return cli


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile.

    With ten samples or fewer no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    j = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[j], 100.0 * (j + 1) / len(ordered)


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(spec_files: list[str]) -> list[dict]:
    """Wall times of fresh interpreters that import ``mixedrv.cli`` and load
    the workload's spec files, as every CLI command does, each with the
    reference kernel's time around it."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds(5)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, *spec_files], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        seconds = time.perf_counter() - t0
        times.append({"seconds": seconds, "ref_s": (before + reference_seconds(5)) / 2})
    return times


class Runner:
    """Runs ops, applies their gates and keeps the tallies of one run."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.calibrate = False  # bracket every command with the reference kernel
        self.attempted = 0
        self.failures: list[dict] = []
        self.bytes_read = 0
        self.bytes_written = 0

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
            except Exception:  # a crash in the program is a failed op, not a benchmark crash
                code = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), seconds

    def run(self, op, iteration) -> dict:
        ref = {}
        if self.calibrate:
            before = reference_seconds()
            code, stdout, stderr, seconds = self._invoke(op.argv)
            ref["ref_s"] = (before + reference_seconds()) / 2
        elif self.tracer is None:
            code, stdout, stderr, seconds = self._invoke(op.argv)
        else:
            code, stdout, stderr, seconds = self.tracer.call(f"cli.{op.command}", self._invoke, op.argv)
        errors = [f"exit code {code}: {stderr[-500:]}"] if code != 0 else []
        if not errors and op.check is not None:
            try:
                errors = op.check(stdout)
            except Exception as e:  # malformed output is a gate failure
                errors = [f"gate raised {e!r}"]
        digest = hashlib.sha256(stdout.encode())
        for path in op.outputs:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        self.bytes_read += sum(os.path.getsize(p) for p in op.inputs)
        self.bytes_written += sum(os.path.getsize(p) for p in op.outputs if os.path.exists(p))
        self.attempted += 1
        if errors:
            self.failures.append({"op": op.name, "iteration": iteration, "errors": errors})
        return {"op": op.name, "iteration": iteration, "seconds": seconds, **ref, "role": op.role,
                "sizes": op.sizes, "sha256": digest.hexdigest(), **({"info": op.info} if op.info else {})}

    def same_outputs(self, what: str, first: list[dict], second: list[dict]):
        """Determinism gate: the same seeds must give byte-identical outputs."""
        self.attempted += 1
        diff = [a["op"] for a, b in zip(first, second) if a["sha256"] != b["sha256"]]
        if diff or len(first) != len(second):
            self.failures.append({"op": "determinism", "iteration": first[0]["iteration"],
                                  "errors": [f"{what}: outputs differ for {diff}"]})


def summarize(values: list[float]) -> dict:
    """Minimum, lower decile, median, tail (with its percentile) and count."""
    value, pct = tail(values)
    low = statistics.quantiles(values, n=10)[0] if len(values) > 1 else values[0]
    return {"min_s": min(values), "low_s": low, "median_s": statistics.median(values), "tail_s": value,
            "tail_percentile": pct, "samples": len(values)}


def calibrated(samples: list[tuple[int, float, float]]) -> float:
    """Calibrated time of ``(iteration, seconds, ref_s)`` samples.

    The median of ``seconds / ref_s`` is taken per spec set (iteration modulo
    ``POOL``) and averaged over the sets, so a run that happens to end on a
    heavier set does not read slower, then scaled to seconds at the nominal
    host speed (see ``calibration``).
    """
    by_set: dict[int, list[float]] = {}
    for i, seconds, ref in samples:
        by_set.setdefault(i % POOL, []).append(seconds / ref)
    return REFERENCE_SECONDS * statistics.fmean(statistics.median(v) for v in by_set.values())


def end_to_end(results: list[list[dict]]) -> tuple[dict, dict]:
    """End-to-end metrics and per-command statistics of the timed iterations.

    The metrics are calibrated times (see ``calibrated``): on a shared host
    the wall time of an unchanged command swings by half its value within
    minutes with the load of other tenants, in the fastest sample of a run as
    much as in its median, while its ratio to the reference kernel timed next
    to it holds within a few percent.  ``iter_s`` is a whole iteration.  Raw
    wall-time minima, medians and tails stay in the run record.
    """
    groups: dict[str, list[tuple[int, float, float]]] = {
        "iteration": [(ops[0]["iteration"], sum(r["seconds"] for r in ops),
                       statistics.fmean(r["ref_s"] for r in ops))
                      for ops in results]}
    for ops in results:
        for r in ops:
            sample = (r["iteration"], r["seconds"], r["ref_s"])
            groups.setdefault(r["op"], []).append(sample)
            if r["role"]:
                groups.setdefault(f"role:{r['role']}", []).append(sample)
    summary = {name: {**summarize([s for _, s, _ in samples]), "calibrated_s": calibrated(samples),
                      "median_ref_s": statistics.median(ref for _, _, ref in samples)}
               for name, samples in groups.items()}
    metrics = {"iter_s": summary["iteration"]["calibrated_s"],
               "draw_s": summary["role:draw"]["calibrated_s"],
               "estimate_s": summary["role:estimate"]["calibrated_s"]}
    return metrics, summary


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the result object and writes the run record."""
    cli = import_cli()
    spec = load_spec()
    sizes = SIZES[scale][workload_name]
    workdir = os.path.join(OUT_DIR, f"work-{workload_name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[workload_name](seed, workdir, sizes)
    runner = Runner(cli)
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "sizes": sizes, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "client": "one in-process client, closed loop",
    }

    def iteration(i):
        return [runner.run(op, i) for op in workload.ops(i)]

    if not trace:
        setup_times = measure_setup(workload.spec_files)
        runner.calibrate = True
        record["once"] = [runner.run(op, -1) for op in workload.once_ops()]
        warm = iteration(0)  # also the reference for the determinism gate
        timed = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(timed) < 2:
            timed.append(iteration(len(timed)))
        runner.same_outputs("warm-up vs first timed iteration", warm, timed[0])
        metrics, ops_summary = end_to_end(timed)
        metrics["setup_s"] = REFERENCE_SECONDS * statistics.median(t["seconds"] / t["ref_s"] for t in setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(setup_times_s=setup_times, ops=ops_summary, iterations=timed)
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        n = TRACE_ITERATIONS[workload_name]
        iteration(0)  # warm-up, so the untraced pass does not pay first-call costs
        tracer = Tracer()
        untraced, traced, io_bytes = [], [], [0, 0]
        # each iteration runs untraced, then traced, so a change in the host's
        # load between the two passes does not show up as tracing overhead
        for i in range(n):
            runner.bytes_read = runner.bytes_written = 0
            untraced.append(iteration(i))
            io_bytes[0] += runner.bytes_read
            io_bytes[1] += runner.bytes_written
            runner.tracer = tracer
            tracer.install()
            try:
                traced.append(iteration(i))
            finally:
                tracer.uninstall()
                runner.tracer = None
            runner.same_outputs("untraced vs traced", untraced[-1], traced[-1])
        wall = [sum(r["seconds"] for r in ops) for ops in (sum(untraced, []), sum(traced, []))]
        totals = tracer.layer_totals()
        metrics = {
            "cli.bytes_read": io_bytes[0], "cli.bytes_written": io_bytes[1],
            "trace.untraced_s": wall[0], "trace.overhead_s": wall[1] - wall[0], "trace.spans": len(tracer.spans),
        }
        for m in spec["per_layer"]:
            name = m["name"]
            if name in metrics:
                continue
            base, stat = name.rsplit(".", 1)
            if stat in ("calls", "rows", "self_s"):
                metrics[name] = totals[base][stat] if base in totals else 0
            else:
                metrics[name] = tracer.counters.get(name, 0)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload_name}-seed{seed}.tsv")
        tracer.write(spans_path)
        record.update(trace_iterations=n, spans_file=spans_path, layers=totals, counters=dict(tracer.counters),
                      untraced=untraced, traced=traced)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    failed = len({(f["op"], f["iteration"]) for f in runner.failures})
    record.update(attempted=runner.attempted, failed=failed, failures=runner.failures,
                  fail_ratio=failed / runner.attempted)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    record["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(OUT_DIR, f"record-{workload_name}-seed{seed}-trace{int(trace)}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def load_spec() -> dict:
    """Metric names and units, from the benchmark definition at the root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("intrinsic", "extrinsic", "glm"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
