"""End-to-end and per-layer benchmark of fnnmadm's rank, sweep and validate.

    python3 bench/run.py --workload engineers --seed 1 --seconds 40 --trace 0

Workloads: engineers, sweep-100x20 and rank-500x20 (see README.md).  The
program is imported from ``src/`` beside this directory; problem files and
traces go to ``.bench_out/`` there.  One caller, closed loop, no threads.

``--trace 0`` times whole requests, each against the reference routine of
``calibrate.py``, and reports the end-to-end metrics.  ``--trace 1``
alternates untraced iterations with stage-by-stage replays of the same
requests, traced and then under a tracer that records nothing, reports
the per-layer metrics in plain seconds and writes the spans to
``.bench_out/trace-<workload>.json``.  Either way the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import calibrate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 9
IMPORT = "import fnnmadm.cli, fnnmadm.reference"


def import_program() -> None:
    """Import the library from this checkout's ``src/``.  Nothing else in
    the benchmark imports it or numpy before this."""
    src = ROOT / "src"
    if not (src / "fnnmadm" / "__init__.py").is_file():
        sys.exit(f"error: no fnnmadm source under {src}")
    sys.path.insert(0, str(src))
    import fnnmadm.cli  # noqa: F401  (numpy comes with it)
    import fnnmadm.reference  # noqa: F401


def import_seconds() -> float:
    """Median over fresh interpreters of the library's import time, numpy
    included, in reference seconds; one import per process, so each repeat
    is a new one, and each times the reference routine itself, on the core
    it runs on."""
    timer = (
        f"import sys, time; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]; "
        "import calibrate; reference = min(calibrate.reference_seconds() for _ in range(3)); "
        f"t = time.perf_counter(); {IMPORT}; "
        "print((time.perf_counter() - t) / reference * calibrate.REFERENCE_S)"
    )
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", timer], check=True, capture_output=True, text=True).stdout)
        for _ in range(IMPORT_REPEATS)
    )


@dataclass
class Runner:
    """Runs iterations, keeps each op's timings and its first output, and
    compares every later output with the first."""

    same: Callable  # workloads.same
    first: dict = field(default_factory=dict)
    count: Counter = field(default_factory=Counter)
    times: dict = field(default_factory=lambda: defaultdict(list))
    errors: list = field(default_factory=list)

    def record(self, op, out, seconds: float | None = None) -> None:
        out = op.digest(out)
        self.count[op.key] += 1
        if seconds is not None:
            self.times[op.key].append(seconds)
        if op.key not in self.first:
            self.first[op.key] = out
        elif not self.same(out, self.first[op.key]):
            self.errors.append(f"{op.key}: output differs from its first run")

    def iteration(self, ops) -> None:
        for op in ops:
            self.record(op, *calibrate.timed(op.run))

    def traced_iteration(self, ops, tracer, failure) -> float:
        gc.collect()  # no collector debt carried in from the previous pass
        wall = 0.0
        for op in ops:
            tracer.request += 1
            start = perf_counter()
            try:
                out = op.replay(tracer)
            except failure as e:
                self.errors.append(f"{op.key} traced: {e}")
                continue
            wall += perf_counter() - start
            self.record(op, out)
        return wall


def setup(workload, seed: int, work: Path) -> float:
    """Median over repeats of input generation, file writing and a warm-up
    pass of every request on a 5-row slice, in reference seconds."""

    def once():
        workload.setup(seed, work)
        for op in workload.ops(small=True):
            op.run()

    return statistics.median(calibrate.timed(once)[1] for _ in range(SETUP_REPEATS))


def peak_mib(workload) -> float:
    gc.collect()  # the same collector state in every run
    tracemalloc.start()
    try:
        workload.peak()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def check(workload, runner: Runner, failure) -> set[str]:
    try:
        return workload.check(runner.first)
    except failure as e:
        runner.errors.append(str(e))
        return set()


def measure(workload, seconds: float, runner: Runner, failure) -> tuple[dict, set[str]]:
    ops = workload.ops()
    deadline = perf_counter() + seconds
    while True:
        runner.iteration(ops)
        if perf_counter() >= deadline:
            break
    failed = check(workload, runner, failure)
    # The median of each request's samples, then the mean over one
    # iteration's requests of a kind, so that a mix of costs cannot jump.
    distinct = {op.key: op for op in ops}.values()
    typical = {op.key: statistics.median(runner.times[op.key]) for op in distinct}
    metrics = {}
    for kind in ("rank", "sweep", "validate"):
        metrics[f"{kind}_s"] = (
            statistics.mean(typical[op.key] for op in distinct if op.kind == kind),
            "s",
        )
    sweeps = [op for op in distinct if op.kind == "sweep"]
    metrics["sweep_cells_per_s"] = (
        sum(op.cells for op in sweeps) / sum(typical[op.key] for op in sweeps),
        "cells/s",
    )
    metrics["peak_mib"] = (peak_mib(workload), "MiB")
    return metrics, failed


def measure_traced(workload, seconds: float, runner: Runner, failure) -> tuple[dict, set[str]]:
    import spans

    ops = workload.ops()
    tracer, null = spans.Tracer(), spans.NullTracer()
    traced_walls, null_walls = [], []
    deadline = perf_counter() + seconds
    while True:
        runner.iteration(ops)
        tracer.iteration += 1
        traced_walls.append(runner.traced_iteration(ops, tracer, failure))
        null_walls.append(runner.traced_iteration(ops, null, failure))
        if perf_counter() >= deadline:
            break
    failed = check(workload, runner, failure)
    tracer.write(OUT / f"trace-{workload.name}.json", workload=workload.name)
    return spans.layer_metrics(tracer.spans, traced_walls, null_walls, len(ops)), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="engineers, sweep-100x20 or rank-500x20")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    failure = (checks.CheckFailed, checks.OpFailed)
    workload = workloads.WORKLOADS[args.workload]()
    runner = Runner(workloads.same)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        setup_s = setup(workload, args.seed, Path(work))
        if args.trace:
            metrics, failed = measure_traced(workload, args.seconds, runner, failure)
        else:
            metrics, failed = measure(workload, args.seconds, runner, failure)
            metrics = {"setup_s": (import_seconds() + setup_s, "s"), **metrics}
    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    for key in sorted(failed):
        print(f"operation failed: {key} ({runner.count[key]} times)", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": sum(runner.count.values()),
        "failed": sum(runner.count[key] for key in failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
