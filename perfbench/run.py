"""Stage-level benchmark of cumbia: end-to-end metrics and a layer trace.

    python3 perfbench/run.py --workload embed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                # every workload, one process

Workloads (see perfbench/README.md for why each was chosen):
  embed     cumbia(zscore_variables(synth_block(100, 3000, seed)), dims=3)
  shave     shave(synth_block(60, 1500, seed), k0=3, drop_fraction=0.1)
  cli-wide  cumbia.cli.main: preprocess, pca --plot, scree on a 60 x 10,000 CSV

A run imports cumbia from src/, prepares the seeded inputs three times,
makes a small warm-up call, makes one untimed full-size call under
tracemalloc for memory, then times full-size calls for --seconds with
tracing off. With --trace 1 it alternates untraced and traced calls for
--seconds and reports per-layer metrics instead of end-to-end ones.

End-to-end metrics (--trace 0):
  call_s       median wall time of one call, tracing off
  setup_s      import (first workload of the process only), median input
               preparation, and the warm-up call
  peak_mem_mb  tracemalloc high-water mark of one call above its start

Every call's output is checked; failed / attempted is the error rate. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (machine facts, output
digests, spans of the traced run) goes to .perfbench/results/.

The numbers come from whatever machine runs this, usually a small shared
one; the benchmark measures only its own process (wall clock and
tracemalloc) and starts no threads or processes beyond the BLAS pool.
"""

import argparse
import gc
import importlib.metadata
import importlib.util
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "cumbia")):
    sys.exit(f"error: no cumbia package under {SRC}")
sys.path.insert(0, SRC)

# importing cumbia is part of set-up, so it is timed here, once per process
_t0 = time.perf_counter()
import cumbia  # noqa: E402
import cumbia._kernels  # noqa: E402
import cumbia.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

from tracer import COUNT_NAMES, ROOT as ROOT_SPAN, SPAN_NAMES  # noqa: E402
from tracer import Tracer, peak_bytes, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MB = 1e6
PEAK_SPANS = ("dissimilarity.joint_matrix", "embedding.classical_mds",
              "embedding.double_center")


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        backend = cumbia._kernels.backend_name()
    except cumbia.CumbiaError as exc:
        backend = f"error: {exc}"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
        "note": (f"{nproc}-core machine, possibly shared with other load; "
                 "measured only through this process (wall clock and "
                 "tracemalloc), no system-wide counters"),
    }


class Runner:
    """Makes checked calls and keeps the tally of failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def call(self, workload, inputs, wrap=nullcontext):
        """One checked call; return (wall time or None if failed, output).

        Only workload.run is timed and runs inside wrap()."""
        self.attempted += 1
        gc.collect()
        try:
            with wrap():
                t0 = time.perf_counter()
                out = workload.run(inputs)
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # a raising call is a failed call
            self._fail(workload, [f"raised {type(exc).__name__}: {exc}"])
            return None, None
        reasons = workload.check(inputs, out)
        if reasons:
            self._fail(workload, reasons)
            return None, out
        return elapsed, out

    def _fail(self, workload, reasons):
        self.failed += 1
        for reason in reasons:
            line = f"{workload.name}: check failed: {reason}"
            print(line, file=sys.stderr)
            self.reasons.append(line)

    def loop(self, workload, inputs, seconds, wrap=nullcontext):
        """Call repeatedly for `seconds`; return the times of passing calls."""
        times = []
        start = time.perf_counter()
        while True:
            elapsed, _ = self.call(workload, inputs, wrap)
            if elapsed is not None:
                times.append(elapsed)
            if time.perf_counter() - start >= seconds:
                return times

    def paired_loop(self, workload, inputs, seconds, traced):
        """Alternate untraced and traced calls for `seconds`, swapping which
        goes first in each pair, so that a drift in machine speed falls on
        both alike. Return the untraced and traced times of the pairs whose
        calls both passed."""
        plain, with_trace = [], []
        start = time.perf_counter()
        for i in itertools.count():
            wraps = [nullcontext, traced] if i % 2 == 0 else [traced, nullcontext]
            got = {wrap: self.call(workload, inputs, wrap)[0] for wrap in wraps}
            if None not in got.values():
                plain.append(got[nullcontext])
                with_trace.append(got[traced])
            if time.perf_counter() - start >= seconds:
                return plain, with_trace


def setup(workload, seed, workdir, runner):
    """Prepare the inputs SETUP_REPEATS times, then make one small warm-up
    call. The warm-up is the workload's first call (in a --workload run,
    the process's first call), timed once rather than as a median, so that
    work done only on a first call (starting a pool, compiling) shows in
    setup_s. Return the inputs, the preparation times and the warm-up
    time."""
    prepare_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.prepare(seed, workdir)
        prepare_times.append(time.perf_counter() - t0)
    small = workload.warmup()
    small_inputs = small.prepare(seed, workdir)
    t0 = time.perf_counter()
    runner.call(small, small_inputs)
    return inputs, prepare_times, time.perf_counter() - t0


def memory_pass(runner, workload, inputs):
    """One untimed full-size call under tracemalloc; return its spans and
    output. It runs before the timed calls, so that the allocator has
    grown to full size before timing starts."""
    tracer = Tracer(memory=True)
    gc.collect()
    tracemalloc.start()
    try:
        with tracer.installed():
            _, out = runner.call(workload, inputs,
                                 wrap=lambda: tracer.span(ROOT_SPAN))
    finally:
        tracemalloc.stop()
    return tracer.spans, out


def run_workload(workload, seed, seconds, trace, workdir, import_s=IMPORT_S):
    """Run one workload; return (result record, metrics). import_s is the
    share of the process's import time that this workload's setup_s
    carries: all of it for the first workload, none for later ones."""
    runner = Runner()
    inputs, prepare_times, warmup_s = setup(workload, seed, workdir, runner)
    mem_spans, out = memory_pass(runner, workload, inputs)

    traced_times = []
    if trace:
        tracer = Tracer()

        @contextmanager
        def traced():
            with tracer.installed(), tracer.span(ROOT_SPAN):
                yield

        times, traced_times = runner.paired_loop(workload, inputs, seconds,
                                                 traced)
    else:
        times = runner.loop(workload, inputs, seconds)
    info = workload.info(inputs, out) if out is not None else {}

    N, p = workload.input_shape()
    buffer_bytes = 8 * (N + p) ** 2
    root_peak = peak_bytes(mem_spans, ROOT_SPAN)
    call_s = statistics.median(times) if times else float("nan")
    metrics = {}
    if not trace:
        metrics["call_s"] = (call_s, "s")
        metrics["setup_s"] = (
            import_s + statistics.median(prepare_times) + warmup_s, "s")
        metrics["peak_mem_mb"] = (root_peak / MB, "MB")
    else:
        summary, counts = summarize(tracer.spans)
        for span in SPAN_NAMES:
            stats = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            metrics[f"{span}.calls"] = (stats["calls"], "count")
            metrics[f"{span}.total_s"] = (stats["total_s"], "s")
            metrics[f"{span}.self_s"] = (stats["self_s"], "s")
        for count in COUNT_NAMES:
            unit = "B" if count.endswith(".bytes") else "count"
            metrics[count] = (counts.get(count, 0), unit)
        for span in PEAK_SPANS:
            metrics[f"{span}.peak_mb"] = (peak_bytes(mem_spans, span) / MB, "MB")
        metrics["peak_buffers"] = (root_peak / buffer_bytes, "buffers")
        # median of paired differences; it can read below 0 when the
        # wrappers' cost is smaller than the noise between two calls
        overhead = [t - p for p, t in zip(times, traced_times)]
        metrics["trace_overhead_s"] = (
            statistics.median(overhead) if overhead else float("nan"), "s")

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "call_samples": times,
        "traced_call_samples": traced_times,
        "import_s": import_s,
        "prepare_samples": prepare_times,
        "warmup_s": warmup_s,
        "peak_buffers_base": f"8*(N+p)^2 bytes = {buffer_bytes} for the "
                             f"{N} x {p} input",
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failure_reasons": runner.reasons,
        "outputs": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace:
        record["spans"] = [s.as_dict() for s in tracer.spans]
        record["memory_spans"] = [s.as_dict() for s in mem_spans]
    return record, metrics


def _print_summary(record, metrics):
    name = record["workload"]
    root_s = metrics.get(f"{ROOT_SPAN}.total_s", (0.0, "s"))[0]
    for key, (value, unit) in metrics.items():
        extra = ""
        if key == "call_s":
            extra = f"  (median of {len(record['call_samples'])} calls)"
        elif key == "setup_s":
            extra = (f"  (import {record['import_s']:.3f} s + median of "
                     f"{len(record['prepare_samples'])} input preparations + "
                     f"warm-up call {record['warmup_s']:.3f} s)")
        elif key.endswith(("total_s", "self_s")) and root_s > 0:
            extra = f"  ({100 * value / root_s:.1f}% of {ROOT_SPAN}.total_s)"
        print(f"{name:9s} {key:52s} {value:14.6g} {unit}{extra}")
    rate = record["failed"] / record["attempted"]
    print(f"{name:9s} {'error_rate':52s} {rate:14.6g} ratio"
          f"  ({record['failed']} failed / {record['attempted']} attempted)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # clamp notices at the small warm-up sizes are expected, not failures
    warnings.simplefilter("ignore", cumbia.CumbiaWarning)
    os.chdir(ROOT)
    base = ".perfbench"
    workdir = os.path.join(base, f"work-{os.getpid()}")
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    totals = {"attempted": 0, "failed": 0}
    all_metrics = {}
    try:
        for name in names:
            os.makedirs(workdir, exist_ok=True)
            # the import is timed once, so only the first workload carries it
            import_s = IMPORT_S if name == names[0] else 0.0
            record, metrics = run_workload(WORKLOADS[name](), args.seed, args.seconds,
                                           args.trace, workdir, import_s)
            shutil.rmtree(workdir)
            record["machine"] = facts
            path = os.path.join(
                results, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
            _print_summary(record, metrics)
            totals["attempted"] += record["attempted"]
            totals["failed"] += record["failed"]
            prefix = "" if len(names) == 1 else name + "."
            for key, (value, unit) in metrics.items():
                # a workload whose every call failed has no time to report
                value = value if math.isfinite(value) else None
                all_metrics[prefix + key] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": all_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
