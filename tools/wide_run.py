"""One cumbia() or shave() call at expression-data width, timed by stage.

    python3 tools/wide_run.py --out wide.json
    python3 tools/wide_run.py --out wide.json --shape 100 3000
    python3 tools/wide_run.py --out wide.json --shave
    python3 tools/wide_run.py --out wide.json --shave --shape 60 6000 --k0 200

Runs cumbia(), or with --shave shave() at its defaults but K0 (--k0, 3 by
default, refused without --shave), once on z-scored synth_block(N, p,
seed=0): by default 60 x 20,000, or 60 x 16,000 when MemAvailable is below
the memory guard's estimate for 20,000 variables plus 1 GiB. A shape whose
estimate plus 1 GiB exceeds MemAvailable is skipped, not run. The run's record holds the
wall time of each stage and the resident peak (VmHWM from
/proc/self/status minus the RSS before the call) of a call made with
tracemalloc off, and the tracemalloc peak of a second call of its own, both
peaks in float64 buffers of the size the call's memory guard counts:
(N+p)^2 entries for cumbia(), N x p for shave(). tracemalloc slows
allocation-heavy code (shave at 60 x 1500: 0.74-0.78 s traced against
0.45-0.46 s plain), so no stage is timed under it; a first call longer than
TRACED_PASS_MAX_S gets no second one, and its tracemalloc peak is null. A
shave() record also holds K0 and the kernel's worker count, which taskset
can lower. It is appended to the runs in --out, next to the machine facts.
VmHWM is the peak of the whole process image (unlike ru_maxrss, which
Linux carries across execve from a larger parent), so each run needs a
process of its own. Stages are timed by wrapping the module-level
functions the call makes. A stage call that ends while no other stage is
open is outermost, and "other" is the call's time minus the outermost
calls': cumbia()'s in-place squaring and shave()'s bookkeeping have no
function of their own and are left there. Linux only: it reads
/proc/meminfo and /proc/self/statm and status.
"""

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import cumbia  # noqa: E402
from cumbia import _kernels, bicluster, dissimilarity, embedding  # noqa: E402

WIDE_SHAPES = ((60, 20000), (60, 16000))
HEADROOM = 2**30
SHAVE_K0 = 3  # shave()'s default
# longest first call that is repeated under tracemalloc for its peak; the
# 60 x 20,000 calls (65 s and more) are not
TRACED_PASS_MAX_S = 60.0

# (module, function, span name); a span name ending in "." gets the kind
# argument appended. svd and sample_variable_diss are wrapped in each module
# that binds them, and a stage the call never reaches adds no key. shave()'s
# k0_scores is the kernel with its duplicate detection and its running
# K0-smallest lists
STAGES = [
    (embedding, "joint_matrix", "joint_matrix"),
    (dissimilarity, "svd", "svd"),
    (dissimilarity, "sample_variable_diss", "sample_variable_diss"),
    (_kernels, "identical_index_groups", "identical_index_groups"),
    (dissimilarity, "within_kind_diss", "within_kind_diss."),
    (embedding, "_double_center_in_place", "double_center_in_place"),
    (embedding, "_embed_gram", "embed_gram"),
    (_kernels, "_eigen_in_place", "eigen_in_place"),
    (bicluster, "svd", "svd"),
    (bicluster, "sample_variable_diss", "sample_variable_diss"),
    (bicluster, "_kind_scores", "k0_scores."),
]


def meminfo():
    fields = {}
    with open("/proc/meminfo") as handle:
        for line in handle:
            key, value = line.split(":")
            fields[key] = int(value.split()[0]) * 1024
    return fields


def rss_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes():
    with open("/proc/self/status") as handle:
        return next(int(line.split()[1]) * 1024 for line in handle
                    if line.startswith("VmHWM:"))


def install_timers(seconds, outer):
    """Wrap every STAGES function so that each call adds its wall time to
    seconds under its span name, and to outer[0] too if no other stage is
    open when it ends; return the originals."""
    originals = []
    open_stages = [0]
    for module, name, span in STAGES:
        func = getattr(module, name)
        originals.append((module, name, func))

        def timed(*args, _func=func, _span=span, **kwargs):
            label = _span + args[2] if _span.endswith(".") else _span
            open_stages[0] += 1
            t0 = time.perf_counter()
            try:
                return _func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                open_stages[0] -= 1
                seconds[label] = seconds.get(label, 0.0) + elapsed
                if not open_stages[0]:
                    outer[0] += elapsed

        setattr(module, name, timed)
    return originals


def machine_facts(mem):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MemTotal_gib": mem["MemTotal"] / 2**30,
    }


def timed_call(call, Z, buffer):
    """Run call(Z) once under the stage timers with tracemalloc off, then,
    if that took at most TRACED_PASS_MAX_S, once more under tracemalloc
    alone; return the first result and the record of its time and memory,
    in buffers of buffer bytes."""
    seconds = {}
    outer = [0.0]
    originals = install_timers(seconds, outer)
    before = rss_bytes()
    try:
        t0 = time.perf_counter()
        result = call(Z)
        total = time.perf_counter() - t0
    finally:
        for module, name, func in originals:
            setattr(module, name, func)
    # read before the traced call, whose traces take memory of their own
    peak = peak_rss_bytes()
    traced = None
    if total <= TRACED_PASS_MAX_S:
        tracemalloc.start()
        try:
            call(Z)
            traced = tracemalloc.get_traced_memory()[1] / buffer
        finally:
            tracemalloc.stop()
    seconds["other"] = total - outer[0]
    return result, {
        "call_s": total,
        "stage_s": seconds,
        "tracemalloc_peak_buffers": traced,
        "resident_peak_buffers": (peak - before) / buffer,
        "pre_call_rss_mib": before / 2**20,
    }


def wide_input(N, p):
    X, _ = cumbia.synth_block(N=N, p=p, seed=0)
    return cumbia.zscore_variables(X)


def run_cumbia(N, p, buffer):
    """Time one cumbia() call on the N x p input; return its record's own
    fields."""
    emb, timing = timed_call(lambda Z: cumbia.cumbia(Z, dims=3),
                             wide_input(N, p), buffer)
    return {
        "objects": N + p,
        **timing,
        "dims_used": emb.dims_used,
        "top_eigenvalues": emb.eigenvalues[:3].tolist(),
    }


def run_shave(N, p, buffer, guard, k0):
    """Time one shave() call at its defaults but k0 on the N x p input;
    return its record's own fields."""
    trace, timing = timed_call(lambda Z: cumbia.shave(Z, k0=k0),
                               wide_input(N, p), buffer)
    last = trace.steps[-1]
    return {
        "k0": k0,
        "kernel_threads": _kernels._worker_count(),
        "guard_buffers": guard,
        **timing,
        "steps": len(trace.steps),
        "last_step_shape": [last.sample_indices.size,
                            last.variable_indices.size],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--shape", type=int, nargs=2, metavar=("N", "P"))
    parser.add_argument("--shave", action="store_true",
                        help="run shave() instead of cumbia()")
    parser.add_argument("--k0", type=int,
                        help=f"shave()'s K0 (default {SHAVE_K0}, its own "
                        "default); only with --shave")
    args = parser.parse_args()
    if args.k0 is not None and not args.shave:
        parser.error("--k0 applies only with --shave")
    warnings.simplefilter("ignore", cumbia.CumbiaWarning)
    k0 = SHAVE_K0 if args.k0 is None else args.k0
    workload = "shave" if args.shave else "cumbia"

    record = {"runs": [], "skipped": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            record = json.load(handle)
    mem = meminfo()
    record["machine"] = machine_facts(mem)
    if args.shave:
        record["shave_fixed_peak_buffers"] = bicluster.FIXED_PEAK_BUFFERS
        record["shave_thread_peak_buffers"] = bicluster.THREAD_PEAK_BUFFERS
    else:
        record["resident_peak_buffers_constant"] = \
            embedding._resident_peak_buffers()
    for N, p in [tuple(args.shape)] if args.shape else WIDE_SHAPES:
        if args.shave:
            buffer = 8 * N * p
            guard = bicluster._peak_buffers((N, p), k0)
        else:
            buffer = 8 * (N + p) ** 2
            guard = embedding._resident_peak_buffers()
        facts = {
            "workload": workload,
            "shape": [N, p],
            "guard_estimate_gib": guard * buffer / 2**30,
            "MemAvailable_gib": mem["MemAvailable"] / 2**30,
        }
        if mem["MemAvailable"] >= guard * buffer + HEADROOM:
            run = (run_shave(N, p, buffer, guard, k0) if args.shave
                   else run_cumbia(N, p, buffer))
            record["runs"].append({**facts, "buffer_gib": buffer / 2**30,
                                   **run})
            break
        record["skipped"].append({
            **facts,
            "reason": "MemAvailable below the guard's estimate plus 1 GiB",
        })
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(record, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
