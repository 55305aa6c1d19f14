"""Outside-in span tracing of the cumbia package.

The tracer wraps public functions of cumbia's modules from outside the
package: every module-level binding of a traced function (the defining
module, each module that imported it by name, the package namespace and
the CLI's command table) is replaced by a wrapper that records a span, and
every binding is restored on exit. Nothing under src/ is edited.

A span records its name, start, end, parent and the workload call it
belongs to. Spans stay in memory until the benchmark writes them out.
Counts of work are computed from argument shapes at the same boundary.
With memory=True (tracemalloc must be running) each span also records the
high-water mark of traced memory above its value at span entry.
"""

import math
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _shape(x):
    values = getattr(x, "values", x)
    return getattr(values, "shape", ())


def _kind_from_arg(args, kwargs):
    return "." + str(_arg(args, kwargs, 2, "kind"))


def _kind_from_parent(tracer):
    # the kernel has no kind argument; its caller, within_kind_diss, does
    parent = tracer.current_name()
    prefix = "dissimilarity.within_kind_diss."
    return "." + parent[len(prefix):] if parent.startswith(prefix) else ""


def _count_pairs(args, kwargs, result):
    n, m = _shape(_arg(args, kwargs, 0, "R"))
    pairs = n * (n - 1) // 2
    return {"pairs": pairs, "sums": pairs * m}


def _count_order(args, kwargs, result):
    return {"order": _shape(_arg(args, kwargs, 0, "D"))[0]}


def _count_square_bytes(args, kwargs, result):
    n = _shape(_arg(args, kwargs, 0, "D"))[0]
    return {"bytes": 8 * n * n}


def _count_cells(args, kwargs, result):
    return {"cells": math.prod(_shape(_arg(args, kwargs, 0, "X")))}


def _count_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_text_bytes(args, kwargs, result):
    text = _arg(args, kwargs, 1, "text")
    return {"bytes": len(text) if text.isascii() else len(text.encode("utf-8"))}


def _count_steps(args, kwargs, result):
    return {"steps": len(result.steps)}


# (module, function, span-name suffix rule, work counter). The span name is
# "<module>.<function>" plus the suffix the rule returns, with the module's
# leading underscore dropped, since metric names start with a letter.
TARGETS = [
    ("embedding", "cumbia", None, None),
    ("bicluster", "shave", None, _count_steps),
    ("matrix_core", "svd", None, _count_cells),
    ("dissimilarity", "joint_matrix", None, None),
    ("dissimilarity", "sample_variable_diss", None, None),
    ("dissimilarity", "identical_index_groups", None, None),
    ("dissimilarity", "within_kind_diss", "arg", None),
    ("_kernels", "pair_mean_k_smallest", "parent", _count_pairs),
    ("embedding", "classical_mds", None, _count_order),
    ("embedding", "double_center", None, _count_square_bytes),
    ("ingest", "load_table", None, _count_file_bytes),
    ("ingest", "zscore_variables", None, None),
    ("embedding", "pca_biplot", None, None),
    ("embedding", "scree", None, None),
    ("plot", "emit_scatter", None, None),
    ("_fsio", "atomic_write_text", None, _count_text_bytes),
    ("_fsio", "sha256_file", None, None),
]

ROOT = "bench.call"

# every span name a workload call can produce, in report order
SPAN_NAMES = [ROOT, "cli.preprocess", "cli.pca", "cli.scree"] + [
    f"{module.lstrip('_')}.{func}{kind}"
    for module, func, suffix, _ in TARGETS
    for kind in ([""] if suffix is None else [".samples", ".variables"])
]

COUNT_NAMES = [
    "kernels.pair_mean_k_smallest.samples.pairs",
    "kernels.pair_mean_k_smallest.samples.sums",
    "kernels.pair_mean_k_smallest.variables.pairs",
    "kernels.pair_mean_k_smallest.variables.sums",
    "embedding.classical_mds.order",
    "embedding.double_center.bytes",
    "matrix_core.svd.cells",
    "ingest.load_table.bytes",
    "fsio.atomic_write_text.bytes",
    "bicluster.shave.steps",
]


class Span:
    __slots__ = ("id", "name", "parent", "call", "start", "end", "peak",
                 "counts", "_base")

    def __init__(self, id, name, parent, call):
        self.id = id
        self.name = name
        self.parent = parent
        self.call = call
        self.start = self.end = None
        self.peak = 0
        self.counts = None

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "call": self.call, "start": self.start, "end": self.end,
                "peak_bytes": self.peak, "counts": self.counts}


def _cumbia_namespaces():
    """Every loaded cumbia module plus the CLI's command table."""
    spaces = [vars(mod) for name, mod in sorted(sys.modules.items())
              if mod is not None and (name == "cumbia"
                                      or name.startswith("cumbia."))]
    cli = sys.modules.get("cumbia.cli")
    if cli is not None:
        spaces.append(cli.COMMANDS)
    return spaces


class Tracer:
    """Records spans around cumbia's public functions while installed."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._stack = []
        self._patches = []
        self._calls = 0

    def current_name(self):
        return self._stack[-1].name if self._stack else ""

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            call = self._calls
            self._calls += 1
        else:
            call = parent.call
        span = Span(len(self.spans), name,
                    None if parent is None else parent.id, call)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            for open_span in self._stack:
                open_span.peak = max(open_span.peak, peak)
            tracemalloc.reset_peak()
            span._base = current
            span.peak = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            for open_span in self._stack:
                open_span.peak = max(open_span.peak, span.peak)
            span.peak -= span._base

    @contextmanager
    def span(self, name):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def _wrap(self, func, base, suffix, counter):
        tracer = self

        def traced(*args, **kwargs):
            if suffix == "arg":
                name = base + _kind_from_arg(args, kwargs)
            elif suffix == "parent":
                name = base + _kind_from_parent(tracer)
            else:
                name = base
            span = tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _patch(self, original, wrapper):
        for space in _cumbia_namespaces():
            for key, value in list(space.items()):
                if value is original:
                    self._patches.append((space, key, original))
                    space[key] = wrapper

    def install(self):
        import cumbia.cli  # noqa: F401  (loads every module with a target)

        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, func, suffix, counter in TARGETS:
            original = getattr(sys.modules["cumbia." + module], func)
            self._patch(original, self._wrap(
                original, f"{module.lstrip('_')}.{func}", suffix, counter))
        commands = sys.modules["cumbia.cli"].COMMANDS
        for command, original in list(commands.items()):
            self._patch(original, self._wrap(original, "cli." + command,
                                             None, None))

    def uninstall(self):
        while self._patches:
            space, key, original = self._patches.pop()
            space[key] = original

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def summarize(spans):
    """Per span name: calls, total_s and self_s per workload call.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap. Times are
    means over the workload calls (a root span each), so the self times of
    all spans add up to the mean root total. Counts are summed the same
    way; they are exact integers when every call does identical work.
    """
    n_calls = len({s.call for s in spans}) or 1
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    stats = {}
    counts = {}
    for s in spans:
        entry = stats.setdefault(s.name, [0, 0.0, 0.0])
        duration = s.end - s.start
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time.get(s.id, 0.0)
        for key, value in (s.counts or {}).items():
            metric = f"{s.name}.{key}"
            counts[metric] = counts.get(metric, 0) + value
    summary = {name: {"calls": _per_call(c, n_calls), "total_s": t / n_calls,
                      "self_s": own / n_calls}
               for name, (c, t, own) in stats.items()}
    counts = {k: _per_call(v, n_calls) for k, v in counts.items()}
    return summary, counts


def _per_call(total, n_calls):
    return total // n_calls if total % n_calls == 0 else total / n_calls


def peak_bytes(spans, name):
    """Largest peak, in bytes above entry, among spans with this name."""
    return max((s.peak for s in spans if s.name == name), default=0)
