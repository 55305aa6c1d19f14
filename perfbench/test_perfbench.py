"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

import json
import os
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import run
import tracer as tracing
from workloads import CliWide, Embed, Shave

import cumbia

TINY = {
    "embed": lambda: Embed(N=8, p=30),
    "shave": lambda: Shave(N=10, p=40),
    "cli-wide": lambda: CliWide(N=6, p=50),
}
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cumbia.CumbiaWarning)
        yield


def _bindings():
    return {(id(space), key): value
            for space in tracing._cumbia_namespaces()
            for key, value in space.items()}


def test_tracer_restores_every_binding():
    before = _bindings()
    t = tracing.Tracer()
    with t.installed():
        during = _bindings()
        # every binding named in the workloads' call paths is wrapped
        assert cumbia.embedding.svd.__wrapped__ is before[
            (id(vars(cumbia.matrix_core)), "svd")]
        for module in (cumbia.matrix_core, cumbia.embedding,
                       cumbia.bicluster, cumbia.cli):
            assert hasattr(module.svd, "__wrapped__")
        assert hasattr(cumbia.dissimilarity.pair_mean_k_smallest, "__wrapped__")
        for module in (cumbia.cli, cumbia.plot, cumbia._fsio):
            assert hasattr(module.atomic_write_text, "__wrapped__")
        for command in cumbia.cli.COMMANDS.values():
            assert hasattr(command, "__wrapped__")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert sum(during[key] is not before[key] for key in before) >= 30


def _traced_calls(name, tmp_path, calls=2):
    workload = TINY[name]()
    inputs = workload.prepare(0, str(tmp_path))
    t = tracing.Tracer()
    with t.installed():
        for _ in range(calls):
            with t.span(tracing.ROOT):
                out = workload.run(inputs)
            assert workload.check(inputs, out) == []
    return t.spans


@pytest.mark.parametrize("name", sorted(TINY))
def test_child_and_self_times_sum_to_each_root(name, tmp_path):
    spans = _traced_calls(name, tmp_path)
    summary, _ = tracing.summarize(spans)
    roots = [s for s in spans if s.parent is None]
    assert len(roots) == 2
    for root in roots:
        subtree = [s for s in spans if s.call == root.call]
        children = {}
        for s in subtree:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total_self = 0.0
        for s in subtree:
            kids = children.get(s.id, [])
            assert all(s.start <= k.start <= k.end <= s.end for k in kids)
            total_self += (s.end - s.start) - sum(k.end - k.start for k in kids)
        assert total_self == pytest.approx(root.end - root.start, abs=1e-9)
    self_sum = sum(stats["self_s"] for stats in summary.values())
    assert self_sum == pytest.approx(summary[tracing.ROOT]["total_s"], abs=1e-9)
    assert set(summary) <= set(tracing.SPAN_NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_identical_across_runs(name, tmp_path):
    counts = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        _, metrics = run.run_workload(TINY[name](), 3, 0, 1, str(workdir))
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith(".calls") or k in tracing.COUNT_NAMES})
    assert counts[0] == counts[1]
    if name == "shave":
        assert counts[0]["bicluster.shave.steps"][0] > 1
        assert counts[0]["embedding.classical_mds.calls"][0] == 0
    if name == "embed":
        assert counts[0]["embedding.classical_mds.order"][0] == 8 + 30


def test_embed_check_rejects_corrupted_output(tmp_path):
    workload = TINY["embed"]()
    Z = workload.prepare(1, str(tmp_path))
    emb = workload.run(Z)
    assert workload.check(Z, emb) == []
    emb.coordinates = emb.coordinates.copy()
    emb.coordinates[:, 1] *= -1.0
    emb.eigenvalues = np.random.default_rng(0).permutation(emb.eigenvalues)
    reasons = workload.check(Z, emb)
    assert any("descending" in r for r in reasons)
    assert any("lambda_k" in r for r in reasons)


def test_shave_check_rejects_corrupted_output(tmp_path):
    workload = TINY["shave"]()
    X = workload.prepare(1, str(tmp_path))
    trace = workload.run(X)
    assert workload.check(X, trace) == []
    step = trace.steps[2]
    step.variable_indices = step.variable_indices[1:]
    step.sample_scores = step.sample_scores.copy()
    step.sample_scores[0] = np.nan
    reasons = workload.check(X, trace)
    assert any("remain" in r for r in reasons)
    assert any("do not align" in r for r in reasons)
    assert any("not finite" in r for r in reasons)


def test_cli_check_rejects_corrupted_output(tmp_path):
    workload = TINY["cli-wide"]()
    directory = workload.prepare(1, str(tmp_path))
    codes = workload.run(directory)
    assert workload.check(directory, codes) == []
    with open(os.path.join(directory, "scree.txt"), "a") as handle:
        handle.write("tampered\n")
    reasons = workload.check(directory, codes)
    assert any("scree.txt does not match" in r for r in reasons)
    assert workload.check(directory, [0, 1, 0]) != []


def test_metric_names_match_benchmark_json(tmp_path):
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    _, plain = run.run_workload(TINY["embed"](), 0, 0, 0, str(tmp_path))
    _, traced = run.run_workload(TINY["embed"](), 0, 0, 1, str(tmp_path))
    assert list(plain) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced) == [m["name"] for m in spec["per_layer"]]
    for group, metrics in (("end_to_end", plain), ("per_layer", traced)):
        for m in spec[group]:
            assert metrics[m["name"]][1] == m["unit"]


def test_paired_loop_keeps_traced_and_untraced_times_apart():
    state = {"traced": False}

    @contextmanager
    def traced():
        state["traced"] = True
        try:
            yield
        finally:
            state["traced"] = False

    class Sleeper:
        name = "sleeper"

        def run(self, inputs):
            time.sleep(0.02 if state["traced"] else 0.001)

        def check(self, inputs, out):
            return []

    plain, with_trace = run.Runner().paired_loop(Sleeper(), None, 0.1, traced)
    assert len(plain) == len(with_trace) >= 2
    assert max(plain) < 0.01 < min(with_trace)
