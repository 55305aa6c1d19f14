"""The benchmark's workloads: seeded inputs, one call, and output checks.

Each workload makes its inputs from a seed with cumbia's own generator,
passes the library only those inputs, and checks every output. A check
returns a list of failure reasons; an empty list means the output passed.
info() records digests and diagnostics that are reported but never gate.

Library functions are looked up through the package at call time, so the
tracer's wrappers see every call.
"""

import hashlib
import json
import math
import os

import numpy as np

import cumbia
import cumbia.cli

NORM_RTOL = 1e-9
CENTER_RTOL = 1e-9
N_PLANTED_VARIABLES = 25


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Embed:
    """One cumbia() call on a z-scored planted-block matrix."""

    name = "embed"

    def __init__(self, N=100, p=3000, dims=3):
        self.N, self.p, self.dims = N, p, dims

    def input_shape(self):
        return self.N, self.p

    def warmup(self):
        return Embed(N=20, p=200, dims=self.dims)

    def prepare(self, seed, workdir):
        X, _ = cumbia.synth_block(N=self.N, p=self.p, seed=seed)
        return cumbia.zscore_variables(X)

    def run(self, Z):
        return cumbia.cumbia(Z, cumbia.CumbiaConfig(), dims=self.dims)

    def check(self, Z, emb):
        n = Z.n_samples + Z.n_variables
        coords = np.asarray(emb.coordinates)
        lam = np.asarray(emb.eigenvalues)
        if coords.shape != (n, self.dims):
            return [f"coordinates have shape {coords.shape}, "
                    f"expected {(n, self.dims)}"]
        reasons = []
        if not np.all(np.isfinite(coords)):
            reasons.append("coordinates are not all finite")
        if lam.shape != (n,):
            return reasons + [f"spectrum has shape {lam.shape}, expected ({n},)"]
        if not np.all(np.diff(lam) <= 0):
            reasons.append("spectrum is not in descending order")
        norm_err, center_err = _embedding_errors(coords, lam)
        if not norm_err <= NORM_RTOL:
            reasons.append(f"|coord_k|^2 differs from lambda_k by relative "
                           f"{norm_err:.3g} > {NORM_RTOL}")
        if not center_err <= CENTER_RTOL:
            reasons.append(f"column sums reach {center_err:.3g} of the largest "
                           f"coordinate > {CENTER_RTOL}")
        return reasons

    def info(self, Z, emb):
        coords = np.asarray(emb.coordinates)
        lam = np.asarray(emb.eigenvalues)
        norm_err, center_err = _embedding_errors(coords, lam)
        return {
            "coordinates_sha256": _sha256(coords),
            "eigenvalues_sha256": _sha256(lam),
            "norm_rel_error": norm_err,
            "center_rel_error": center_err,
            "planted_recall_top25_c1": _planted_recall(Z, coords),
        }


def _embedding_errors(coords, lam):
    d = coords.shape[1]
    sq = np.sum(coords * coords, axis=0)
    norm_err = float(np.max(np.abs(sq - lam[:d]) / np.abs(lam[:d])))
    scale = float(np.max(np.abs(coords)))
    center_err = float(np.max(np.abs(coords.sum(axis=0))) / scale)
    return norm_err, center_err


def _planted_recall(Z, coords):
    """Planted variables among the 25 variables furthest toward the planted
    samples on component 1 (synth_block plants the first 6 samples and the
    first 25 variables)."""
    N = Z.n_samples
    c1 = coords[:, 0]
    toward = 1.0 if c1[:6].mean() >= 0 else -1.0
    order = np.argsort(-toward * c1[N:], kind="stable")
    return int(np.sum(order[:N_PLANTED_VARIABLES] < N_PLANTED_VARIABLES))


class Shave:
    """One shave() run: many kernel calls on shrinking submatrices."""

    name = "shave"

    def __init__(self, N=60, p=1500, k0=3, drop_fraction=0.1, min_objects=2):
        self.N, self.p = N, p
        self.k0, self.drop_fraction, self.min_objects = k0, drop_fraction, min_objects

    def input_shape(self):
        return self.N, self.p

    def warmup(self):
        return Shave(12, 120, self.k0, self.drop_fraction, self.min_objects)

    def prepare(self, seed, workdir):
        X, _ = cumbia.synth_block(self.N, self.p, seed=seed)
        return X

    def run(self, X):
        return cumbia.shave(X, k0=self.k0, drop_fraction=self.drop_fraction)

    def check(self, X, trace):
        reasons = []
        steps = trace.steps
        if not steps:
            return ["trace has no steps"]
        first = steps[0]
        if (first.sample_indices.size != X.n_samples
                or first.variable_indices.size != X.n_variables):
            reasons.append("first step does not hold every object")
        for t, step in enumerate(steps):
            for kind in ("sample", "variable"):
                idx = getattr(step, kind + "_indices")
                scores = getattr(step, kind + "_scores")
                if scores.shape != idx.shape:
                    reasons.append(f"step {t}: {kind} scores do not align "
                                   "with survivors")
                elif not np.all(np.isfinite(scores)):
                    reasons.append(f"step {t}: {kind} scores are not finite")
        for t in range(1, len(steps)):
            prev, step = steps[t - 1], steps[t]
            for kind in ("sample", "variable"):
                before = getattr(prev, kind + "_indices")
                after = getattr(step, kind + "_indices")
                if not np.all(np.isin(after, before)):
                    reasons.append(f"step {t}: {kind}s are not nested")
                expected = before.size - min(
                    math.ceil(self.drop_fraction * before.size),
                    before.size - self.min_objects)
                if after.size != expected:
                    reasons.append(f"step {t}: {after.size} {kind}s remain, "
                                   f"expected {expected}")
        last = steps[-1]
        if min(last.sample_indices.size,
               last.variable_indices.size) > self.min_objects:
            reasons.append("trace stopped before either kind reached "
                           f"{self.min_objects} objects")
        return reasons

    def info(self, X, trace):
        arrays = []
        for step in trace.steps:
            arrays += [step.sample_indices, step.variable_indices,
                       step.sample_scores, step.variable_scores]
        return {"trace_sha256": _sha256(*arrays), "steps": len(trace.steps)}


COMMANDS = (
    ("preprocess", "raw.csv", "z.csv", ["--steps", "zscore"]),
    ("pca", "z.csv", "biplot.csv", ["--plot"]),
    ("scree", "z.csv", "scree.txt", ["--mode", "pca"]),
)


class CliWide:
    """preprocess, pca --plot and scree through cumbia.cli.main, in process."""

    name = "cli-wide"

    def __init__(self, N=60, p=10000):
        self.N, self.p = N, p

    def input_shape(self):
        return self.N, self.p

    def warmup(self):
        return CliWide(N=12, p=400)

    def prepare(self, seed, workdir):
        """Write the seeded matrix; return the directory the commands use."""
        directory = os.path.join(workdir, f"{self.N}x{self.p}")
        os.makedirs(directory, exist_ok=True)
        X, _ = cumbia.synth_block(self.N, self.p, seed=seed)
        # the CLI's own writer, so the input is exactly what `synth` writes
        cumbia.cli._write_matrix(X, os.path.join(directory, "raw.csv"), ",")
        return directory

    def run(self, directory):
        codes = []
        for command, src, out, extra in COMMANDS:
            argv = [command, "--in", os.path.join(directory, src),
                    "--out", os.path.join(directory, out)] + extra
            codes.append(cumbia.cli.main(argv))
        return codes

    def check(self, directory, codes):
        reasons = []
        for (command, _, out, _), code in zip(COMMANDS, codes):
            if code != 0:
                reasons.append(f"{command} exited {code}")
                continue
            manifest_path = os.path.join(directory, out) + ".manifest.json"
            try:
                with open(manifest_path, encoding="utf-8") as handle:
                    manifest = json.load(handle)
                recorded = dict(manifest["outputs"])
                recorded[manifest["parameters"]["in"]] = manifest["input_sha256"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reasons.append(f"{command}: unreadable manifest: {exc!r}")
                continue
            for path, digest in sorted(recorded.items()):
                if not os.path.exists(path):
                    reasons.append(f"{command}: {path} is missing")
                elif _sha256_file(path) != digest:
                    reasons.append(f"{command}: sha256 of {path} does not "
                                   "match its manifest")
        return reasons

    def info(self, directory, codes):
        digests = {}
        for name in sorted(os.listdir(directory)):
            if not name.startswith("."):
                digests[name] = _sha256_file(os.path.join(directory, name))
        return {"exit_codes": codes, "sha256": digests}


WORKLOADS = {"embed": Embed, "shave": Shave, "cli-wide": CliWide}

