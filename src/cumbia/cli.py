"""Command-line interface.

Subcommands: synth, preprocess, cumbia, pca, scree, shave. Every command
writes its outputs atomically and drops a JSON manifest next to the main
output recording the resolved parameters, the input digest, and the
digests of everything written, so a run can be reproduced from the
manifest alone.

Exit codes: 0 success, 1 input or usage error, 2 internal invariant
violation.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._fsio import atomic_write_text, sha256_file
from .bicluster import shave
from .dissimilarity import CumbiaConfig
from .embedding import cumbia, pca_biplot, scree
from .errors import CumbiaError, InputError, ParameterError
from .ingest import (
    filter_and_log2,
    load_table,
    synth_block,
    zscore_variables,
)
from .matrix_core import svd
from .plot import emit_scatter


@dataclass
class RunConfig:
    """Resolved invocation: the command plus every parameter that shaped it."""

    command: str
    parameters: dict = field(default_factory=dict)
    input_path: str | None = None
    outputs: list = field(default_factory=list)
    report: dict | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


DELIMS = {"comma": ",", "tab": "\t"}


def _add_io_flags(p, need_in=True):
    if need_in:
        p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    p.add_argument("--delim", choices=["comma", "tab"], default="comma")


def _add_table_flags(p):
    p.add_argument("--orient", choices=["samples-rows", "variables-rows"],
                   default="samples-rows")
    p.add_argument("--missing", default="NA", metavar="TOKEN")


def _add_cfg_flags(p):
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--k-vars", type=int, default=None)
    p.add_argument("--s", default="full")


def _add_plot_flags(p):
    p.add_argument("--plot", action="store_true")
    p.add_argument("--component-x", type=int, default=1)
    p.add_argument("--component-y", type=int, default=2)
    p.add_argument("--labels", default=None, metavar="PATH")


def build_parser():
    parser = _Parser(prog="cumbia", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the seeded planted-block benchmark")
    _add_io_flags(p, need_in=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", default=None, metavar="PATH",
                   help="also write planted/background object labels here")

    p = sub.add_parser("preprocess", help="filter, log2, and/or z-score a table")
    _add_io_flags(p)
    _add_table_flags(p)
    p.add_argument("--steps", default="filter-log2,zscore",
                   help="comma-separated pipeline from {filter-log2, zscore}")
    p.add_argument("--zero-variance", choices=["error", "drop"],
                   default="error")

    p = sub.add_parser("cumbia", help="joint sample-variable embedding")
    _add_io_flags(p)
    _add_table_flags(p)
    _add_cfg_flags(p)
    p.add_argument("--dims", type=int, default=3)
    _add_plot_flags(p)

    p = sub.add_parser("pca", help="biplot coordinates from the SVD")
    _add_io_flags(p)
    _add_table_flags(p)
    p.add_argument("--s", default="full")
    p.add_argument("--alpha", type=float, default=1.0)
    _add_plot_flags(p)

    p = sub.add_parser("scree", help="spectrum fractions for PCA or the embedding")
    _add_io_flags(p)
    _add_table_flags(p)
    _add_cfg_flags(p)
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--mode", choices=["pca", "cumbia"], default="pca")

    p = sub.add_parser("shave", help="backward-elimination biclustering trace")
    _add_io_flags(p)
    _add_table_flags(p)
    _add_cfg_flags(p)
    p.add_argument("--k0", type=int, default=3)
    p.add_argument("--drop-fraction", type=float, default=0.1)
    p.add_argument("--min-objects", type=int, default=2)
    return parser


def _parse_s(raw):
    if raw == "full":
        return None
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise InputError(f"--s must be an integer or 'full', got {raw!r}") from None


def _cfg_from(args):
    return CumbiaConfig(
        s=_parse_s(args.s),
        k_samples=args.k,
        k_variables=args.k_vars,
    )


def _load(args):
    return load_table(args.in_path, delimiter=DELIMS[args.delim],
                      orientation=args.orient, missing_token=args.missing)


def _require_complete(X):
    if np.isnan(X.values).any():
        raise InputError(
            "input contains missing values; run preprocess first"
        )


def _write_matrix(X, path, delim):
    lines = [delim.join(["id"] + list(X.variable_labels))]
    for label, row in zip(X.sample_labels, X.values):
        lines.append(delim.join([label] + [_cell(v) for v in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _cell(v):
    if np.isnan(v):
        return "NA"
    return repr(float(v))


def _write_coords(labels, kinds, coords, path, delim):
    d = coords.shape[1]
    header = ["object_label", "kind"] + [f"coord_{k + 1}" for k in range(d)]
    lines = [delim.join(header)]
    for i, (label, kind) in enumerate(zip(labels, kinds)):
        row = [label, kind] + [repr(float(v)) for v in coords[i]]
        lines.append(delim.join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_label_file(path, object_labels):
    """Label file: one 'object_label,category' line per object, header optional."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            raw = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise InputError(f"cannot read label file {path}: {exc}") from exc
    mapping = {}
    for line in raw:
        parts = [p.strip() for p in line.replace("\t", ",").split(",")]
        if len(parts) != 2:
            raise InputError(f"label file {path}: malformed line {line!r}")
        mapping[parts[0]] = parts[1]
    if "object_label" in mapping:
        del mapping["object_label"]
    return [mapping.get(label, "unlabeled") for label in object_labels]


def _manifest(run, out_path):
    payload = {
        "command": run.command,
        "parameters": run.parameters,
        "input_sha256": sha256_file(run.input_path) if run.input_path else None,
        "outputs": {path: sha256_file(path) for path in run.outputs},
        "version": __version__,
    }
    if run.report is not None:
        payload["report"] = run.report
    atomic_write_text(out_path + ".manifest.json",
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _maybe_plot(args, emb_or_biplot, labels_for_colors, run):
    if not args.plot:
        return
    cx, cy = args.component_x - 1, args.component_y - 1
    if args.component_x < 1 or args.component_y < 1:
        raise ParameterError("component indices are 1-based and must be >= 1")
    color_by = None
    if args.labels:
        color_by = _read_label_file(args.labels, labels_for_colors)
    path = args.out_path + ".svg"
    emit_scatter(emb_or_biplot, component_x=cx, component_y=cy,
                 color_by=color_by, out=path)
    run.outputs.append(path)


def cmd_synth(args):
    X, groups = synth_block(seed=args.seed)
    run = RunConfig(command="synth", parameters={
        "out": args.out_path, "delim": args.delim, "seed": args.seed,
        "labels": args.labels,
    })
    _write_matrix(X, args.out_path, DELIMS[args.delim])
    run.outputs.append(args.out_path)
    if args.labels:
        lines = ["object_label,group"]
        for label, group in zip(X.sample_labels, groups.assignment):
            lines.append(f"{label},{group}")
        # variables of the planted block are known here too; tag them for plots
        for j, label in enumerate(X.variable_labels):
            lines.append(f"{label},{'planted' if j < 25 else 'background'}")
        atomic_write_text(args.labels, "\n".join(lines) + "\n")
        run.outputs.append(args.labels)
    _manifest(run, args.out_path)
    return 0


def cmd_preprocess(args):
    X = _load(args)
    steps = [s.strip() for s in args.steps.split(",") if s.strip()]
    if not steps:
        raise InputError("--steps must name at least one step")
    report = {"dropped_missing": 0, "dropped_negative": 0,
              "log2": False, "zscored": False,
              "dropped_zero_variance": 0}
    for step in steps:
        if step == "filter-log2":
            X, rep = filter_and_log2(X)
            report["dropped_missing"] += rep.dropped_missing
            report["dropped_negative"] += rep.dropped_negative
            report["log2"] = True
        elif step == "zscore":
            _require_complete(X)
            before = X.n_variables
            X = zscore_variables(X, zero_variance_policy=args.zero_variance)
            report["dropped_zero_variance"] += before - X.n_variables
            report["zscored"] = True
        else:
            raise InputError(
                f"unknown step {step!r}; choose from filter-log2, zscore"
            )
    run = RunConfig(command="preprocess", parameters={
        "in": args.in_path, "out": args.out_path, "delim": args.delim,
        "orient": args.orient, "missing": args.missing, "steps": args.steps,
        "zero_variance": args.zero_variance,
    }, input_path=args.in_path, report=report)
    _write_matrix(X, args.out_path, DELIMS[args.delim])
    run.outputs.append(args.out_path)
    _manifest(run, args.out_path)
    return 0


def cmd_cumbia(args):
    X = _load(args)
    _require_complete(X)
    cfg = _cfg_from(args)
    emb = cumbia(X, cfg, dims=args.dims)
    run = RunConfig(command="cumbia", parameters={
        "in": args.in_path, "out": args.out_path, "delim": args.delim,
        "orient": args.orient, "missing": args.missing, "k": args.k,
        "k_vars": args.k_vars, "s": args.s, "dims": args.dims,
        "plot": args.plot, "component_x": args.component_x,
        "component_y": args.component_y, "labels": args.labels,
    }, input_path=args.in_path)
    delim = DELIMS[args.delim]
    _write_coords(emb.object_labels, emb.object_kinds, emb.coordinates,
                  args.out_path, delim)
    run.outputs.append(args.out_path)
    spectrum_path = args.out_path + ".spectrum.txt"
    atomic_write_text(
        spectrum_path,
        "\n".join(repr(float(v)) for v in emb.eigenvalues) + "\n",
    )
    run.outputs.append(spectrum_path)
    _maybe_plot(args, emb, emb.object_labels, run)
    _manifest(run, args.out_path)
    return 0


def cmd_pca(args):
    X = _load(args)
    _require_complete(X)
    bp = pca_biplot(X, s=_parse_s(args.s), alpha=args.alpha)
    run = RunConfig(command="pca", parameters={
        "in": args.in_path, "out": args.out_path, "delim": args.delim,
        "orient": args.orient, "missing": args.missing, "s": args.s,
        "alpha": args.alpha, "plot": args.plot,
        "component_x": args.component_x, "component_y": args.component_y,
        "labels": args.labels,
    }, input_path=args.in_path)
    labels = list(X.sample_labels) + list(X.variable_labels)
    kinds = ["sample"] * X.n_samples + ["variable"] * X.n_variables
    coords = np.vstack([bp.sample_coords, bp.variable_coords])
    _write_coords(labels, kinds, coords, args.out_path, DELIMS[args.delim])
    run.outputs.append(args.out_path)
    _maybe_plot(args, bp, labels, run)
    _manifest(run, args.out_path)
    return 0


def cmd_scree(args):
    X = _load(args)
    _require_complete(X)
    delim = DELIMS[args.delim]
    if args.mode == "pca":
        f = svd(X)
        fractions, negatives = scree(f.singular_values, "singular-values")
    else:
        emb = cumbia(X, _cfg_from(args), dims=args.dims)
        fractions, negatives = scree(emb.eigenvalues, "eigenvalues")
    lines = [delim.join(["kind", "index", "value"])]
    for i, frac in enumerate(fractions, start=1):
        lines.append(delim.join(["positive_fraction", str(i), repr(float(frac))]))
    for i, val in enumerate(negatives, start=1):
        lines.append(delim.join(["negative_eigenvalue", str(i), repr(float(val))]))
    run = RunConfig(command="scree", parameters={
        "in": args.in_path, "out": args.out_path, "delim": args.delim,
        "orient": args.orient, "missing": args.missing, "mode": args.mode,
        "k": args.k, "k_vars": args.k_vars, "s": args.s, "dims": args.dims,
    }, input_path=args.in_path)
    atomic_write_text(args.out_path, "\n".join(lines) + "\n")
    run.outputs.append(args.out_path)
    _manifest(run, args.out_path)
    return 0


def cmd_shave(args):
    X = _load(args)
    _require_complete(X)
    trace = shave(X, _cfg_from(args), k0=args.k0,
                  drop_fraction=args.drop_fraction,
                  min_objects=args.min_objects)
    delim = DELIMS[args.delim]
    lines = [delim.join(["step", "kind", "object_label", "score"])]
    for t, step in enumerate(trace.steps):
        for idx, score in zip(step.sample_indices, step.sample_scores):
            lines.append(delim.join(
                [str(t), "sample", X.sample_labels[idx], repr(float(score))]
            ))
        for idx, score in zip(step.variable_indices, step.variable_scores):
            lines.append(delim.join(
                [str(t), "variable", X.variable_labels[idx], repr(float(score))]
            ))
    run = RunConfig(command="shave", parameters={
        "in": args.in_path, "out": args.out_path, "delim": args.delim,
        "orient": args.orient, "missing": args.missing, "k": args.k,
        "k_vars": args.k_vars, "s": args.s, "k0": args.k0,
        "drop_fraction": args.drop_fraction, "min_objects": args.min_objects,
    }, input_path=args.in_path)
    atomic_write_text(args.out_path, "\n".join(lines) + "\n")
    run.outputs.append(args.out_path)
    _manifest(run, args.out_path)
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "cumbia": cmd_cumbia,
    "pca": cmd_pca,
    "scree": cmd_scree,
    "shave": cmd_shave,
}


def run(argv):
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


def main(argv=None):
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except CumbiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # no stack dumps at the CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
