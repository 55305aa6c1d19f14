"""Command-line interface.

Subcommands: synth, preprocess, cumbia, pca, scree, shave. Every command
returns its outputs as lines; run writes them all atomically together with
a JSON manifest next to the main output recording the resolved parameters,
the input digest, and the digests of everything written, so a run can be
reproduced from the manifest alone.

Exit codes: 0 success, 1 input or usage error, 2 internal invariant
violation.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
# atomic_write_text is re-exported for perfbench/tracer.py, which wraps it here
from ._fsio import (atomic_write, atomic_write_text, records,  # noqa: F401
                    sha256_file, table_lines)
from .bicluster import shave
from .dissimilarity import CumbiaConfig
from .embedding import cumbia, pca_biplot, scree
from .errors import CumbiaError, InputError, ParameterError
from .ingest import (
    PLANTED_VARIABLES,
    filter_and_log2,
    load_table,
    synth_block,
    zscore_variables,
)
from .matrix_core import svd
from .plot import svg_lines


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


DELIMS = {"comma": ",", "tab": "\t"}


def _add_io_flags(p, table=True):
    if table:
        p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    p.add_argument("--delim", choices=["comma", "tab"], default="comma")
    if table:
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
    _add_io_flags(p, table=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", default=None, metavar="PATH",
                   help="also write planted/background object labels here")

    p = sub.add_parser("preprocess", help="filter, log2, and/or z-score a table")
    _add_io_flags(p)
    p.add_argument("--steps", default="filter-log2,zscore",
                   help="comma-separated pipeline from {filter-log2, zscore}")
    p.add_argument("--zero-variance", choices=["error", "drop"],
                   default="error")

    p = sub.add_parser("cumbia", help="joint sample-variable embedding")
    _add_io_flags(p)
    _add_cfg_flags(p)
    p.add_argument("--dims", type=int, default=3)
    _add_plot_flags(p)

    p = sub.add_parser("pca", help="biplot coordinates from the SVD")
    _add_io_flags(p)
    p.add_argument("--s", default="full")
    p.add_argument("--alpha", type=float, default=1.0)
    _add_plot_flags(p)

    p = sub.add_parser("scree", help="spectrum fractions for PCA or the embedding")
    _add_io_flags(p)
    # eigenvalues: --in is a spectrum file such as cumbia's <out>.spectrum.txt
    p.add_argument("--mode", choices=["pca", "eigenvalues"], default="pca")

    p = sub.add_parser("shave", help="backward-elimination biclustering trace")
    _add_io_flags(p)
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
    X = load_table(args.in_path, delimiter=DELIMS[args.delim],
                   orientation=args.orient, missing_token=args.missing)
    return X, sha256_file(args.in_path)  # before any output replaces it


def _require_complete(X, remedy="run preprocess first"):
    if np.isnan(X.values).any():
        raise InputError(f"input contains missing values; {remedy}")


def _matrix_lines(X, delim):
    return table_lines(["id", *X.variable_labels], zip(X.sample_labels),
                       (X.values,), delim, missing="NA")


def _write_matrix(X, path, delim):
    atomic_write([(path, _matrix_lines(X, delim))])


def _coords_lines(obj, blocks, delim):
    """Table lines of blocks, 2-D arrays of d columns whose rows follow one
    another, beside each of obj's object labels and kinds."""
    d = blocks[0].shape[1]
    header = ["object_label", "kind"] + [f"coord_{k + 1}" for k in range(d)]
    return table_lines(header, zip(obj.object_labels, obj.object_kinds),
                       blocks, delim)


def _read_label_file(path, object_labels):
    """Label file: one 'object_label,category' row per object, header
    optional: a first record whose first cell is 'object_label'. The file
    is tab-separated if its first line holds a tab, else comma-separated;
    its records are read as load_table reads a table's (_fsio.records), so
    cells may be quoted as in the CLI's own tables."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            delimiter = "\t" if "\t" in handle.readline() else ","
            handle.seek(0)
            rows = [[cell.strip() for cell in row]
                    for row in records(handle, delimiter)]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read label file {path}: {exc}") from exc
    rows = list(filter(any, rows))
    for row in rows:
        if len(row) != 2:
            raise InputError(f"label file {path}: malformed row {row!r}")
    if rows and rows[0][0] == "object_label":
        del rows[0]
    mapping = dict(rows)
    return [mapping.get(label, "unlabeled") for label in object_labels]


def _read_spectrum(path):
    """Spectrum file: one number per line (a BOM and blank lines skipped)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return [float(line) for line in handle if line.strip()]
    except OSError as exc:
        raise InputError(f"cannot read spectrum file {path}: {exc}") from exc
    except ValueError as exc:  # a line float cannot read, or bad UTF-8
        raise InputError(f"spectrum file {path}: {exc}") from None


def _manifest(args, source, digests, report):
    """The lines of <out>.manifest.json: each parsed flag under its dest
    name (in and out for the paths), the input digest source and the
    outputs' digests, keyed by path."""
    parameters = {key.removesuffix("_path"): value
                  for key, value in vars(args).items() if key != "command"}
    payload = {
        "command": args.command,
        "parameters": parameters,
        "input_sha256": source,
        "outputs": digests,
        "version": __version__,
    }
    if report is not None:
        payload["report"] = report
    return [json.dumps(payload, indent=2, sort_keys=True) + "\n"]


def _check_components(args, dims, limit):
    """Reject a plotted component below 1 or above dims, which limit
    names in the error."""
    if args.plot and min(args.component_x, args.component_y) < 1:
        raise ParameterError("component indices are 1-based and must be >= 1")
    for flag, value in (("--component-x", args.component_x),
                        ("--component-y", args.component_y)):
        if args.plot and value > dims:
            raise ParameterError(f"{flag} {value} is above {limit}")


def _maybe_plot(args, emb_or_biplot, dims):
    """[(<out>.svg, its lines)] for an object with dims coordinate columns
    when --plot is given, else []."""
    if not args.plot:
        return []
    _check_components(args, dims, f"the {dims} available components")
    color_by = None
    if args.labels:
        color_by = _read_label_file(args.labels, emb_or_biplot.object_labels)
    return [(args.out_path + ".svg",
             svg_lines(emb_or_biplot, args.component_x - 1,
                       args.component_y - 1, color_by))]


def cmd_synth(args):
    X, groups = synth_block(seed=args.seed)
    outputs = [(args.out_path, _matrix_lines(X, DELIMS[args.delim]))]
    if args.labels:
        # variables of the planted block are known here too; tag them for plots
        tags = ["planted" if j < PLANTED_VARIABLES else "background"
                for j in range(X.n_variables)]
        outputs.append((args.labels, table_lines(
            ["object_label", "group"],
            zip(X.sample_labels + X.variable_labels, groups + tags),
            (np.empty((X.n_samples + X.n_variables, 0)),), ",")))
    return None, outputs, None


def cmd_preprocess(args):
    X, source = _load(args)
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
            _require_complete(X, "put filter-log2 before zscore in --steps")
            before = X.n_variables
            X = zscore_variables(X, zero_variance_policy=args.zero_variance)
            report["dropped_zero_variance"] += before - X.n_variables
            report["zscored"] = True
        else:
            raise InputError(
                f"unknown step {step!r}; choose from filter-log2, zscore"
            )
    lines = _matrix_lines(X, DELIMS[args.delim])
    return source, [(args.out_path, lines)], report


def cmd_cumbia(args):
    # before any work, and again against the columns the embedding has
    _check_components(args, args.dims, f"--dims {args.dims}")
    X, source = _load(args)
    _require_complete(X)
    emb = cumbia(X, _cfg_from(args), dims=args.dims)
    return source, [
        *_maybe_plot(args, emb, emb.dims_used),
        (args.out_path, _coords_lines(emb, (emb.coordinates,),
                                      DELIMS[args.delim])),
        (args.out_path + ".spectrum.txt",
         (f"{v!r}\n" for v in emb.eigenvalues.tolist()))], None


def cmd_pca(args):
    X, source = _load(args)
    _require_complete(X)
    bp = pca_biplot(X, s=_parse_s(args.s), alpha=args.alpha)
    blocks = (bp.sample_coords, bp.variable_coords)
    return source, [*_maybe_plot(args, bp, bp.s), (
        args.out_path, _coords_lines(bp, blocks, DELIMS[args.delim]))], None


def cmd_scree(args):
    if args.mode == "pca":
        X, source = _load(args)
        _require_complete(X)
        spectrum, mode = svd(X).singular_values, "singular-values"
    else:
        spectrum, mode = _read_spectrum(args.in_path), "eigenvalues"
        source = sha256_file(args.in_path)
    fractions, negatives = scree(spectrum, mode)
    first = [("positive_fraction", str(i)) for i in range(1, len(fractions) + 1)]
    first += [("negative_eigenvalue", str(i))
              for i in range(1, len(negatives) + 1)]
    return source, [(args.out_path, table_lines(
        ["kind", "index", "value"], first,
        (np.concatenate([fractions, negatives])[:, None],),
        DELIMS[args.delim]))], None


def cmd_shave(args):
    X, source = _load(args)
    _require_complete(X)
    trace = shave(X, _cfg_from(args), k0=args.k0,
                  drop_fraction=args.drop_fraction,
                  min_objects=args.min_objects)
    first, scores = [], []
    for t, step in enumerate(trace.steps):
        first += [(str(t), "sample", X.sample_labels[i])
                  for i in step.sample_indices.tolist()]
        first += [(str(t), "variable", X.variable_labels[i])
                  for i in step.variable_indices.tolist()]
        scores += [step.sample_scores[:, None], step.variable_scores[:, None]]
    return source, [(args.out_path, table_lines(
        ["step", "kind", "object_label", "score"], first, scores,
        DELIMS[args.delim]))], None


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "cumbia": cmd_cumbia,
    "pca": cmd_pca,
    "scree": cmd_scree,
    "shave": cmd_shave,
}


def run(argv):
    """Run a command and write every output it returns, and its manifest,
    all or nothing."""
    args = build_parser().parse_args(argv)
    source, outputs, report = COMMANDS[args.command](args)
    atomic_write(outputs, (args.out_path + ".manifest.json",
                           lambda digests: _manifest(args, source, digests,
                                                     report)))
    return 0


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
