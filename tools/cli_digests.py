"""Run the whole CLI chain at small seeded sizes and print file digests.

    python3 tools/cli_digests.py --dir D

Runs synth, preprocess (filter-log2, zscore and both), pca --plot, scree
on a table and on the spectrum file cumbia writes, cumbia --plot and shave
through cumbia.cli.main, in comma and tab form, with one input in
variables-rows orientation, one with empty, missing and whitespace-padded
cells, one with a numeric missing token, one with a constant column, one
with quoted labels and CRLF line endings and one with repeated rows and
columns, whose duplicates cumbia --plot and shave place at distance 0.
Every flag a manifest records is given a non-default value at least once.
Prints one "name sha256" line per output and manifest, sorted by name.
Manifests record absolute paths, so to compare two checkouts run this
script from each of them on the same D and compare the printed lines.
"""

import argparse
import json
import os
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import cumbia.cli  # noqa: E402
from cumbia._fsio import _quote, sha256_file  # noqa: E402


def raw_table(seed, N=12, p=40, missing="NA", delim=",", transpose=False,
              constant=False):
    """Positive values with a missing, an empty, a padded and a negative cell,
    and with constant, a first column that is 4.0 throughout."""
    values = np.exp2(np.random.default_rng(seed).normal(3, 1, (N, p)))
    if constant:
        values[:, 0] = 4.0
    cells = [list(map(repr, row)) for row in values.tolist()]
    cells[1][2], cells[4][5], cells[6][7] = missing, "", f" {cells[6][7]} "
    cells[3][9] = "-1.5"
    header = ["id"] + [f"g{j + 1}" for j in range(p)]
    rows = [header] + [[f"s{i + 1}"] + row for i, row in enumerate(cells)]
    if transpose:
        rows = list(zip(*rows))
    return "\n".join(delim.join(row) for row in rows) + "\n"


# labels a reader must take from quotes: a comma, a doubled quote, a line
# break and non-ASCII text
QUOTED_LABELS = ["a,b", 'say "hi"', "two\nlines", "µ-gène"]


def quoted_table(seed, N=12, p=40):
    """Positive values under sample and variable labels that need quotes,
    one line per row, every line ending in CRLF."""
    values = np.exp2(np.random.default_rng(seed).normal(3, 1, (N, p)))
    samples = QUOTED_LABELS + [f"s{i + 1}" for i in range(4, N)]
    variables = [f"g{j + 1} {label}" for j, label in enumerate(QUOTED_LABELS)]
    variables += [f"g{j + 1}" for j in range(4, p)]
    rows = [["id"] + variables]
    rows += [[label] + list(map(repr, row))
             for label, row in zip(samples, values.tolist())]
    return "".join(",".join(_quote(cell, ",") for cell in row) + "\r\n"
                   for row in rows)


def duplicate_table(seed, N=12, p=40):
    """Positive values, complete, where samples 4 and 9 repeat sample 1 and
    variables 6, 17 and 33 repeat variable 2."""
    values = np.exp2(np.random.default_rng(seed).normal(3, 1, (N, p)))
    values[[3, 8]] = values[0]
    values[:, [5, 16, 32]] = values[:, [1]]
    rows = [["id"] + [f"g{j + 1}" for j in range(p)]]
    rows += [[f"s{i + 1}"] + list(map(repr, row))
             for i, row in enumerate(values.tolist())]
    return "".join(",".join(row) + "\n" for row in rows)


def chain(d):
    """The CLI invocations, in order; each reads only files made before it."""
    def io(src, out, *extra):
        return ["--in", os.path.join(d, src), "--out", os.path.join(d, out), *extra]

    tab = ("--delim", "tab")
    return [
        ["synth", "--seed", "3", "--out", os.path.join(d, "synth.csv"),
         "--labels", os.path.join(d, "groups.csv")],
        ["preprocess", *io("synth.csv", "synth_z.csv", "--steps", "zscore")],
        ["pca", *io("synth_z.csv", "synth_pca.csv", "--plot", "--labels",
                    os.path.join(d, "groups.csv"))],
        ["scree", *io("synth_z.csv", "synth_scree.txt", "--mode", "pca")],
        ["preprocess", *io("raw.csv", "log.csv", "--steps", "filter-log2")],
        ["preprocess", *io("log.csv", "z.csv", "--steps", "zscore")],
        ["preprocess", *io("raw999.csv", "z999.csv", "--missing", "-999")],
        ["preprocess", *io("raw_c.csv", "zc.csv", "--zero-variance", "drop")],
        ["preprocess", *io("raw_t.tsv", "zt.tsv", "--orient", "variables-rows",
                           *tab)],
        ["pca", *io("z.csv", "pca.csv", "--plot", "--alpha", "0.5")],
        ["scree", *io("z.csv", "scree_pca.txt", "--mode", "pca")],
        ["cumbia", *io("z.csv", "emb.csv", "--plot", "--dims", "3")],
        ["scree", *io("emb.csv.spectrum.txt", "scree_cumbia.txt", "--mode",
                      "eigenvalues")],
        ["cumbia", *io("zt.tsv", "emb_t.tsv", "--k", "2", "--dims", "2", *tab)],
        ["cumbia", *io("synth_z.csv", "synth_emb.csv", "--plot", "--labels",
                       os.path.join(d, "groups.csv"), "--component-x", "2",
                       "--component-y", "3", "--s", "3", "--k-vars", "2")],
        ["shave", *io("z.csv", "shave.csv")],
        ["shave", *io("z.csv", "shave_s3.csv", "--s", "3", "--k-vars", "2",
                      "--drop-fraction", "0.25", "--min-objects", "3")],
        ["shave", *io("zt.tsv", "shave_t.tsv", "--k0", "2", *tab)],
        ["preprocess", *io("raw_q.csv", "zq.csv")],
        ["pca", *io("zq.csv", "pca_q.csv", "--plot")],
        ["cumbia", *io("raw_d.csv", "emb_d.csv", "--plot")],
        ["shave", *io("raw_d.csv", "shave_d.csv")],
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", required=True, metavar="D")
    d = os.path.abspath(parser.parse_args().dir)
    # shave's last steps clamp K; the warnings would only clutter the output
    warnings.simplefilter("ignore", cumbia.CumbiaWarning)
    os.makedirs(d, exist_ok=True)
    inputs = {
        "raw.csv": raw_table(1),
        "raw999.csv": raw_table(2, missing="-999"),
        "raw_t.tsv": raw_table(3, delim="\t", transpose=True),
        "raw_c.csv": raw_table(4, constant=True),
        "raw_q.csv": quoted_table(5),
        "raw_d.csv": duplicate_table(6),
    }
    for name, text in inputs.items():
        with open(os.path.join(d, name), "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(text)
    files = set()
    for argv in chain(d):
        code = cumbia.cli.main(argv)
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited {code}")
        manifest = argv[argv.index("--out") + 1] + ".manifest.json"
        with open(manifest, encoding="utf-8") as handle:
            files.update(json.load(handle)["outputs"])
        files.add(manifest)
    for path in sorted(files):
        print(os.path.relpath(path, d), sha256_file(path))


if __name__ == "__main__":
    main()
