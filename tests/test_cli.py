import argparse
import contextlib
import csv
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from measure import TOOLS, child_env, traced_peak

from cumbia import (CumbiaWarning, DataMatrix, cli, cumbia, load_table, scree,
                    synth_block, zscore_variables)
from cumbia._fsio import atomic_write, sha256_file, table_lines
from cumbia.cli import (_coords_lines, _read_label_file, _write_matrix,
                        build_parser, main)
from cumbia.errors import InputError
from cumbia.plot import PALETTE


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "cumbia.cli"] + args,
        cwd=cwd, capture_output=True, text=True, env=child_env(),
    )


@pytest.fixture
def small_table(tmp_path):
    path = tmp_path / "small.csv"
    rng = np.random.default_rng(100)
    A = rng.standard_normal((6, 9))
    lines = ["id," + ",".join(f"g{j + 1}" for j in range(9))]
    for i, row in enumerate(A):
        lines.append(f"s{i + 1}," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        res = run_cli(["synth", "--out", "m.csv", "--bogus"], tmp_path)
        assert res.returncode == 1
        assert "error" in res.stderr.lower()
        assert "Traceback" not in res.stderr

    def test_missing_required_flag(self, tmp_path):
        res = run_cli(["synth"], tmp_path)
        assert res.returncode == 1

    def test_unreadable_input(self, tmp_path):
        res = run_cli(["cumbia", "--in", "absent.csv", "--out", "e.csv"],
                      tmp_path)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr

    def test_unknown_command(self, tmp_path):
        res = run_cli(["explode"], tmp_path)
        assert res.returncode == 1

    @pytest.mark.parametrize("flag, error", [
        ("--in", "cannot read"), ("--labels", "cannot read label file")],
        ids=["table", "labels"])
    def test_a_file_that_is_not_utf8_exits_one(self, tmp_path, small_table,
                                               capsys, flag, error):
        # é in cp1252, a common spreadsheet export encoding, is the byte 0xe9
        bad = tmp_path / "cp1252.csv"
        bad.write_bytes(b"id,g1\ncaf\xe9,1.0\n")
        assert main(["pca", "--plot", "--in", str(small_table), "--out",
                     str(tmp_path / "o.csv"), flag, str(bad)]) == 1
        assert (f"{error} {bad}: 'utf-8' codec can't decode byte 0xe9"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, error", [
        (["synth", "--seed", "-1", "--out", "m.csv"], "seed=-1 must be >= 0"),
        (["pca", "--in", "small.csv", "--out", "missing/o.csv"],
         "cannot write missing/o.csv: "),
        (["pca", "--in", "small.csv", "--out", "folder"],
         "cannot write folder: "),
        # the folder is the last output: the ones before it are not renamed
        (["pca", "--plot", "--in", "small.csv", "--out", "folder"],
         "cannot write folder: "),
        (["synth", "--out", "o.csv", "--labels", "folder"],
         "cannot write folder: ")],
        ids=["negative-seed", "no-such-folder", "folder-at-path",
             "folder-at-path-with-plot", "folder-at-labels-path"])
    def test_bad_seed_or_unwritable_output_exits_one(
            self, tmp_path, small_table, monkeypatch, capsys, argv, error):
        # the folder is left as it was: no output, manifest or temp file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_invariant_violation_maps_to_two(self, monkeypatch, capsys):
        import cumbia.cli as cli_mod
        from cumbia.errors import InvariantViolation

        def boom(args):
            raise InvariantViolation("internal check failed")

        monkeypatch.setitem(cli_mod.COMMANDS, "synth", boom)
        code = main(["synth", "--out", "x.csv"])
        assert code == 2
        assert "internal check failed" in capsys.readouterr().err

    def test_unexpected_exception_maps_to_two(self, monkeypatch, capsys):
        import cumbia.cli as cli_mod

        def boom(args):
            raise RuntimeError("surprise")

        monkeypatch.setitem(cli_mod.COMMANDS, "synth", boom)
        code = main(["synth", "--out", "x.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "surprise" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["pca", "--plot", "--component-x", "0"],
        ["cumbia", "--plot", "--component-y", "0"],
        ["cumbia", "--plot", "--dims", "2", "--component-x", "3"],
    ])
    def test_rejected_component_writes_nothing(self, tmp_path, small_table,
                                               argv):
        out = str(tmp_path / "b.csv")
        assert main(argv + ["--in", str(small_table), "--out", out]) == 1
        assert os.listdir(tmp_path) == ["small.csv"]

    @pytest.mark.parametrize("flag", ["--component-x", "--component-y"])
    def test_component_above_dims_is_rejected_before_the_embedding(
            self, tmp_path, small_table, monkeypatch, capsys, flag):
        def fail(*args, **kwargs):
            raise AssertionError("cumbia() ran")

        monkeypatch.setattr(cli, "cumbia", fail)
        code = main(["cumbia", "--plot", "--dims", "3", flag, "5",
                     "--in", str(small_table), "--out", str(tmp_path / "e")])
        assert code == 1
        assert f"{flag} 5 is above --dims 3" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["small.csv"]

    @pytest.mark.parametrize("argv, error, shortfall", [
        (["pca", "--component-y", "99"],
         "--component-y 99 is above the 6 available components", None),
        (["cumbia", "--dims", "15", "--component-x", "14"],
         "--component-x 14 is above the 13 available components",
         "only 13 positive eigenvalues for 15"),
    ], ids=["pca-rank", "cumbia-shortfall"])
    def test_component_above_the_plotted_columns_is_named(
            self, tmp_path, small_table, capsys, argv, error, shortfall):
        # the 6 x 9 table has rank 6, and its embedding 13 positive
        # eigenvalues: a flag within --dims can still exceed the columns
        out = str(tmp_path / "e.csv")
        argv = argv + ["--plot", "--in", str(small_table), "--out", out]
        with (pytest.warns(CumbiaWarning, match=shortfall) if shortfall
              else contextlib.nullcontext()):
            assert main(argv) == 1
        assert error in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["small.csv"]


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        assert run_cli(["synth", "--seed", "7", "--out", "a.csv"],
                       tmp_path).returncode == 0
        assert run_cli(["synth", "--seed", "7", "--out", "b.csv"],
                       tmp_path).returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_labels_file(self, tmp_path):
        res = run_cli(["synth", "--seed", "1", "--out", "m.csv",
                       "--labels", "lab.csv"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "lab.csv").read_text().splitlines()
        assert lines[0] == "object_label,group"
        assert "s1,planted" in lines
        assert "v26,background" in lines

    def test_manifest_written(self, tmp_path):
        run_cli(["synth", "--seed", "3", "--out", "m.csv"], tmp_path)
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["parameters"]["seed"] == 3
        assert manifest["input_sha256"] is None
        assert str(tmp_path / "m.csv") in manifest["outputs"] or "m.csv" in manifest["outputs"]


class TestPreprocess:
    def test_zscore_roundtrip(self, tmp_path, small_table):
        res = run_cli(["preprocess", "--in", str(small_table),
                       "--out", "z.csv", "--steps", "zscore"], tmp_path)
        assert res.returncode == 0
        from cumbia import load_table

        Z = load_table(str(tmp_path / "z.csv"))
        assert np.abs(Z.values.mean(axis=0)).max() < 1e-12
        assert np.abs(Z.values.std(axis=0, ddof=1) - 1).max() < 1e-12

    def test_filter_log2_counts_in_manifest(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,a,b,c\ns1,2,NA,4\ns2,8,1,-1\n")
        res = run_cli(["preprocess", "--in", str(path), "--out", "f.csv",
                       "--steps", "filter-log2"], tmp_path)
        assert res.returncode == 0
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["report"]["dropped_missing"] == 1
        assert manifest["report"]["dropped_negative"] == 1
        out = (tmp_path / "f.csv").read_text().splitlines()
        assert out[0] == "id,a"
        assert out[1].startswith("s1,1.0")

    @pytest.mark.parametrize("steps", ["zscore", "zscore,filter-log2"])
    def test_missing_values_before_zscore_name_the_step_order(
            self, tmp_path, capsys, steps):
        path = tmp_path / "m.csv"
        path.write_text("id,a,b\ns1,1,NA\ns2,2,3\n")
        code = main(["preprocess", "--in", str(path),
                     "--out", str(tmp_path / "z.csv"), "--steps", steps])
        assert code == 1
        assert ("input contains missing values; put filter-log2 before "
                "zscore in --steps") in capsys.readouterr().err
        assert not (tmp_path / "z.csv").exists()

    def test_unknown_step_rejected(self, tmp_path, small_table):
        res = run_cli(["preprocess", "--in", str(small_table),
                       "--out", "z.csv", "--steps", "fourier"], tmp_path)
        assert res.returncode == 1

    def test_in_place_manifest_records_the_bytes_read(self, tmp_path,
                                                      small_table):
        # the output replaces the input; the manifest keeps both digests
        read, path = sha256_file(small_table), str(small_table)
        assert main(["preprocess", "--in", path, "--out", path,
                     "--steps", "zscore"]) == 0
        manifest = json.loads((tmp_path / "small.csv.manifest.json").read_text())
        written = sha256_file(path)
        assert manifest["input_sha256"] == read != written
        assert manifest["outputs"] == {path: written}

    def test_input_never_mutated(self, tmp_path, small_table):
        before = small_table.read_bytes()
        run_cli(["preprocess", "--in", str(small_table), "--out", "z.csv"],
                tmp_path)
        assert small_table.read_bytes() == before


class TestCumbiaCommand:
    def test_output_shape_and_spectrum(self, tmp_path, small_table):
        res = run_cli(["cumbia", "--in", str(small_table), "--out", "emb.csv",
                       "--k", "3", "--dims", "3"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "emb.csv").read_text().splitlines()
        assert lines[0] == "object_label,kind,coord_1,coord_2,coord_3"
        assert len(lines) == 1 + 6 + 9
        spectrum = (tmp_path / "emb.csv.spectrum.txt").read_text().splitlines()
        assert len(spectrum) == 15
        values = [float(v) for v in spectrum]
        assert values == sorted(values, reverse=True)

    def test_deterministic_across_runs(self, tmp_path, small_table):
        run_cli(["cumbia", "--in", str(small_table), "--out", "e1.csv"], tmp_path)
        run_cli(["cumbia", "--in", str(small_table), "--out", "e2.csv"], tmp_path)
        assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()

    def test_plot_marker_count(self, tmp_path, small_table):
        res = run_cli(["cumbia", "--in", str(small_table), "--out", "e.csv",
                       "--dims", "2", "--plot"], tmp_path)
        assert res.returncode == 0
        svg = (tmp_path / "e.csv.svg").read_text()
        assert svg.count('class="marker"') == 15

    def test_missing_values_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,a,b\ns1,1,NA\ns2,2,3\n")
        res = run_cli(["cumbia", "--in", str(path), "--out", "e.csv"], tmp_path)
        assert res.returncode == 1
        assert "preprocess" in res.stderr


class TestPcaCommand:
    def test_reconstruction_from_coordinates(self, tmp_path, small_table):
        res = run_cli(["pca", "--in", str(small_table), "--alpha", "1",
                       "--s", "full", "--out", "bp.csv"], tmp_path)
        assert res.returncode == 0
        rows = (tmp_path / "bp.csv").read_text().splitlines()[1:]
        samples, variables = [], []
        for row in rows:
            parts = row.split(",")
            coords = [float(v) for v in parts[2:]]
            (samples if parts[1] == "sample" else variables).append(coords)
        S = np.array(samples)
        V = np.array(variables)
        from cumbia import load_table

        X = load_table(str(small_table))
        assert np.abs(S @ V.T - X.values).max() < 1e-6

    def test_plot_titles_are_the_table_labels(self, tmp_path, small_table):
        out = tmp_path / "bp.csv"
        assert main(["pca", "--in", str(small_table), "--out", str(out),
                     "--plot"]) == 0
        svg = (tmp_path / "bp.csv.svg").read_text()
        titles = [part.split("</title>")[0] for part in svg.split("<title>")[1:]]
        X = load_table(str(small_table))
        assert titles == X.sample_labels + X.variable_labels
        assert titles[0] == "s1" and titles[6] == "g1"

    @pytest.mark.parametrize("sep,label", [(",", "g,2"), ("\t", "g,2"),
                                           (",", "g\t2")])
    def test_label_file_cells_may_be_quoted(self, tmp_path, sep, label):
        # one delimiter for the whole file, so a quoted cell may hold the other
        path = tmp_path / "labels.txt"
        path.write_text(f'object_label{sep}group\n"{label}"{sep}x\n\n'
                        f's1{sep}"y"\n')
        assert _read_label_file(str(path), ["s1", label, "g3"]) == [
            "y", "x", "unlabeled"]

    @pytest.mark.parametrize("header", ["", "object_label,group\n"],
                             ids=["no-header", "header"])
    def test_an_object_named_object_label_keeps_its_category(self, tmp_path,
                                                             header):
        # only a first record whose first cell is object_label is a header
        path = tmp_path / "labels.csv"
        path.write_text(f"{header}a,red\nobject_label,blue\n")
        assert _read_label_file(str(path), ["a", "object_label", "b"]) == [
            "red", "blue", "unlabeled"]


class TestScreeCommand:
    def test_pca_mode_fractions(self, tmp_path, small_table):
        res = run_cli(["scree", "--in", str(small_table), "--out", "sc.csv"],
                      tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "sc.csv").read_text().splitlines()
        assert lines[0] == "kind,index,value"
        fracs = [float(l.split(",")[2]) for l in lines[1:]
                 if l.startswith("positive_fraction")]
        assert abs(sum(fracs) - 1.0) < 1e-12
        assert len(fracs) == 6

    def test_eigenvalues_mode_reports_negatives(self, tmp_path, small_table):
        # the spectrum file cumbia cumbia writes beside its coordinates
        assert main(["cumbia", "--in", str(small_table),
                     "--out", str(tmp_path / "emb.csv")]) == 0
        res = run_cli(["scree", "--in", "emb.csv.spectrum.txt",
                       "--out", "sc.csv", "--mode", "eigenvalues"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "sc.csv").read_text().splitlines()[1:]
        kinds = {l.split(",")[0] for l in lines}
        assert "positive_fraction" in kinds
        assert "negative_eigenvalue" in kinds

    @pytest.mark.parametrize("delim", ["comma", "tab"])
    def test_eigenvalues_mode_writes_the_embeddings_scree(
            self, tmp_path, small_table, delim):
        # the bytes scree wrote when it ran cumbia() itself on the table
        X = load_table(str(small_table))
        fractions, negatives = scree(cumbia(X).eigenvalues, "eigenvalues")
        first = [("positive_fraction", str(i))
                 for i in range(1, len(fractions) + 1)]
        first += [("negative_eigenvalue", str(i))
                  for i in range(1, len(negatives) + 1)]
        reference = str(tmp_path / "reference.txt")
        atomic_write([(reference, table_lines(
            ["kind", "index", "value"], first,
            (np.concatenate([fractions, negatives])[:, None],),
            cli.DELIMS[delim]))])
        emb = str(tmp_path / "emb.csv")
        assert main(["cumbia", "--in", str(small_table), "--out", emb]) == 0
        # a BOM and a trailing blank line are read past, as in tables
        variant = tmp_path / "bom.txt"
        variant.write_bytes(b"\xef\xbb\xbf"
                            + (tmp_path / "emb.csv.spectrum.txt").read_bytes()
                            + b"\n")
        for spectrum in (emb + ".spectrum.txt", str(variant)):
            out = str(tmp_path / "sc.txt")
            assert main(["scree", "--in", spectrum, "--out", out,
                         "--mode", "eigenvalues", "--delim", delim]) == 0
            with open(out, "rb") as got, open(reference, "rb") as want:
                assert got.read() == want.read()

    @pytest.mark.parametrize("text,message", [
        ("1.5\nabc\n-0.25\n", "could not convert string to float: 'abc"),
        (None, "cannot read spectrum file"),
        ("", "spectrum is empty"),
        ("1.5\nnan\n", "spectrum has a non-finite entry at row 0, column 1"),
    ], ids=["non-numeric", "missing", "empty", "nan"])
    def test_eigenvalues_mode_rejects_a_bad_spectrum(self, tmp_path, capsys,
                                                     text, message):
        path = tmp_path / "spectrum.txt"
        if text is not None:
            path.write_text(text)
        code = main(["scree", "--in", str(path), "--out",
                     str(tmp_path / "sc.txt"), "--mode", "eigenvalues"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sc.txt").exists()


class TestShaveCommand:
    def test_trace_file_shape(self, tmp_path, small_table):
        res = run_cli(["shave", "--in", str(small_table), "--out", "tr.csv",
                       "--k0", "2", "--drop-fraction", "0.25",
                       "--min-objects", "2"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "tr.csv").read_text().splitlines()
        assert lines[0] == "step,kind,object_label,score"
        steps = {int(l.split(",")[0]) for l in lines[1:]}
        assert steps == set(range(len(steps)))
        first = [l for l in lines[1:] if l.startswith("0,")]
        assert len(first) == 6 + 9

    @pytest.mark.parametrize("shape", [(1, 10), (10, 1)])
    def test_too_few_samples_or_variables_rejected(self, tmp_path, capsys,
                                                   shape):
        path = tmp_path / "thin.csv"
        _write_matrix(DataMatrix(np.arange(1.0, 11.0).reshape(shape)),
                      str(path), ",")
        code = main(["shave", "--in", str(path), "--out",
                     str(tmp_path / "tr.csv")])
        assert code == 1
        assert (f"shave needs at least 2 samples and 2 variables, "
                f"got {shape[0]} x {shape[1]}") in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["thin.csv"]


def flag_names(command):
    """The --flags the parser declares for one subcommand, --help aside."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {flag for action in sub.choices[command]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


class TestManifestReproducibility:
    def rebuild_argv(self, manifest):
        args = [manifest["command"]]
        for key, value in manifest["parameters"].items():
            if value is None or value is False:
                continue
            flag = "--" + key.replace("_", "-")
            if value is True:
                args.append(flag)
            else:
                args.extend([flag, str(value)])
        return args

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "m.csv", "--seed", "5", "--labels", "g.csv"],
        ["preprocess", "--in", "const.csv", "--out", "z.csv",
         "--steps", "zscore", "--zero-variance", "drop"],
        ["cumbia", "--in", "small.csv", "--out", "e.csv", "--s", "3",
         "--k-vars", "2", "--dims", "2", "--plot"],
        ["pca", "--in", "small.csv", "--out", "b.csv", "--alpha", "0.5",
         "--plot", "--component-x", "2"],
        ["scree", "--in", "small.csv", "--out", "sc.txt", "--mode", "pca"],
        ["scree", "--in", "emb.csv.spectrum.txt", "--out", "sc.txt",
         "--mode", "eigenvalues"],
        ["shave", "--in", "small.csv", "--out", "tr.csv",
         "--min-objects", "3"],
    ], ids=["synth", "preprocess", "cumbia", "pca", "scree-pca",
            "scree-eigenvalues", "shave"])
    def test_rerun_from_manifest_is_identical(self, tmp_path, small_table,
                                              argv):
        # small.csv with a constant last column, which --zero-variance drops
        lines = small_table.read_text().splitlines()
        (tmp_path / "const.csv").write_text("\n".join(
            [lines[0] + ",c"] + [line + ",1.5" for line in lines[1:]]) + "\n")
        # and the spectrum cumbia cumbia writes for it
        assert main(["cumbia", "--in", str(small_table),
                     "--out", str(tmp_path / "emb.csv")]) == 0
        out = argv[argv.index("--out") + 1]
        assert run_cli(argv, tmp_path).returncode == 0
        manifest_path = tmp_path / (out + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        assert {"--" + key.replace("_", "-") for key in manifest["parameters"]} \
            == flag_names(argv[0])
        written = [tmp_path / path for path in manifest["outputs"]]
        written.append(manifest_path)
        before = [path.read_bytes() for path in written]
        for path in written:
            path.unlink()
        assert run_cli(self.rebuild_argv(manifest), tmp_path).returncode == 0
        assert [path.read_bytes() for path in written] == before


# values whose shortest round-trip text is easy to get wrong
SPECIAL = [-0.0, 5e-324, 1e-300, 1e16, 123456789.123, np.inf, -np.inf, np.nan]


def reference_table(header, first_cells, values, delim, missing):
    """The writers' format, one float() and one isnan per cell."""
    lines = [delim.join(header)]
    for first, row in zip(first_cells, values):
        cells = [missing if np.isnan(v) else repr(float(v)) for v in row]
        lines.append(delim.join([first] + cells))
    return "\n".join(lines) + "\n"


class TestWritersByteIdentity:
    @pytest.fixture
    def values(self):
        A = np.random.default_rng(5).standard_normal((5, len(SPECIAL)))
        A[1] = SPECIAL
        A[2] = SPECIAL[:-1] + [1.0]  # every special value but NaN
        A[3] = np.roll(SPECIAL, 3)
        return A

    @pytest.mark.parametrize("delim", [",", "\t"])
    def test_write_matrix(self, tmp_path, values, delim):
        X = DataMatrix(values)
        _write_matrix(X, str(tmp_path / "m"), delim)
        expected = reference_table(["id"] + X.variable_labels, X.sample_labels,
                                   values, delim, "NA")
        assert (tmp_path / "m").read_text() == expected

    @pytest.mark.parametrize("delim", [",", "\t"])
    def test_write_matrix_loads_back_bit_for_bit(self, tmp_path, values, delim):
        X = DataMatrix(values)
        _write_matrix(X, str(tmp_path / "m"), delim)
        Y = load_table(str(tmp_path / "m"), delimiter=delim)
        assert Y.values.tobytes() == X.values.tobytes()
        assert (Y.sample_labels, Y.variable_labels) == (
            X.sample_labels, X.variable_labels)

    @pytest.mark.parametrize("delim", [",", "\t"])
    def test_labels_holding_delimiters_and_quotes_load_back(self, tmp_path,
                                                            values, delim):
        # the input is quoted by the standard library's csv writer
        samples = ["a,b", "tab\there", 'say "hi"', '"x"', "plain"]
        variables = ["g,1", "g\t2", 'g"3', "g4", "", "g 6", "g7"][
            :values.shape[1] - 1] + ['end"']
        source = tmp_path / "in"
        with open(source, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, delimiter=delim, lineterminator="\n")
            writer.writerow(["id", *variables])
            for label, row in zip(samples, values.tolist()):
                writer.writerow([label, *map(repr, row)])
        X = load_table(str(source), delimiter=delim)
        assert (X.sample_labels, X.variable_labels) == (samples, variables)
        _write_matrix(X, str(tmp_path / "m"), delim)
        Y = load_table(str(tmp_path / "m"), delimiter=delim)
        assert (Y.sample_labels, Y.variable_labels) == (samples, variables)
        assert Y.values.tobytes() == X.values.tobytes()

    def test_quoted_labels_through_the_commands(self, tmp_path, small_table):
        text = small_table.read_text().replace("g2,", '"gene,A",', 1)
        text = text.replace("s3,", '"s ""3""",', 1)
        source = tmp_path / "quoted.csv"
        source.write_text(text)
        z, bp = str(tmp_path / "z.csv"), str(tmp_path / "bp.csv")
        assert main(["preprocess", "--in", str(source), "--out", z,
                     "--steps", "zscore"]) == 0
        assert main(["pca", "--in", z, "--out", bp]) == 0
        assert main(["shave", "--in", z, "--out", str(tmp_path / "tr.csv"),
                     "--min-objects", "4"]) == 0
        labels = load_table(str(source)).sample_labels
        assert labels[2] == 's "3"'
        assert load_table(z).variable_labels[1] == "gene,A"
        with open(bp, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows[1:7]] == labels
        assert rows[8][:2] == ["gene,A", "variable"]
        with open(tmp_path / "tr.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[3][:3] == ["0", "sample", 's "3"']
        assert rows[8][:3] == ["0", "variable", "gene,A"]

    @pytest.mark.parametrize("delim", [",", "\t"])
    def test_write_coords(self, tmp_path, values, delim):
        labels = [f"o{i}" for i in range(len(values))]
        kinds = ["sample", "sample", "variable", "variable", "variable"]
        obj = argparse.Namespace(object_labels=labels, object_kinds=kinds)
        atomic_write([(str(tmp_path / "c"),
                       _coords_lines(obj, (values,), delim))])
        header = ["object_label", "kind"] + [
            f"coord_{k + 1}" for k in range(values.shape[1])]
        first = [delim.join(pair) for pair in zip(labels, kinds)]
        expected = reference_table(header, first, values, delim, "nan")
        assert (tmp_path / "c").read_text() == expected

    def test_failed_write_keeps_target_and_leaves_no_temp(self, tmp_path,
                                                          values):
        # all or nothing: when the second of two outputs fails, neither
        # target is replaced and no temp file is left
        table, second, folder = (tmp_path / name for name in "mfd")
        _write_matrix(DataMatrix(values), str(table), ",")
        second.write_text("old\n")
        folder.mkdir()
        (folder / "kept").write_text("kept\n")

        def files():
            return {path.name: path.read_bytes()
                    for path in tmp_path.rglob("*") if path.is_file()}

        before = files()
        temps = []

        def first_cells():
            yield ("r1",)
            temps.extend(tmp_path.glob(".tmp-cumbia-*"))
            raise RuntimeError("row 2")

        # (a) the second output's lines raise after one row
        lines = table_lines(["id"] + ["c"] * values.shape[1], first_cells(),
                            (values,), ",")
        with pytest.raises(RuntimeError, match="row 2"):
            atomic_write([(str(table), ["new\n"]), (str(second), lines)])
        assert len(temps) == 2  # both were being written, row by row
        # (b) the second path is a folder
        with pytest.raises(InputError,
                           match=f"cannot write {folder}: Is a directory"):
            atomic_write([(str(table), ["new\n"]), (str(folder), ["new\n"])])
        assert files() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "d", "f", "m"]


def test_write_matrix_peak_memory_below_the_matrix(tmp_path):
    X = zscore_variables(synth_block(40, 2000, seed=3)[0])
    out = str(tmp_path / "m.csv")
    _, peak = traced_peak(lambda: _write_matrix(X, out, ","))
    assert peak <= X.values.nbytes, peak / X.values.nbytes


@pytest.fixture(scope="module")
def wide_tables(tmp_path_factory):
    """A positive 100 x 3000 table and its z-scores, written by the CLI's
    writer, and the bytes of one such matrix."""
    directory = tmp_path_factory.mktemp("wide")
    X = synth_block(100, 3000, seed=7)[0]
    raw = DataMatrix(np.exp2(X.values), X.sample_labels, X.variable_labels)
    _write_matrix(raw, str(directory / "raw.csv"), ",")
    _write_matrix(zscore_variables(X), str(directory / "z.csv"), ",")
    return directory, X.values.nbytes


@pytest.mark.parametrize("command,source,extra", [
    ("preprocess", "raw.csv", []),
    ("pca", "z.csv", ["--plot"]),
    ("scree", "z.csv", ["--mode", "pca"]),
], ids=["preprocess", "pca-plot", "scree-pca"])
def test_a_table_command_holds_its_input_and_one_matrix(
        wide_tables, tmp_path, command, source, extra):
    # a wide table, so the matrix and not its labels sets the peak (at
    # 40 x 2000 the labels do): the loader's buffer and its copy, then the
    # input beside one copy of it (the log2 of the kept columns, the
    # z-scores or the SVD's V^T). Measured: 2.17-2.20 (2.26-2.28 with a set
    # of each matrix's labels and the loader's last row held; 3.15-3.20,
    # and 4.29 for the default steps, when each step held two or three
    # matrices)
    directory, nbytes = wide_tables
    code, peak = traced_peak(lambda: main([
        command, "--in", str(directory / source),
        "--out", str(tmp_path / "out"), *extra]))
    assert code == 0
    assert peak <= 2.25 * nbytes, peak / nbytes


def test_scree_holds_only_the_spectrum_while_it_writes(wide_tables, tmp_path,
                                                       monkeypatch):
    directory, nbytes = wide_tables
    held = []

    def spy(name):
        write = getattr(cli, name)

        def call(*args, **kwargs):
            held.append((name, tracemalloc.get_traced_memory()[0]))
            return write(*args, **kwargs)
        return call

    for name in ("atomic_write", "_manifest"):
        monkeypatch.setattr(cli, name, spy(name))
    code, _ = traced_peak(lambda: main([
        "scree", "--in", str(directory / "z.csv"),
        "--out", str(tmp_path / "sc.txt"), "--mode", "pca"]))
    assert code == 0
    assert [name for name, _ in held] == ["atomic_write", "_manifest"]
    # the matrix and the SVD factors are gone: 0.0 measured (2.0 when the
    # input and the whole SVD lived until the command returned)
    for name, size in held:
        assert size <= 0.1 * nbytes, (name, size / nbytes)


# label text every command must carry through unchanged: both delimiters,
# quote marks, markup characters and non-ASCII
LABEL_CHARS = [",", "\t", '"', "&", "<", ">", "'", "é", "µ", "中", "a", "7"]


def random_labels(rng, prefix, count):
    """count distinct labels: prefix, up to 5 random LABEL_CHARS, then '#'
    and the index, so strip() finds nothing to remove."""
    return [prefix + "".join(rng.choice(LABEL_CHARS, rng.integers(0, 6)))
            + f"#{i}" for i in range(count)]


class TestLabelsSurviveEveryPath:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("delim", [",", "\t"], ids=["comma", "tab"])
    def test_preprocess_cumbia_pca_and_shave(self, tmp_path, seed, delim):
        rng = np.random.default_rng(seed)
        samples = random_labels(rng, "s", 10)
        variables = random_labels(rng, "v", 30)
        labels = samples + variables
        categories = random_labels(rng, "c", 4)
        category_of = [categories[i % 4]
                       for i in rng.permutation(len(labels))]
        # the input is quoted by the standard library's csv writer
        source = tmp_path / "raw"
        with open(source, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, delimiter=delim, lineterminator="\n")
            writer.writerow(["id", *variables])
            for label, row in zip(samples, np.exp2(
                    rng.standard_normal((10, 30))).tolist()):
                writer.writerow([label, *map(repr, row)])
        # comma-separated: its header line holds no tab
        label_file = str(tmp_path / "labels")
        atomic_write([(label_file, table_lines(
            ["object_label", "category"], zip(labels, category_of),
            (np.empty((len(labels), 0)),), ","))])
        out = {name: str(tmp_path / name) for name in ("z", "emb", "bp", "tr")}
        flag = ["--delim", "comma" if delim == "," else "tab"]
        plot = ["--plot", "--labels", label_file]
        for argv in (["preprocess", "--in", str(source), "--out", out["z"]],
                     ["cumbia", "--in", out["z"], "--out", out["emb"], *plot],
                     ["pca", "--in", out["z"], "--out", out["bp"], *plot],
                     ["shave", "--in", out["z"], "--out", out["tr"],
                      "--min-objects", "4"]):
            assert main(argv + flag) == 0, argv

        Z = load_table(out["z"], delimiter=delim)
        assert (Z.sample_labels, Z.variable_labels) == (samples, variables)
        colour = {c: PALETTE[i] for i, c in enumerate(sorted(categories))}
        for name in ("emb", "bp"):
            with open(out[name], newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle, delimiter=delim))[1:]
            assert [row[0] for row in rows] == labels
            assert [row[1] for row in rows] == ["sample"] * 10 + ["variable"] * 30
            svg = ET.parse(out[name] + ".svg").getroot()
            markers = [el for el in svg.iter() if el.get("class") == "marker"]
            titles = [el.find("{http://www.w3.org/2000/svg}title").text
                      for el in markers]
            assert titles == labels
            applied = [el.get("fill") if el.tag.endswith("circle")
                       else el.get("stroke") for el in markers]
            assert applied == [colour[c] for c in category_of]
            assert set(applied) == set(colour.values())
        with open(out["tr"], newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle, delimiter=delim))[1:]
        steps = {}
        for step, kind, label, _ in rows:
            steps.setdefault(step, {"sample": [], "variable": []})[kind].append(
                label)
        assert steps["0"] == {"sample": samples, "variable": variables}
        for kept in steps.values():
            for kind, given in (("sample", samples), ("variable", variables)):
                # each step keeps a subset, in the given order
                assert kept[kind] == [l for l in given if l in kept[kind]]


def test_cli_digests_tool_runs_the_whole_chain(tmp_path):
    # tools/cli_digests.py is how CLI byte identity is checked between two
    # checkouts; it must keep running and naming every output it makes
    res = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "cli_digests.py"),
         "--dir", str(tmp_path)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    names = {line.split(" ")[0] for line in lines}
    assert len(lines) == len(names) == 55
    assert all(len(line.split(" ")[1]) == 64 for line in lines)
