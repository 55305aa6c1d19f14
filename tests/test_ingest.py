import tracemalloc
import warnings

import numpy as np
import pytest
from oracle import csv_load_table

from cumbia import (
    CumbiaWarning,
    DataMatrix,
    InputError,
    ParameterError,
    filter_and_log2,
    load_table,
    pca_biplot,
    svd,
    synth_block,
    zscore_variables,
)
from cumbia._fsio import _quote, write_table


def traced_peak(call):
    """Bytes traced by tracemalloc during call() above those held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# label text every reader must carry through: both delimiters, quote
# marks, markup characters, line breaks and non-ASCII
LABEL_ALPHABET = [",", "\t", '"', "&", "<", ">", "'", "\n", "\r\n", "\r",
                  "é", "µ", "中", "a", "7", " "]
# cells whole-row float() and the per-cell loop must both read as csv does
SPECIAL_CELLS = ["inf", "-inf", "nan", "1_0", " 2.5 ", "-0.0", "5e-324",
                 '1e3\n']
ENDINGS = ["\n", "\r\n", "\r"]


def random_label(rng, suffix):
    # the suffix keeps labels distinct once they are stripped
    text = "".join(rng.choice(LABEL_ALPHABET, size=rng.integers(0, 5)))
    return f"{text}#{suffix}"


def parity_by_hand(rng, path, delim, token):
    """A random table typed cell by cell: numbers plain, padded or special,
    the missing token padded or not, empty cells, now and then a bad cell
    or a short row; cells quoted where needed and now and then where not,
    lines ending in LF, CRLF or CR, blank lines between them and maybe a
    byte-order mark."""
    n, p = rng.integers(1, 6, size=2)
    rows = [[random_label(rng, "id")] + [random_label(rng, j) for j in range(p)]]
    for i in range(n):
        row = [random_label(rng, i)]
        for _ in range(p):
            u = rng.random()
            if u < 0.6:
                row.append(repr(float(rng.normal() * 10.0 ** rng.integers(-3, 4))))
            elif u < 0.75:
                row.append(str(rng.choice([token, f" {token}", f"{token} "])))
            elif u < 0.83:
                row.append("")
            elif u < 0.995:
                row.append(str(rng.choice(SPECIAL_CELLS)))
            else:
                row.append("x9")
        rows.append(row[:-1] if rng.random() < 0.02 else row)
    text = "\ufeff" if rng.random() < 0.3 else ""
    for row in rows:
        text += delim.join(
            '"' + cell.replace('"', '""') + '"' if rng.random() < 0.1
            else _quote(cell, delim) for cell in row)
        text += str(rng.choice(ENDINGS))
        if rng.random() < 0.2:
            text += str(rng.choice(ENDINGS))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def parity_by_writer(rng, path, delim, token):
    """A random table written by write_table: the labels of parity_by_hand,
    normal values with missing, infinite, negative-zero and subnormal ones
    among them; NaN is written as the missing token."""
    n, p = rng.integers(1, 6, size=2)
    values = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=(n, p))
    specials = [np.nan, np.nan, np.inf, -np.inf, -0.0, 5e-324]
    mask = rng.random((n, p)) < 0.2
    values[mask] = rng.choice(specials, size=mask.sum())
    header = [random_label(rng, "id")] + [random_label(rng, j) for j in range(p)]
    write_table(path, header, ((random_label(rng, i),) for i in range(n)),
                (values,), delim, missing=token)


def outcome(reader, path, delim, orientation, token):
    try:
        X = reader(path, delimiter=delim, orientation=orientation,
                   missing_token=token)
    except InputError as exc:
        return ("error", str(exc))
    return ("read", X.values.tobytes(), X.sample_labels, X.variable_labels)


class TestLoadTable:
    def test_basic_comma(self, tmp_path):
        X = load_table(write(tmp_path, "id,g1,g2\ns1,1,2\ns2,3,4\n"))
        assert X.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert X.sample_labels == ["s1", "s2"]
        assert X.variable_labels == ["g1", "g2"]

    def test_tab_delimiter_equivalent(self, tmp_path):
        a = load_table(write(tmp_path, "id,g1,g2\ns1,1,2\ns2,3,4\n", "a.csv"))
        b = load_table(write(tmp_path, "id\tg1\tg2\ns1\t1\t2\ns2\t3\t4\n", "b.tsv"),
                       delimiter="\t")
        assert a.values.tolist() == b.values.tolist()
        assert a.variable_labels == b.variable_labels

    def test_missing_token_becomes_nan(self, tmp_path):
        X = load_table(write(tmp_path, "id,g1,g2\ns1,1,NA\ns2,3,4\n"))
        assert np.isnan(X.values[0, 1])
        assert not np.isnan(X.values).any(axis=0)[0]

    def test_empty_cell_is_missing(self, tmp_path):
        X = load_table(write(tmp_path, "id,g1,g2\ns1,1,\ns2,3,4\n"))
        assert np.isnan(X.values[0, 1])

    @pytest.mark.parametrize("token", ["-999", "0"])
    def test_numeric_missing_token_becomes_nan(self, tmp_path, token):
        # float() reads these tokens, padded or not, as numbers
        text = f"id,g1,g2\ns1,1, {token} \ns2,{token},4\n"
        X = load_table(write(tmp_path, text), missing_token=token)
        np.testing.assert_array_equal(X.values, [[1.0, np.nan], [np.nan, 4.0]])

    def test_padded_numbers_and_empty_cells(self, tmp_path):
        text = "id,g1,g2,g3\ns1, 1.5 ,\t-2e3 ,7\ns2,,3, \n"
        X = load_table(write(tmp_path, text))
        np.testing.assert_array_equal(
            X.values, [[1.5, -2000.0, 7.0], [np.nan, 3.0, np.nan]])

    def test_row_mixing_missing_and_numbers(self, tmp_path):
        text = "id,g1,g2,g3,g4\ns1,1,2,3,4\ns2,NA,0.5, NA ,-1\ns3,5,6,7,8\n"
        X = load_table(write(tmp_path, text))
        np.testing.assert_array_equal(
            X.values,
            [[1, 2, 3, 4], [np.nan, 0.5, np.nan, -1], [5, 6, 7, 8]])

    def test_bad_cell_after_clean_rows_names_line_and_column(self, tmp_path):
        text = "id,g1,g2,g3\ns1,1,2,3\ns2,4,5,6\ns3,7,NA,x9\ns4,1,1,1\n"
        with pytest.raises(InputError, match=r"line 4, column 'g3': cell 'x9'"):
            load_table(write(tmp_path, text))

    def test_ragged_row_names_line(self, tmp_path):
        with pytest.raises(InputError, match="line 3"):
            load_table(write(tmp_path, "id,g1,g2\ns1,1,2\ns2,3\n"))

    def test_non_numeric_cell_names_coordinates(self, tmp_path):
        with pytest.raises(InputError, match="line 2.*'g2'"):
            load_table(write(tmp_path, "id,g1,g2\ns1,1,zap\ns2,3,4\n"))

    def test_duplicate_labels_rejected(self, tmp_path):
        with pytest.raises(InputError, match="duplicate"):
            load_table(write(tmp_path, "id,g1,g1\ns1,1,2\ns2,3,4\n"))

    def test_variables_rows_orientation(self, tmp_path):
        X = load_table(write(tmp_path, "id,s1,s2\ng1,1,3\ng2,2,4\n"),
                       orientation="variables-rows")
        assert X.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert X.sample_labels == ["s1", "s2"]
        assert X.variable_labels == ["g1", "g2"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_table(str(tmp_path / "absent.csv"))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(InputError, match="need a header row and at least one"):
            load_table(write(tmp_path, "id,g1\n"))

    @pytest.mark.parametrize("text", ["", "\n\n", "id\n"])
    def test_no_data_row_rejected(self, tmp_path, text):
        with pytest.raises(InputError, match="need a header row and at least one"):
            load_table(write(tmp_path, text))

    def test_label_column_only_rejected(self, tmp_path):
        with pytest.raises(InputError, match="need a label column and at least"):
            load_table(write(tmp_path, "id\nx\n"))

    @pytest.mark.parametrize("token", ["NA", "-999"])
    def test_orientations_read_the_same_cells(self, tmp_path, token):
        rows = [["id", "g1", "g2", "g3"], ["s1", " 1.5 ", token, "-2e3"],
                ["s2", "", "0.1", f" {token} "], ["s3", "7", "8", "9"]]
        a = load_table(write(tmp_path, "".join(",".join(r) + "\n" for r in rows),
                             "a.csv"), missing_token=token)
        b = load_table(write(tmp_path, "".join(",".join(r) + "\n"
                                               for r in zip(*rows)), "b.csv"),
                       orientation="variables-rows", missing_token=token)
        assert a.values.tobytes() == b.values.tobytes()
        assert np.isnan(a.values).sum() == 3
        assert (a.sample_labels, a.variable_labels) == (
            b.sample_labels, b.variable_labels)

    @pytest.mark.parametrize("delim", [",", "\t"], ids=["comma", "tab"])
    @pytest.mark.parametrize("make, seed", [(parity_by_hand, 1),
                                            (parity_by_writer, 2)],
                             ids=["by-hand", "write_table"])
    def test_reads_as_the_csv_oracle(self, tmp_path, make, seed, delim):
        # values, labels and error text (line and column) of seeded random
        # tables, in both orientations, equal those of csv.reader's records
        # parsed cell by cell
        rng = np.random.default_rng([seed, ord(delim)])
        seen = set()
        for case in range(60):
            token = str(rng.choice(["NA", "-999"]))
            path = str(tmp_path / f"{case}.txt")
            make(rng, path, delim, token)
            for orientation in ("samples-rows", "variables-rows"):
                expected = outcome(csv_load_table, path, delim, orientation,
                                   token)
                assert outcome(load_table, path, delim, orientation,
                               token) == expected, (case, orientation)
                seen.add(expected[0])
        # typed tables hold bad cells and short rows now and then
        assert seen == ({"read", "error"} if make is parity_by_hand
                        else {"read"})

    @pytest.mark.parametrize("orientation", ["samples-rows", "variables-rows"])
    def test_peak_memory_is_a_few_matrices(self, tmp_path, orientation):
        X = zscore_variables(synth_block(40, 2000, seed=3)[0])
        path = str(tmp_path / "t.csv")
        if orientation == "samples-rows":
            write_table(path, ["id", *X.variable_labels], zip(X.sample_labels),
                        (X.values,), ",")
        else:
            write_table(path, ["id", *X.sample_labels], zip(X.variable_labels),
                        (X.values.T,), ",")
        tracemalloc.start()
        try:
            Y = load_table(path, orientation=orientation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y.values.tobytes() == X.values.tobytes()
        # one row of text at a time: the float buffer (the matrix and its
        # growth slack), one row and the labels, then the buffer's copy
        # (transposed for variables-rows). Measured: 2.51 and 2.26
        assert peak <= 2.75 * X.values.nbytes, peak / X.values.nbytes


class TestFilterAndLog2:
    def test_powers_of_two(self):
        X, rep = filter_and_log2(DataMatrix([[2.0, 4.0], [8.0, 16.0]]))
        assert X.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert (rep.dropped_missing, rep.dropped_negative) == (0, 0)

    def test_missing_column_dropped(self):
        X, rep = filter_and_log2(DataMatrix([[2.0, np.nan], [8.0, 1.0]]))
        assert X.values.tolist() == [[1.0], [3.0]]
        assert (rep.dropped_missing, rep.dropped_negative) == (1, 0)

    def test_nonpositive_column_dropped(self):
        X, rep = filter_and_log2(DataMatrix([[2.0, -1.0], [8.0, 1.0]]))
        assert X.values.tolist() == [[1.0], [3.0]]
        assert (rep.dropped_missing, rep.dropped_negative) == (0, 1)

    def test_all_dropped_is_error(self):
        with pytest.raises(InputError, match="no variables survive"):
            filter_and_log2(DataMatrix([[np.nan], [1.0]]))

    def test_never_changes_sample_count(self):
        rng = np.random.default_rng(0)
        A = np.abs(rng.standard_normal((5, 8))) + 0.1
        A[2, 3] = np.nan
        A[0, 5] = -2.0
        X, _ = filter_and_log2(DataMatrix(A))
        assert X.n_samples == 5
        assert X.n_variables == 6

    def test_missing_and_negative_column_counts_as_missing(self):
        X, rep = filter_and_log2(DataMatrix([[2.0, np.nan, 4.0],
                                             [8.0, -1.0, 0.0]]))
        assert X.values.tolist() == [[1.0], [3.0]]
        assert (rep.dropped_missing, rep.dropped_negative) == (1, 1)
        X, rep = filter_and_log2(DataMatrix([[2.0, np.nan], [8.0, -1.0]]))
        assert X.values.tolist() == [[1.0], [3.0]]
        assert (rep.dropped_missing, rep.dropped_negative) == (1, 0)

    def test_peak_is_one_copy_above_the_input(self):
        X = synth_block(60, 10_000, seed=4)[0]
        X.values[:] = np.exp2(X.values)
        X.values[3, 7] = np.nan
        X.values[5, 11] = -1.0
        peak = traced_peak(lambda: filter_and_log2(X))
        # the masks, one copy of the kept columns and their labels.
        # Measured: 1.18 (3.19 with a copy per filter and one for log2)
        assert peak <= 1.3 * X.values.nbytes, peak / X.values.nbytes


class TestZscore:
    def test_two_point_column(self):
        X = zscore_variables(DataMatrix([[1.0], [3.0]]))
        assert np.allclose(X.values.ravel(), [-np.sqrt(0.5), np.sqrt(0.5)])
        assert abs(X.values.mean()) < 1e-12
        assert abs(X.values.std(ddof=1) - 1) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        X = zscore_variables(DataMatrix(rng.standard_normal((10, 4))))
        Y = zscore_variables(X)
        assert np.abs(Y.values - X.values).max() < 1e-10

    def test_constant_column_error_policy(self):
        with pytest.raises(InputError, match="v2"):
            zscore_variables(DataMatrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))

    def test_constant_column_drop_policy(self):
        with pytest.warns(CumbiaWarning, match="zero-variance"):
            X = zscore_variables(
                DataMatrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]),
                zero_variance_policy="drop",
            )
        assert X.variable_labels == ["v1"]

    def test_single_sample_rejected(self):
        with pytest.raises(ParameterError):
            zscore_variables(DataMatrix([[1.0, 2.0]]))

    def test_bad_policy_rejected(self):
        with pytest.raises(ParameterError):
            zscore_variables(DataMatrix([[1.0], [2.0]]), zero_variance_policy="x")

    def test_peak_is_one_copy_above_the_input(self):
        X = synth_block(60, 10_000, seed=5)[0]
        peak = traced_peak(lambda: zscore_variables(X))
        # np.std's temporary, then the masked copy and the labels' set.
        # Measured: 1.21 (2.07 when the difference was a second matrix)
        assert peak <= 1.35 * X.values.nbytes, peak / X.values.nbytes


def _biplot_arrays(X):
    bp = pca_biplot(X)  # full rank: V is scaled in place
    return [bp.sample_coords, bp.variable_coords]


def _svd_arrays(X):
    f = svd(X)
    return [f.U, f.singular_values, f.V]


@pytest.mark.parametrize("step", [
    lambda X: [filter_and_log2(X)[0].values],
    lambda X: [zscore_variables(X, zero_variance_policy="drop").values],
    _svd_arrays,
    _biplot_arrays,
], ids=["filter_and_log2", "zscore_variables", "svd", "pca_biplot"])
@pytest.mark.parametrize("drop", [False, True], ids=["none-dropped", "dropped"])
def test_steps_that_work_in_place_never_touch_their_input(step, drop):
    # each works in a copy or in LAPACK's output; the caller's matrix keeps
    # its bytes whether a column (or, for the SVD, a rank) is dropped or not
    rng = np.random.default_rng(6)
    values = np.exp2(rng.standard_normal((8, 12)))
    if drop:
        values[:, 3] = 2.0  # constant (zscore) and rank deficient (svd)
        values[:, 4] = 2.0 * values[:, 0]
        values[:, 5] = values[:, 1] - values[:, 2]
        values[:, 6:] = values[:, :6] + values[:, 1:7]
        values[2, 7] = -1.0  # nonpositive (filter_and_log2)
    X = DataMatrix(values)
    before = X.values.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CumbiaWarning)
        arrays = step(X)
    assert X.values.tobytes() == before
    for out in arrays:
        assert not np.shares_memory(out, X.values)


class TestSynthBlock:
    def test_same_seed_is_bit_identical(self):
        X1, _ = synth_block(seed=5)
        X2, _ = synth_block(seed=5)
        assert X1.values.tobytes() == X2.values.tobytes()

    def test_different_seed_differs(self):
        X1, _ = synth_block(seed=5)
        X2, _ = synth_block(seed=6)
        assert X1.values.tobytes() != X2.values.tobytes()

    def test_zero_shift_is_null(self):
        X, _ = synth_block(shift=0.0, seed=2)
        n_total = X.values.size
        assert abs(X.values.mean()) < 4 / np.sqrt(n_total)
        tail = np.mean(np.abs(X.values) > 3)
        assert 0.001 <= tail <= 0.006

    def test_planted_block_mean_band(self):
        for seed in range(3):
            X, _ = synth_block(seed=seed)
            block = X.values[:6, :25]
            assert 1.6 <= block.mean() <= 2.4

    def test_labels_mark_planted_samples(self):
        _, groups = synth_block(N=10, p=20, n_planted=3, p_planted=4, seed=0)
        assert groups == ["planted"] * 3 + ["background"] * 7

    def test_invalid_block_rejected(self):
        with pytest.raises(ParameterError):
            synth_block(N=5, p=10, n_planted=6, p_planted=2)
        with pytest.raises(ParameterError):
            synth_block(N=5, p=10, n_planted=2, p_planted=11)
