import tracemalloc

import numpy as np
import pytest

from cumbia import (
    CumbiaWarning,
    DataMatrix,
    InputError,
    ParameterError,
    filter_and_log2,
    load_table,
    synth_block,
    zscore_variables,
)
from cumbia._fsio import write_table


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    @pytest.mark.parametrize("orientation", ["samples-rows", "variables-rows"])
    def test_peak_memory_is_a_few_matrices(self, tmp_path, orientation):
        X = zscore_variables(synth_block(40, 2000, seed=3)[0])
        path = str(tmp_path / "t.csv")
        if orientation == "samples-rows":
            write_table(path, ["id", *X.variable_labels], X.sample_labels,
                        X.values, ",")
        else:
            write_table(path, ["id", *X.sample_labels], X.variable_labels,
                        X.values.T, ",")
        tracemalloc.start()
        try:
            Y = load_table(path, orientation=orientation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Y.values.tobytes() == X.values.tobytes()
        # one row of text at a time: the rows as arrays, the matrix and,
        # for variables-rows, its transposed copy
        assert peak <= 4 * X.values.nbytes, peak / X.values.nbytes


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
