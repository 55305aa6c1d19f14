import re

import numpy as np
import pytest
from measure import traced_peak

from cumbia import (
    CumbiaConfig,
    DataMatrix,
    InputError,
    ParameterError,
    joint_matrix,
    pca_biplot,
    svd,
    truncate,
)
from cumbia.matrix_core import RANK_TOLERANCE, _fix_column_signs


def test_datamatrix_generates_default_labels():
    X = DataMatrix(np.zeros((2, 3)) + 1.0)
    assert X.sample_labels == ["s1", "s2"]
    assert X.variable_labels == ["v1", "v2", "v3"]


def test_datamatrix_accepts_label_arrays():
    values = np.ones((2, 3))
    expect = DataMatrix(values, sample_labels=["a", "b"],
                        variable_labels=["x", "y", "z"])
    for samples, variables in ((np.array(["a", "b"]), np.array(["x", "y", "z"])),
                               (("a", "b"), ("x", "y", "z"))):
        X = DataMatrix(values, sample_labels=samples, variable_labels=variables)
        assert X.sample_labels == expect.sample_labels
        assert X.variable_labels == expect.variable_labels
    X = DataMatrix(values, sample_labels=np.array([]),
                   variable_labels=np.array([]))
    assert X.sample_labels == ["s1", "s2"]
    assert X.variable_labels == ["v1", "v2", "v3"]
    assert DataMatrix(np.ones((1, 1)), sample_labels=np.array([""])) \
        .sample_labels == [""]


def test_datamatrix_rejects_duplicate_labels():
    with pytest.raises(InputError, match="duplicate sample"):
        DataMatrix(np.ones((2, 2)), sample_labels=["a", "a"])
    with pytest.raises(InputError, match="duplicate variable"):
        DataMatrix(np.ones((2, 2)), variable_labels=["x", "x"])


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
def test_datamatrix_names_the_first_label_that_repeats(make):
    # sorted, 'a' repeats first; in input order 'b' does
    labels = make(["b", "a", "b", "a"])
    with pytest.raises(InputError, match="duplicate sample label 'b'"):
        DataMatrix(np.ones((4, 1)), sample_labels=labels)
    with pytest.raises(InputError, match="duplicate variable label 'b'"):
        DataMatrix(np.ones((1, 4)), variable_labels=labels)


def test_datamatrix_label_check_holds_no_set():
    values = np.ones((2, 10_000))
    labels = [f"v{j}" for j in range(10_000)]
    _, peak = traced_peak(lambda: DataMatrix(values, variable_labels=labels))
    # the rebuilt label list and one sorted list of references to it.
    # Measured: 0.17 MB (0.74 MB with a set of the labels)
    assert peak <= 0.3e6, peak / 1e6


def test_datamatrix_rejects_label_length_mismatch():
    with pytest.raises(InputError):
        DataMatrix(np.ones((2, 2)), sample_labels=["a"])


def test_svd_identity_has_unit_singular_values():
    f = svd(np.eye(2))
    assert np.allclose(f.singular_values, [1.0, 1.0])
    assert f.r == 2


def test_svd_diagonal_is_analytic():
    f = svd(np.diag([2.0, 1.0]))
    assert np.allclose(f.singular_values, [2.0, 1.0])
    # U and V equal identity up to column sign, and the sign convention
    # makes the largest-magnitude entry positive, so exactly identity here
    assert np.allclose(f.U, np.eye(2))
    assert np.allclose(f.V, np.eye(2))


def test_svd_reconstructs_seeded_matrix():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((5, 4))
    f = svd(A)
    rebuilt = (f.U * f.singular_values) @ f.V.T
    assert np.linalg.norm(rebuilt - A) / np.linalg.norm(A) < 1e-10


def test_svd_orthonormality_across_sizes():
    rng = np.random.default_rng(7)
    for n, p in [(3, 5), (20, 8), (50, 50), (200, 2000)]:
        A = rng.standard_normal((n, p))
        f = svd(A)
        r = f.r
        assert np.linalg.norm(f.U.T @ f.U - np.eye(r)) < 1e-10
        assert np.linalg.norm(f.V.T @ f.V - np.eye(r)) < 1e-10
        assert np.all(np.diff(f.singular_values) <= 0)
        assert f.singular_values[-1] > 0


def test_svd_sign_convention_is_deterministic():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 5))
    f1 = svd(A)
    f2 = svd(A.copy())
    assert f1.U.tobytes() == f2.U.tobytes()
    assert f1.V.tobytes() == f2.V.tobytes()
    for k in range(f1.r):
        i = np.argmax(np.abs(f1.U[:, k]))
        assert f1.U[i, k] > 0


def test_svd_top_singular_value_bounds_entries():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
        f = svd(A)
        assert f.singular_values[0] >= A.max() - 1e-12


def test_svd_rejects_nonfinite_with_location():
    A = np.ones((3, 3))
    A[1, 2] = np.nan
    with pytest.raises(InputError, match="row 1, column 2"):
        svd(A)


def test_svd_rejects_zero_matrix():
    with pytest.raises(InputError, match="rank zero"):
        svd(np.zeros((3, 3)))


def test_svd_rank_detection_drops_tiny_values():
    A = np.outer([1.0, 2.0, 3.0], [1.0, 0.5, 2.0, -1.0])
    f = svd(A)
    assert f.r == 1


def test_truncate_diagonal_case():
    f = svd(np.diag([2.0, 1.0]))
    X1 = truncate(f, 1)
    assert np.allclose(X1, np.diag([2.0, 0.0]))
    assert abs(np.linalg.norm(np.diag([2.0, 1.0]) - X1) ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("s", [2, 3])
def test_truncate_bytes_are_those_of_a_c_ordered_v(s):
    # svd's V is an F-ordered view; a product with it as the right operand
    # gives other bytes on this matrix at s = 2 and 3, so truncate must
    # multiply C-ordered copies as these reference lines do
    A = np.random.default_rng(1).standard_normal((60, 1500))
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(sv > RANK_TOLERANCE * sv[0]))
    U, sv, Vc = U[:, :r].copy(), sv[:r].copy(), Vt[:r].T.copy()
    _fix_column_signs(U, Vc)
    expect = (U[:, :s] * sv[:s]) @ Vc[:, :s].T
    assert truncate(svd(A), s).tobytes() == expect.tobytes()


def test_svd_traced_peak_is_one_factor_above_the_input():
    # LAPACK's copy of the input is made outside tracemalloc's view; V^T
    # is the one N x p array it sees, and V is a view of it, not a copy
    A = np.random.default_rng(2).standard_normal((60, 10_000))
    f, peak = traced_peak(lambda: svd(A))
    assert not f.V.flags.c_contiguous and f.V.flags.f_contiguous
    # measured: 1.02 (2.02 when V was copied into C order)
    assert peak <= 1.1 * A.nbytes, peak / A.nbytes


def test_truncate_rank_out_of_range():
    f = svd(np.eye(3))
    with pytest.raises(ParameterError):
        truncate(f, 0)
    with pytest.raises(ParameterError):
        truncate(f, 4)


def test_truncation_rank_rule_is_shared():
    # one rule, s within [1, r], behind the three entry points that take
    # a rank; each keeps its own wording
    A = np.eye(3)
    for call, text in (
            (lambda: joint_matrix(A, CumbiaConfig(s=4)),
             "truncation rank s=4 outside [1, 3]"),
            (lambda: pca_biplot(A, s=4), "s=4 outside [1, 3]"),
            (lambda: truncate(svd(A), 4), "truncation rank 4 outside [1, 3]")):
        with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
            call()

