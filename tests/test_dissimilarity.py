import warnings

import numpy as np
import pytest

from cumbia import (
    CumbiaConfig,
    CumbiaWarning,
    DataMatrix,
    InvariantViolation,
    ParameterError,
    graph_oracle,
    joint_matrix,
    sample_variable_diss,
    svd,
    within_kind_diss,
    write_dissimilarity,
)


def joint_from(A, k=1, s=None, k_vars=None):
    X = DataMatrix(A)
    f = svd(X)
    return joint_matrix(X, f, CumbiaConfig(s=s, k_samples=k, k_variables=k_vars))


class TestSampleVariableDiss:
    def test_identity_case(self):
        D = sample_variable_diss(np.eye(2), 1.0)
        assert D.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_diagonal_case(self):
        D = sample_variable_diss(np.diag([2.0, 1.0]), 2.0)
        assert np.allclose(D, [[0.0, np.sqrt(2)], [np.sqrt(2), 1.0]])

    def test_algebraic_identity_on_seeded_matrix(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 9))
        f = svd(A)
        lam1 = float(f.singular_values[0])
        D = sample_variable_diss(A, lam1)
        assert np.abs(D**2 + A - lam1).max() < 1e-12 * max(lam1, 1.0)

    def test_tiny_negative_radicand_clamped_to_zero(self):
        lam1 = 2.0
        A = np.array([[lam1 + 1e-13 * lam1, 0.0]])
        D = sample_variable_diss(A, lam1)
        assert D[0, 0] == 0.0

    def test_large_negative_radicand_is_invariant_violation(self):
        with pytest.raises(InvariantViolation):
            sample_variable_diss(np.array([[3.0]]), 2.0)

    def test_lambda1_must_be_positive(self):
        with pytest.raises(ParameterError):
            sample_variable_diss(np.zeros((2, 2)), 0.0)


class TestWithinKindDiss:
    def test_identity_sample_pair(self):
        D_sv = sample_variable_diss(np.eye(2), 1.0)
        SS = within_kind_diss(D_sv, 1, "samples")
        # two paths: 0+1 via v1 and 1+0 via v2; min is 1
        assert SS[0, 1] == 1.0
        assert SS[0, 0] == 0.0 and SS[1, 1] == 0.0

    def test_diagonal_sample_pair(self):
        D_sv = sample_variable_diss(np.diag([2.0, 1.0]), 2.0)
        SS = within_kind_diss(D_sv, 1, "samples")
        assert abs(SS[0, 1] - np.sqrt(2)) < 1e-15

    def test_k_clamped_with_warning(self):
        D_sv = sample_variable_diss(np.eye(2), 1.0)
        with pytest.warns(CumbiaWarning, match="clamped"):
            SS = within_kind_diss(D_sv, 5, "samples")
        assert SS[0, 1] == within_kind_diss(D_sv, 2, "samples")[0, 1]

    def test_duplicate_pairs_forced_to_zero(self):
        rng = np.random.default_rng(9)
        D_sv = np.abs(rng.standard_normal((4, 5)))
        SS = within_kind_diss(D_sv, 2, "samples", duplicate_groups=[[0, 2, 3]])
        assert SS[0, 2] == SS[2, 0] == 0.0
        assert SS[0, 3] == SS[2, 3] == 0.0
        assert SS[0, 1] > 0.0

    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError):
            within_kind_diss(np.ones((2, 2)), 1, "rows")

    def test_monotone_in_k(self):
        rng = np.random.default_rng(14)
        D_sv = np.abs(rng.standard_normal((5, 8)))
        prev = None
        for k in range(1, 9):
            M = within_kind_diss(D_sv, k, "samples")
            if prev is not None:
                off = ~np.eye(5, dtype=bool)
                assert np.all(M[off] >= prev[off] - 1e-15)
            prev = M


class TestJointMatrix:
    def test_identity_blocks(self):
        J = joint_from(np.eye(2), k=1)
        expect = np.array([
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
        ])
        assert np.abs(J.values - expect).max() < 1e-12
        assert J.object_kinds == ["sample"] * 2 + ["variable"] * 2

    def test_identical_sample_rows_get_zero_distance(self):
        A = np.array([[1.0, 2.0, 3.0],
                      [0.5, -1.0, 2.0],
                      [1.0, 2.0, 3.0]])
        J = joint_from(A, k=2)
        assert J.values[0, 2] == 0.0
        assert J.values[0, 1] > 0.0

    def test_invariants_on_seeded_matrix(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((10, 15))
        X = DataMatrix(A)
        f = svd(X)
        J = joint_matrix(X, f, CumbiaConfig(k_samples=2))
        V = J.values
        assert np.abs(V - V.T).max() <= 1e-12
        assert np.all(np.diag(V) == 0.0)
        assert V.min() >= 0.0
        lam1 = float(f.singular_values[0])
        off = V[:10, 10:]
        # full-rank pipeline uses A itself as the truncation
        assert np.abs(off**2 + A - lam1).max() < 1e-12 * max(lam1, 1.0)

    def test_s_out_of_range_rejected(self):
        X = DataMatrix(np.eye(3))
        f = svd(X)
        with pytest.raises(ParameterError):
            joint_matrix(X, f, CumbiaConfig(s=4))

    def test_labels_flow_through(self):
        X = DataMatrix(np.eye(2), sample_labels=["a", "b"],
                       variable_labels=["x", "y"])
        J = joint_matrix(X, svd(X), CumbiaConfig(k_samples=1))
        assert J.object_labels == ["a", "b", "x", "y"]

    def test_triangle_bound_for_k1(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((6, 7))
        J = joint_from(A, k=1)
        V = J.values
        N = 6
        for i in range(N):
            for j in range(i + 1, N):
                paths = V[i, N:] + V[j, N:]
                assert V[i, j] <= paths.min() + 1e-15
                assert abs(V[i, j] - paths.min()) < 1e-15

    def test_raising_an_entry_never_raises_its_cross_distance(self):
        rng = np.random.default_rng(37)
        A = rng.standard_normal((5, 6))
        f = svd(A)
        lam1 = float(f.singular_values[0])
        D1 = sample_variable_diss(A, lam1)
        B = A.copy()
        B[2, 3] += 0.5 * (lam1 - B[2, 3])  # stay below the bound
        D2 = sample_variable_diss(B, lam1)
        assert D2[2, 3] <= D1[2, 3]

    def test_k_clamp_warns_on_every_call(self):
        A = np.array([[0.3, -1.2, 0.8, 2.0], [1.1, 0.4, -0.6, 0.2]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            joint_from(A, k=3)
            joint_from(A, k=3)
        clamps = [w for w in caught if "variables pairs" in str(w.message)]
        assert len(clamps) == 2


class TestGraphOracle:
    def test_identity_matches_joint(self):
        J = joint_from(np.eye(2), k=1)
        f = svd(np.eye(2))
        O = graph_oracle(np.eye(2), float(f.singular_values[0]), 1)
        assert J.values.tobytes() == O.values.tobytes()

    def test_single_sample_row_clamps_k(self):
        A = np.array([[0.3, -1.2, 0.8, 2.0]])
        f = svd(A)
        with pytest.warns(CumbiaWarning, match="clamped"):
            O = graph_oracle(A, float(f.singular_values[0]), 3)
        # variable pairs have exactly one two-edge path through the sample
        w = O.values[0, 1:]
        for a in range(4):
            for b in range(a + 1, 4):
                assert O.values[1 + a, 1 + b] == w[a] + w[b]

    def test_exact_equality_on_seeded_batch(self):
        rng = np.random.default_rng(55)
        for _ in range(6):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(2, 13))
            A = rng.standard_normal((n, p))
            X = DataMatrix(A)
            f = svd(X)
            lam1 = float(f.singular_values[0])
            for K in (1, 2, 3):
                J = joint_matrix(X, f, CumbiaConfig(k_samples=K))
                O = graph_oracle(A, lam1, K)
                assert J.values.tobytes() == O.values.tobytes()

    def test_size_guard(self):
        with pytest.raises(ParameterError, match="limited"):
            graph_oracle(np.zeros((51, 3)) + 1.0, 10.0, 1)


def test_write_dissimilarity_roundtrip_labels(tmp_path):
    J = joint_from(np.eye(2), k=1)
    out = tmp_path / "d.csv"
    write_dissimilarity(J, str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("object,s:")
    assert "v:" in lines[0]
    assert len(lines) == 1 + J.n_objects
