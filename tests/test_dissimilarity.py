import warnings

import numpy as np
import pytest

from cumbia import (
    CumbiaConfig,
    CumbiaWarning,
    DataMatrix,
    InvariantViolation,
    ParameterError,
    joint_matrix,
    sample_variable_diss,
    shave,
    svd,
    within_kind_diss,
)
from cumbia import dissimilarity
from cumbia.dissimilarity import identical_index_groups

from oracle import bytes_index_groups, graph_oracle


def joint_from(A, k=1, s=None, k_vars=None):
    return joint_matrix(DataMatrix(A),
                        CumbiaConfig(s=s, k_samples=k, k_variables=k_vars))


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


class TestIdenticalIndexGroups:
    """The hashed rule against the bytes-keyed reference in oracle.py, on
    the rows (axis 0) and on the columns (axis 1) of each matrix."""

    @staticmethod
    def profiles(M, axis):
        return M if axis == 0 else M.T

    @staticmethod
    def planted(order="C"):
        A = np.random.default_rng(61).standard_normal((12, 15))
        A[[4, 9, 11]] = A[1]
        A[7] = A[3]
        A[:, [2, 13]] = A[:, [8, 8]]
        A[:, 14] = A[:, 0]
        return np.asarray(A, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_planted_duplicates_match_the_bytes_rule(self, order, axis):
        A = self.profiles(self.planted(order), axis)
        expected = bytes_index_groups(A)
        assert len(expected) == 2
        assert identical_index_groups(A) == expected
        # a strided view that keeps two groups per axis
        view = self.profiles(self.planted(order)[1::2, ::2], axis)
        expected = bytes_index_groups(view)
        assert len(expected) == 2
        assert identical_index_groups(view) == expected

    @staticmethod
    def signed_zeros(axis):
        # 0.0 == -0.0, but their bytes differ, and so do the profiles
        A = np.zeros((4, 3))
        A[[1, 3], 0] = -0.0
        return A if axis == 0 else np.asfortranarray(A.T)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_signed_zeros_stay_apart(self, axis):
        M = self.profiles(self.signed_zeros(axis), axis)
        got = identical_index_groups(M)
        assert got == bytes_index_groups(M) == [[0, 2], [1, 3]]

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("fake_hash", [lambda key: 0, lambda key: key[:8]],
                             ids=["one-bucket", "first-value"])
    def test_profiles_sharing_a_bucket_are_split_by_bytes(self, monkeypatch,
                                                          axis, fake_hash):
        # one bucket for every profile, or one per first value: buckets
        # hold distinct profiles, and profile 0 is alone in the bucket of
        # the later group (5, 7), which must still come after (2, 3)
        monkeypatch.setattr(dissimilarity, "hash", fake_hash, raising=False)
        order = np.array([[1, 9], [3, 0], [2, 5], [2, 5], [4, 0], [1, 8],
                          [6, 0], [1, 8]], dtype=float)
        order = order if axis == 0 else order.T.copy()
        assert identical_index_groups(self.profiles(order, axis)) \
            == [[2, 3], [5, 7]]
        for M in (order, self.planted(), self.signed_zeros(axis), np.eye(3)):
            M = self.profiles(M, axis)
            assert identical_index_groups(M) == bytes_index_groups(M)


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
        # objects 0, 2 and 3 have identical edges to the other kind
        rng = np.random.default_rng(9)
        D_sv = np.abs(rng.standard_normal((4, 5)))
        D_sv[[2, 3]] = D_sv[0]
        for kind, M in (("samples", D_sv), ("variables", D_sv.T)):
            SS = within_kind_diss(M, 2, kind)
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

    def test_duplicate_groups_zeroed_inside_the_view(self):
        D_sv = np.abs(np.random.default_rng(8).standard_normal((6, 5)))
        D_sv[4] = D_sv[1]
        D_sv[[2, 5]] = D_sv[0]
        groups = [[1, 4], [0, 2, 5]]
        big = np.full((9, 9), np.nan)
        view = big[3:, 3:]
        got = within_kind_diss(D_sv, 2, "samples", out=view)
        assert got is view
        expect = within_kind_diss(D_sv, 2, "samples")
        assert view.tobytes() == expect.tobytes()
        for g in groups:
            assert np.all(view[np.ix_(g, g)] == 0.0)
        assert np.isnan(big[:3]).all() and np.isnan(big[:, :3]).all()


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

    def test_samples_with_equal_edges_are_duplicates(self):
        # sample 3 is sample 1 with one entry moved by one ulp: at full
        # rank X_s is X, so their rows differ, but lambda_1 - x rounds
        # both entries to the same edge, so every path length of the two
        # is equal and they are duplicates at distance 0, in the joint
        # matrix and in shave's scores
        X = np.random.default_rng(0).standard_normal((5, 7))
        X[3] = X[1]
        X[3, 0] = np.nextafter(X[3, 0], np.inf)
        D_sv = sample_variable_diss(X, float(svd(X).singular_values[0]))
        assert X[1].tobytes() != X[3].tobytes()
        assert D_sv[1].tobytes() == D_sv[3].tobytes()
        J = joint_from(X, k=2)
        assert J.values[1, 3] == J.values[3, 1] == 0.0
        step = shave(X, CumbiaConfig(k_samples=2), k0=1).steps[0]
        assert step.sample_scores[1] == step.sample_scores[3] == 0.0

    def test_invariants_on_seeded_matrix(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((10, 15))
        X = DataMatrix(A)
        f = svd(X)
        J = joint_matrix(X, CumbiaConfig(k_samples=2))
        V = J.values
        assert np.abs(V - V.T).max() <= 1e-12
        assert np.all(np.diag(V) == 0.0)
        assert V.min() >= 0.0
        lam1 = float(f.singular_values[0])
        off = V[:10, 10:]
        # full-rank pipeline uses A itself as the truncation
        assert np.abs(off**2 + A - lam1).max() < 1e-12 * max(lam1, 1.0)

    def test_s_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            joint_matrix(DataMatrix(np.eye(3)), CumbiaConfig(s=4))

    def test_labels_flow_through(self):
        X = DataMatrix(np.eye(2), sample_labels=["a", "b"],
                       variable_labels=["x", "y"])
        J = joint_matrix(X, CumbiaConfig(k_samples=1))
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
                J = joint_matrix(X, CumbiaConfig(k_samples=K))
                O = graph_oracle(A, lam1, K)
                assert J.values.tobytes() == O.values.tobytes()

    def test_size_guard(self):
        with pytest.raises(ParameterError, match="limited"):
            graph_oracle(np.zeros((51, 3)) + 1.0, 10.0, 1)
