import numpy as np
import pytest

from cumbia import (
    CumbiaConfig,
    CumbiaWarning,
    DataMatrix,
    InputError,
    ParameterError,
    classical_mds,
    cumbia,
    double_center,
    pca_biplot,
    scree,
)


def pairwise(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


class TestDoubleCenter:
    def test_two_object_hand_case(self):
        C = double_center(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert np.abs(C - [[1.0, -1.0], [-1.0, 1.0]]).max() < 1e-15

    def test_zero_matrix(self):
        C = double_center(np.zeros((3, 3)))
        assert np.all(C == 0.0)

    def test_matches_centered_gram_of_points(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((10, 3))
        D = pairwise(pts)
        centered = pts - pts.mean(axis=0)
        gram = centered @ centered.T
        C = double_center(D)
        assert np.abs(C - gram).max() < 1e-10

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((7, 2))
        C = double_center(pairwise(pts))
        assert np.abs(C.sum(axis=0)).max() < 1e-8
        assert np.abs(C - C.T).max() < 1e-12

    def test_asymmetric_input_rejected(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InputError, match="symmetric"):
            double_center(D)


class TestClassicalMds:
    def test_two_points_at_distance_two(self):
        emb = classical_mds(np.array([[0.0, 2.0], [2.0, 0.0]]), dims=1)
        c = emb.coordinates.ravel()
        assert np.abs(np.abs(c) - 1.0).max() < 1e-12
        assert abs(abs(c[0] - c[1]) - 2.0) < 1e-12

    def test_recovers_seeded_point_cloud(self):
        rng = np.random.default_rng(20)
        pts = rng.standard_normal((12, 3))
        D = pairwise(pts)
        emb = classical_mds(D, dims=3)
        got = pairwise(emb.coordinates)
        assert np.abs(got - D).max() < 1e-8

    def test_equilateral_triangle(self):
        D = np.ones((3, 3)) - np.eye(3)
        emb = classical_mds(D, dims=2)
        got = pairwise(emb.coordinates)
        off = ~np.eye(3, dtype=bool)
        assert np.abs(got[off] - 1.0).max() < 1e-8

    def test_shortfall_flagged_when_dims_exceed_rank(self):
        D = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.warns(CumbiaWarning, match="positive eigenvalues"):
            emb = classical_mds(D, dims=3)
        assert emb.shortfall
        assert emb.dims_used == 1
        assert emb.coordinates.shape == (2, 1)

    def test_spectrum_is_full_and_descending(self):
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((9, 2))
        emb = classical_mds(pairwise(pts), dims=2)
        assert emb.eigenvalues.shape == (9,)
        assert np.all(np.diff(emb.eigenvalues) <= 1e-12)

    def test_column_norms_match_eigenvalues(self):
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((8, 3))
        emb = classical_mds(pairwise(pts), dims=3)
        for k in range(emb.dims_used):
            norm_sq = (emb.coordinates[:, k] ** 2).sum()
            assert abs(norm_sq - emb.eigenvalues[k]) < 1e-8

    def test_coordinate_columns_orthogonal(self):
        rng = np.random.default_rng(26)
        pts = rng.standard_normal((8, 3))
        emb = classical_mds(pairwise(pts), dims=3)
        G = emb.coordinates.T @ emb.coordinates
        off = ~np.eye(emb.dims_used, dtype=bool)
        assert np.abs(G[off]).max() < 1e-8

    def test_permuting_objects_permutes_coordinates(self):
        rng = np.random.default_rng(28)
        pts = rng.standard_normal((9, 3))
        D = pairwise(pts)
        perm = rng.permutation(9)
        emb1 = classical_mds(D, dims=3)
        emb2 = classical_mds(D[np.ix_(perm, perm)], dims=3)
        d1 = pairwise(emb1.coordinates)
        d2 = pairwise(emb2.coordinates)
        assert np.abs(d1[np.ix_(perm, perm)] - d2).max() < 1e-8

    def test_dims_must_be_positive(self):
        with pytest.raises(ParameterError):
            classical_mds(np.zeros((2, 2)), dims=0)


class TestPcaBiplot:
    def test_diagonal_analytic(self):
        bp = pca_biplot(DataMatrix(np.diag([2.0, 1.0])), s=2, alpha=1.0)
        assert np.allclose(np.abs(bp.sample_coords), np.diag([2.0, 1.0]))
        assert np.allclose(np.abs(bp.variable_coords), np.eye(2))
        rebuilt = bp.sample_coords @ bp.variable_coords.T
        assert np.abs(rebuilt - np.diag([2.0, 1.0])).max() < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_full_rank_product_reconstructs(self, alpha):
        rng = np.random.default_rng(30)
        A = rng.standard_normal((7, 5))
        bp = pca_biplot(DataMatrix(A), alpha=alpha)
        rebuilt = bp.sample_coords @ bp.variable_coords.T
        assert np.abs(rebuilt - A).max() < 1e-8

    def test_truncated_product_reconstructs_low_rank(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((8, 6))
        from cumbia import svd, truncate

        f = svd(A)
        bp = pca_biplot(DataMatrix(A), s=3, alpha=0.5)
        assert np.abs(bp.sample_coords @ bp.variable_coords.T
                      - truncate(f, 3)).max() < 1e-8

    def test_alpha_one_preserves_sample_distances(self):
        rng = np.random.default_rng(34)
        A = rng.standard_normal((20, 30))
        bp = pca_biplot(DataMatrix(A), alpha=1.0)
        assert np.abs(pairwise(bp.sample_coords) - pairwise(A)).max() < 1e-8

    def test_alpha_out_of_range(self):
        with pytest.raises(ParameterError):
            pca_biplot(DataMatrix(np.eye(2)), alpha=1.5)

    def test_s_out_of_range(self):
        with pytest.raises(ParameterError):
            pca_biplot(DataMatrix(np.eye(2)), s=3)


class TestScree:
    def test_singular_values(self):
        fractions, negatives = scree([2.0, 1.0], "singular-values")
        assert np.allclose(fractions, [0.8, 0.2])
        assert negatives == []

    def test_eigenvalues_split(self):
        fractions, negatives = scree([3.0, 1.0, -2.0], "eigenvalues")
        assert np.allclose(fractions, [0.75, 0.25])
        assert negatives == [-2.0]

    def test_single_value(self):
        fractions, _ = scree([7.0], "singular-values")
        assert fractions == [1.0]

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(36)
        vals = np.abs(rng.standard_normal(15))
        fractions, _ = scree(vals, "singular-values")
        assert abs(sum(fractions) - 1.0) < 1e-12
        mixed = rng.standard_normal(15)
        fractions, negatives = scree(mixed, "eigenvalues")
        if fractions:
            assert abs(sum(fractions) - 1.0) < 1e-12
        assert all(v < 0 for v in negatives)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            scree([], "eigenvalues")

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            scree([1.0], "values")

    def test_negative_singular_values_rejected(self):
        with pytest.raises(ParameterError):
            scree([1.0, -1.0], "singular-values")


class TestCumbiaPipeline:
    def test_identity_pairs_coincide_across_kinds(self):
        # the 4-object joint matrix of the 2x2 identity makes sample i and
        # variable i indistinguishable (identical dissimilarity rows), so
        # each sample lands on its variable partner, while the two samples
        # stay a unit apart; eigh leaves ulp-level noise, hence tolerances
        emb = cumbia(np.eye(2), CumbiaConfig(k_samples=1), dims=1)
        c = emb.coordinates.ravel()
        s1, s2, w1, w2 = c
        assert abs(s1 - w1) < 1e-12
        assert abs(s2 - w2) < 1e-12
        assert abs(abs(s1 - s2) - 1.0) < 1e-12

    def test_embedding_metadata(self):
        X = DataMatrix(np.eye(3), sample_labels=list("abc"),
                       variable_labels=list("xyz"))
        emb = cumbia(X, CumbiaConfig(k_samples=1), dims=2)
        assert emb.object_labels == list("abcxyz")
        assert emb.object_kinds == ["sample"] * 3 + ["variable"] * 3
        assert emb.config.k_samples == 1
        assert emb.eigenvalues.shape == (6,)

    def test_repeated_runs_identical(self):
        rng = np.random.default_rng(40)
        A = rng.standard_normal((10, 15))
        e1 = cumbia(A, CumbiaConfig(), dims=3)
        e2 = cumbia(A.copy(), CumbiaConfig(), dims=3)
        assert e1.coordinates.tobytes() == e2.coordinates.tobytes()
        assert e1.eigenvalues.tobytes() == e2.eigenvalues.tobytes()

    def test_rejects_missing_values(self):
        A = np.ones((3, 3))
        A[0, 0] = np.nan
        with pytest.raises(InputError):
            cumbia(A, CumbiaConfig(), dims=2)
