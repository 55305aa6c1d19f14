import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from measure import TOOLS, child_env, traced_peak

from cumbia import (
    CumbiaConfig,
    CumbiaWarning,
    DataMatrix,
    InputError,
    InvariantViolation,
    ParameterError,
    classical_mds,
    cumbia,
    double_center,
    pca_biplot,
    scree,
    svd,
    zscore_variables,
)
from cumbia import _kernels, dissimilarity, embedding, matrix_core
from cumbia.embedding import SYMMETRY_TILE


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

    @pytest.mark.parametrize("n", [1, 2, SYMMETRY_TILE - 1, SYMMETRY_TILE,
                                   SYMMETRY_TILE + 1, 2 * SYMMETRY_TILE + 3])
    def test_in_place_matches_expression_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        A = np.abs(rng.standard_normal((n, n)))
        D = (A + A.T) / 2.0
        before = D.copy()
        # reference: the whole-matrix expression, temporaries and all
        S = D * D
        r = S.mean(axis=1)
        g = r.mean()
        C = -0.5 * (S - r[:, None] - r[None, :] + g)
        expect = (C + C.T) / 2.0
        got = double_center(D)
        assert got.tobytes() == expect.tobytes()
        assert D.tobytes() == before.tobytes()

    def test_asymmetry_in_off_diagonal_tile(self):
        n = 2 * SYMMETRY_TILE + 3
        rng = np.random.default_rng(40)
        A = np.abs(rng.standard_normal((n, n)))
        D = (A + A.T) / 2.0
        i, j = 5, SYMMETRY_TILE + 7  # upper tile (0, 1), away from the diagonal
        D[i, j] += 5e-13
        double_center(D)
        D[i, j] += 1.5e-12
        with pytest.raises(InputError, match="symmetric"):
            double_center(D)


    def test_nan_rejected_before_the_eigensolver(self):
        D = np.ones((4, 4)) - np.eye(4)
        D[0, 2] = D[2, 0] = np.nan
        with pytest.raises(InputError, match="finite"):
            double_center(D)
        with pytest.raises(InputError, match="finite"):
            classical_mds(D, 2)

    def test_inf_rejected(self):
        D = np.ones((3, 3)) - np.eye(3)
        D[1, 2] = D[2, 1] = np.inf
        # inf - inf in the symmetry check must not warn before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InputError, match="finite"):
                double_center(D)

    def test_callers_matrix_left_unchanged(self):
        pts = np.random.default_rng(14).standard_normal((30, 3))
        D = pairwise(pts)
        before = D.tobytes()
        double_center(D)
        classical_mds(D, 2)
        assert D.tobytes() == before

class TestClassicalMds:
    def test_two_points_at_distance_two(self):
        emb = classical_mds(np.array([[0.0, 2.0], [2.0, 0.0]]), dims=1)
        c = emb.coordinates.ravel()
        assert np.abs(np.abs(c) - 1.0).max() < 1e-12
        assert abs(abs(c[0] - c[1]) - 2.0) < 1e-12

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


def _simplex_cases():
    for n in (2, 3, 6, 12):
        for dims in sorted({*range(1, min(3, n - 1) + 1), n - 1}):
            yield n, dims


class TestTopEigenvectors:
    """classical_mds takes the spectrum and only the used eigenvectors
    from LAPACK's tridiagonal routines; these pin both against eigvalsh
    and eigh."""

    @pytest.mark.parametrize("n,dims", list(_simplex_cases()))
    def test_regular_simplex_repeated_eigenvalue(self, n, dims):
        # C = J / 2: eigenvalue 1/2 of multiplicity n - 1, so the wanted
        # eigenvectors are any orthonormal basis of one cluster
        D = np.ones((n, n)) - np.eye(n)
        emb = classical_mds(D, dims=dims)
        P = emb.coordinates
        assert emb.dims_used == dims and not emb.shortfall
        assert np.abs(P.T @ P - np.diag(emb.eigenvalues[:dims])).max() < 1e-12
        assert np.abs(emb.eigenvalues[:dims] - 0.5).max() < 1e-12
        assert np.abs(double_center(D) @ P - 0.5 * P).max() < 1e-12
        if dims == n - 1:
            off = ~np.eye(n, dtype=bool)
            assert np.abs(pairwise(P)[off] - 1.0).max() < 1e-12

    def test_spectrum_is_eigvalsh_reversed(self):
        rng = np.random.default_rng(50)
        A = np.abs(rng.standard_normal((40, 40)))
        D = (A + A.T) / 2.0
        np.fill_diagonal(D, 0.0)
        emb = classical_mds(D, dims=3)
        expect = np.linalg.eigvalsh(double_center(D))[::-1]
        assert emb.eigenvalues.tobytes() == expect.tobytes()
        assert emb.eigenvalues.shape == (40,)

    def test_matches_full_eigh_reference(self):
        rng = np.random.default_rng(52)
        n = 400
        pts = rng.standard_normal((n, 3)) * [3.0, 2.0, 1.0]
        noise = np.abs(rng.standard_normal((n, n))) * 0.05
        D = pairwise(pts) + (noise + noise.T) / 2.0
        np.fill_diagonal(D, 0.0)
        emb = classical_mds(D, dims=3)
        evals, evecs = np.linalg.eigh(double_center(D))
        order = np.argsort(-evals, kind="stable")[:3]
        ref = embedding._fix_column_signs(
            evecs[:, order] * np.sqrt(evals[order]))
        assert emb.coordinates.shape == (n, 3)
        for k in range(3):
            assert np.abs(emb.coordinates[:, k] - ref[:, k]).max() < 1e-8

    def test_evenly_spaced_spectrum_without_gap(self):
        # no gap at the top of the spectrum: the case a Krylov solver
        # needed hundreds of steps for
        rng = np.random.default_rng(58)
        n = 400
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        C = (Q * np.linspace(-0.5, 1.0, n)) @ Q.T
        C = (C + C.T) / 2.0
        eigenvalues, vectors = _kernels._eigen_in_place(C.copy(), 3)
        top = eigenvalues[:3]
        assert np.abs(top - np.linspace(-0.5, 1.0, n)[::-1][:3]).max() < 1e-12
        assert np.abs(C @ vectors - vectors * top).max() < 1e-10
        assert np.abs(vectors.T @ vectors - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("layout", [np.asfortranarray, np.transpose])
    def test_any_memory_layout_of_the_input(self, layout):
        pts = np.random.default_rng(62).standard_normal((30, 3))
        D = pairwise(pts)
        expect = classical_mds(D, dims=2)
        emb = classical_mds(layout(D), dims=2)
        assert emb.coordinates.tobytes() == expect.coordinates.tobytes()
        assert emb.eigenvalues.tobytes() == expect.eigenvalues.tobytes()

    def test_eigh_fallback_matches_lapack_path(self, monkeypatch):
        rng = np.random.default_rng(60)
        pts = rng.standard_normal((50, 3)) * [3.0, 2.0, 1.0]
        D = pairwise(pts)
        lapack = classical_mds(D, dims=3)
        monkeypatch.setattr(_kernels, "_lapack", lambda: None)
        fallback = classical_mds(D, dims=3)
        assert np.abs(fallback.coordinates - lapack.coordinates).max() < 1e-8
        assert np.abs(fallback.eigenvalues - lapack.eigenvalues).max() < 1e-8

    @pytest.mark.parametrize("routine", _kernels.LAPACK_ROUTINES)
    def test_nonzero_lapack_info_raises(self, monkeypatch, routine):
        bound = _kernels._lapack()
        if bound is None:
            pytest.skip("numpy links a LAPACK without the bundled routines")

        def failing(*args):
            bound[routine](*args)
            info = next(a for a in reversed(args) if hasattr(a, "_obj"))
            info._obj.value = 3

        monkeypatch.setattr(_kernels, "_lapack",
                            lambda: {**bound, routine: failing})
        with pytest.raises(InvariantViolation, match=f"{routine} returned "
                                                     "info=3"):
            classical_mds(np.ones((5, 5)) - np.eye(5), dims=2)

    def test_single_object_has_no_dimensions(self):
        with pytest.warns(CumbiaWarning, match="only 0 positive"):
            emb = classical_mds(np.zeros((1, 1)), dims=2)
        assert emb.dims_used == 0 and emb.shortfall
        assert emb.coordinates.shape == (1, 0)
        assert emb.eigenvalues.tolist() == [0.0]

    def test_shortfall_keeps_every_positive_direction(self):
        pts = np.random.default_rng(54).standard_normal((10, 2))
        with pytest.warns(CumbiaWarning, match="only 2 positive"):
            emb = classical_mds(pairwise(pts), dims=4)
        assert emb.dims_used == 2 and emb.shortfall
        assert np.abs(pairwise(emb.coordinates) - pairwise(pts)).max() < 1e-8

    def test_traced_peak_below_one_and_a_quarter_buffers(self):
        # full eigh held the Gram matrix and n x n eigenvectors (2 buffers)
        n = 1000
        pts = np.random.default_rng(56).standard_normal((n, 5))
        D = pairwise(pts)
        emb, peak = traced_peak(lambda: classical_mds(D, dims=3))
        assert emb.dims_used == 3
        assert peak <= 1.25 * n * n * 8, f"peak {peak / (n * n * 8):.2f} buffers"


# prints a call's resident peak above the pre-call RSS on wide_run's
# input, z-scored synth_block(N, p), in float64 buffers of the size its
# guard counts, and the guard's estimate in those buffers, both read as
# tools/wide_run.py reads them
RESIDENT_PEAK_SCRIPT = """
import warnings
from wide_run import peak_rss_bytes, rss_bytes, wide_input
from cumbia import CumbiaWarning, bicluster, cumbia, embedding, shave
warnings.simplefilter("ignore", CumbiaWarning)
N, p = {shape}
Z = wide_input(N, p)
before = rss_bytes()
{call}
print((peak_rss_bytes() - before) / (8 * {cells}), {bound})
"""


class TestMemoryGuard:
    def test_too_large_for_memory_raises_up_front(self, monkeypatch):
        # 60 x 20,000 needs about 3.4 GiB (16.2 GiB where the eigh fallback
        # runs); refuse before any SVD or kernel
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: 3 * 2**30)
        monkeypatch.setattr(dissimilarity, "svd", None)
        X = np.zeros((60, 20000))
        need = embedding._resident_peak_buffers() * 20060**2 * 8
        with pytest.raises(ParameterError,
                           match=re.escape(matrix_core._size(need))
                           + r".*3\.0 GiB"):
            cumbia(X)
        if _kernels._lapack() is not None:
            assert matrix_core._size(need) == "3.4 GiB"

    def test_estimate_scales_with_squared_object_count(self, monkeypatch):
        n = 4 + 6
        need = embedding._resident_peak_buffers() * n * n * 8
        X = np.random.default_rng(42).standard_normal((4, 6))
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: int(need) - 1)
        with pytest.raises(ParameterError, match="physical memory"):
            cumbia(X, dims=2)
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: int(need) + 1)
        assert cumbia(X, dims=2).coordinates.shape == (n, 2)

    def test_eigh_fallback_has_its_own_estimate(self, monkeypatch):
        n = 4 + 6
        need = embedding.EIGH_RESIDENT_PEAK_BUFFERS * n * n * 8
        X = np.random.default_rng(46).standard_normal((4, 6))
        monkeypatch.setattr(_kernels, "_lapack", lambda: None)
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: int(need) - 1)
        with pytest.raises(ParameterError, match="physical memory"):
            cumbia(X, dims=2)
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes",
                            lambda: int(need) + 1)
        assert cumbia(X, dims=2).coordinates.shape == (n, 2)

    @staticmethod
    def installed():
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    @pytest.mark.parametrize("version", [0, 1], ids=["v2", "v1"])
    def test_a_cgroup_limit_below_installed_memory_counts(self, monkeypatch,
                                                          version):
        path = matrix_core.CGROUP_MEMORY_LIMITS[version]
        monkeypatch.setattr(matrix_core, "_first_line",
                            lambda p: "1073741824" if p == path else None)
        assert matrix_core._physical_memory_bytes() == min(
            2**30, self.installed())
        monkeypatch.setattr(matrix_core, "_first_line",
                            lambda p: "100" if p == path else None)
        X = np.random.default_rng(47).standard_normal((4, 6))
        with pytest.raises(ParameterError, match="the 0 MiB of physical"):
            cumbia(X, dims=2)

    @pytest.mark.parametrize("texts", [("max", "9223372036854771712"),
                                       (None, None), ("max", None)],
                             ids=["no-limit", "missing", "v2-only"])
    def test_no_cgroup_limit_leaves_installed_memory(self, monkeypatch,
                                                     texts):
        limits = dict(zip(matrix_core.CGROUP_MEMORY_LIMITS, texts))
        monkeypatch.setattr(matrix_core, "_first_line", limits.get)
        assert matrix_core._physical_memory_bytes() == self.installed()

    def test_limit_reader_takes_the_first_line(self, tmp_path):
        limit = tmp_path / "memory.limit_in_bytes"
        limit.write_text("1073741824\nignored\n")
        assert matrix_core._first_line(str(limit)) == "1073741824"
        assert matrix_core._first_line(str(tmp_path / "missing")) is None

    def test_unknown_memory_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(matrix_core, "_physical_memory_bytes", lambda: None)
        X = np.random.default_rng(44).standard_normal((4, 6))
        assert cumbia(X, dims=2).coordinates.shape == (10, 2)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="the RSS is read from /proc/self")
    @pytest.mark.parametrize("shape, call, cells, bound", [
        ((100, 3000), "cumbia(Z, dims=3)", "(N + p) ** 2",
         "embedding._resident_peak_buffers()"),
        ((60, 1500), "shave(Z)", "N * p",
         "bicluster._peak_buffers((N, p), 3)"),
    ], ids=["cumbia", "shave"])
    def test_resident_peak_is_within_the_estimate(self, shape, call, cells,
                                                  bound):
        # the peak is the whole process's, so the call gets a fresh one
        script = RESIDENT_PEAK_SCRIPT.format(shape=shape, call=call,
                                             cells=cells, bound=bound)
        res = subprocess.run([sys.executable, "-c", script],
                             env=child_env(TOOLS), capture_output=True,
                             text=True)
        assert res.returncode == 0, res.stderr
        peak, bound = map(float, res.stdout.split())
        assert peak <= bound, f"resident peak {peak:.3f} buffers"


class TestPcaBiplot:
    def test_diagonal_analytic(self):
        bp = pca_biplot(DataMatrix(np.diag([2.0, 1.0])), s=2, alpha=1.0)
        assert np.allclose(np.abs(bp.sample_coords), np.diag([2.0, 1.0]))
        assert np.allclose(np.abs(bp.variable_coords), np.eye(2))
        rebuilt = bp.sample_coords @ bp.variable_coords.T
        assert np.abs(rebuilt - np.diag([2.0, 1.0])).max() < 1e-12

    def test_truncated_product_reconstructs_low_rank(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((8, 6))
        from cumbia import svd, truncate

        f = svd(A)
        bp = pca_biplot(DataMatrix(A), s=3, alpha=0.5)
        assert np.abs(bp.sample_coords @ bp.variable_coords.T
                      - truncate(f, 3)).max() < 1e-8

    @pytest.mark.parametrize("s", [5, None], ids=["s5", "full"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_variable_block_bytes_are_the_scaled_v(self, alpha, s):
        # scaled in place in svd's V, or in a copy of its first s columns:
        # the same products as a new array
        A = np.random.default_rng(36).standard_normal((40, 600))
        f = svd(A)
        bp = pca_biplot(DataMatrix(A), s=s, alpha=alpha)
        expect = f.V[:, :s] * f.singular_values[:s] ** (1.0 - alpha)
        assert bp.variable_coords.tobytes() == expect.tobytes()

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

    @pytest.mark.parametrize("spectrum, mode, total", [
        ([1e154, 1e154, 1.0], "singular-values", "squared spectrum"),
        ([1e308, 1e308, -1.0], "eigenvalues",
         "sum of the positive eigenvalues"),
    ])
    def test_totals_beyond_float64_rejected(self, spectrum, mode, total):
        # each value is finite, but not the total the fractions divide by
        with pytest.raises(ParameterError,
                           match=f"the {total} overflows float64"):
            scree(spectrum, mode)


class TestCumbiaPipeline:
    def test_identity_pairs_coincide_across_kinds(self):
        # the 4-object joint matrix of the 2x2 identity makes sample i and
        # variable i indistinguishable (identical dissimilarity rows), so
        # each sample lands on its variable partner, while the two samples
        # stay a unit apart; the eigensolver leaves ulp-level noise, hence
        # tolerances
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

    @pytest.mark.parametrize("zscored", [False, True], ids=["raw", "zscored"])
    def test_traced_peak_below_one_point_two_buffers(self, zscored):
        # the joint matrix is built, squared, centered and read by the
        # eigensolver in one (N+p)^2 buffer; beside it live only one
        # contiguous copy of D_sv and each kernel worker's fixed scratch
        # (1.17-1.18 here). A separate D_sv, the SVD factors and a row
        # buffer per worker read 1.25 raw and 1.21 z-scored (Fortran order)
        X = np.random.default_rng(57).standard_normal((40, 960))
        if zscored:
            X = zscore_variables(DataMatrix(X))
        buffer = 8 * 1000 * 1000
        emb, peak = traced_peak(lambda: cumbia(X, dims=3))
        assert emb.coordinates.shape == (1000, 3)
        assert peak <= 1.2 * buffer, f"peak {peak / buffer:.3f} buffers"

    @pytest.mark.parametrize("cfg, duplicates", [
        (CumbiaConfig(), False),
        (CumbiaConfig(), True),
        (CumbiaConfig(s=3, k_samples=2, k_variables=4), True),
    ], ids=["default", "duplicates", "truncated-duplicates"])
    def test_input_layout_keeps_the_bytes(self, cfg, duplicates):
        # C order, Fortran order (zscore_variables' output) and a strided
        # view: D_sv is written into the joint buffer whatever the layout.
        # At full rank the duplicates form groups; the rank-3 truncation
        # does not reproduce them bit for bit
        A = np.random.default_rng(59).standard_normal((12, 40))
        if duplicates:
            A[[5, 9]] = A[2]
            A[:, [7, 30]] = A[:, [3, 3]]
        wide = np.zeros((12, 80))
        wide[:, 1::2] = A
        layouts = [np.ascontiguousarray(A), np.asfortranarray(A),
                   wide[:, 1::2]]
        got = [cumbia(M, cfg, dims=3) for M in layouts]
        for emb in got[1:]:
            assert emb.coordinates.tobytes() == got[0].coordinates.tobytes()
            assert emb.eigenvalues.tobytes() == got[0].eigenvalues.tobytes()

    def test_rejects_missing_values(self):
        A = np.ones((3, 3))
        A[0, 0] = np.nan
        with pytest.raises(InputError):
            cumbia(A, CumbiaConfig(), dims=2)

    def test_the_joint_matrix_is_squared_unchecked(self, monkeypatch):
        # joint_matrix writes it finite and bitwise symmetric; only the
        # matrices handed to double_center and classical_mds are checked
        calls = []
        monkeypatch.setattr(embedding, "_require_symmetric",
                            lambda V: calls.append(V.shape))
        cumbia(np.random.default_rng(62).standard_normal((6, 9)), dims=2)
        assert calls == []
        classical_mds(np.ones((3, 3)) - np.eye(3), 2)
        assert calls == [(3, 3)]
