import numpy as np
import pytest

from cumbia._kernels import pair_mean_k_smallest
from cumbia.errors import ParameterError


def reference(R, K):
    n, m = R.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            sums = sorted(R[i, k] + R[j, k] for k in range(m))
            acc = 0.0
            for t in range(K):
                acc += sums[t]
            out[i, j] = out[j, i] = acc / K
    return out


def test_matches_sorted_reference():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 12))
        R = np.abs(rng.standard_normal((n, m)))
        for K in range(1, m + 1):
            got = pair_mean_k_smallest(R, K)
            assert got.tobytes() == reference(R, K).tobytes()


def test_ties_at_selection_boundary():
    # row sums tie exactly; both selections must produce the same mean
    R = np.array([
        [1.0, 1.0, 1.0, 2.0],
        [1.0, 1.0, 1.0, 2.0],
        [0.5, 0.5, 0.5, 0.5],
    ])
    out = pair_mean_k_smallest(R, 2)
    assert out[0, 1] == 2.0
    assert out[0, 2] == 1.5
    assert out.tobytes() == reference(R, 2).tobytes()


def test_k_equals_m_averages_everything():
    rng = np.random.default_rng(2)
    R = np.abs(rng.standard_normal((4, 5)))
    out = pair_mean_k_smallest(R, 5)
    i, j = 1, 3
    expect = np.sort(R[i] + R[j])
    acc = expect[0]
    for t in range(1, 5):
        acc = acc + expect[t]
    assert out[i, j] == acc / 5


def test_k_out_of_range():
    with pytest.raises(ParameterError):
        pair_mean_k_smallest(np.ones((3, 4)), 5)
    with pytest.raises(ParameterError):
        pair_mean_k_smallest(np.ones((3, 4)), 0)


def test_numpy_path_handles_single_row():
    out = pair_mean_k_smallest(np.ones((1, 4)), 2)
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.0
