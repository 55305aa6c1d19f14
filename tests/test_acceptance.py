"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines. Several
criteria carry wall-clock budgets, asserted here alongside the numerical
claims.
"""

import time
import warnings

import numpy as np
import pytest

from cumbia import (
    CumbiaConfig,
    CumbiaWarning,
    DataMatrix,
    classical_mds,
    cumbia,
    graph_oracle,
    joint_matrix,
    pca_biplot,
    shave,
    svd,
    synth_block,
    truncate,
    zscore_variables,
)
from cumbia._kernels import pair_mean_k_smallest


ACCEPTANCE_LINES = []


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} [{name}]: {status}{suffix}"
    # shown inline with -s; the conftest summary hook reprints all lines
    # after the run, outside pytest's output capture
    ACCEPTANCE_LINES.append(line)
    print(line)


def pairwise(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def separation_gap(values, member_mask):
    inside = values[member_mask]
    outside = values[~member_mask]
    return max(outside.min() - inside.max(), inside.min() - outside.max())


def test_criterion_1_low_rank_error_identity():
    """Rank-s truncation error matches the tail of the squared spectrum."""
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        p = int(rng.integers(2, 61))
        A = rng.standard_normal((n, p))
        f = svd(A)
        for s in range(1, f.r + 1):
            err_sq = np.linalg.norm(A - truncate(f, s)) ** 2
            tail = float(np.sum(f.singular_values[s:] ** 2))
            scale = max(tail, np.linalg.norm(A) ** 2 * 1e-16)
            worst = max(worst, abs(err_sq - tail) / scale)
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 10
    report(1, "low-rank error identity", ok,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 10


def test_criterion_2_biplot_exactness():
    """Full-rank biplot product reconstructs X; alpha=1 keeps distances."""
    start = time.time()
    rng = np.random.default_rng(202)
    worst_prod = 0.0
    worst_dist = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 21))
        p = int(rng.integers(3, 26))
        A = rng.standard_normal((n, p))
        for alpha in (0.0, 0.5, 1.0):
            bp = pca_biplot(DataMatrix(A), alpha=alpha)
            worst_prod = max(
                worst_prod,
                np.abs(bp.sample_coords @ bp.variable_coords.T - A).max(),
            )
        bp = pca_biplot(DataMatrix(A), alpha=1.0)
        worst_dist = max(
            worst_dist,
            np.abs(pairwise(bp.sample_coords) - pairwise(A)).max(),
        )
    elapsed = time.time() - start
    ok = worst_prod < 1e-8 and worst_dist < 1e-8 and elapsed < 5
    report(2, "biplot exactness", ok,
           f"product err {worst_prod:.2e}, distance err {worst_dist:.2e}, "
           f"{elapsed:.1f}s")
    assert worst_prod < 1e-8
    assert worst_dist < 1e-8
    assert elapsed < 5


def test_criterion_3_mds_recovery():
    """Classical MDS reproduces Euclidean distance matrices exactly."""
    start = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 16))
        d = int(rng.integers(1, 5))
        pts = rng.standard_normal((n, d))
        D = pairwise(pts)
        emb = classical_mds(D, dims=d)
        worst = max(worst, np.abs(pairwise(emb.coordinates) - D).max())
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 5
    report(3, "classical MDS recovery", ok,
           f"worst err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 5


def test_criterion_4_oracle_equivalence():
    """Closed-form joint matrix equals the brute-force graph oracle exactly."""
    start = time.time()
    rng = np.random.default_rng(404)
    all_equal = True
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(2, 13))
        A = rng.standard_normal((n, p))
        X = DataMatrix(A)
        f = svd(X)
        lam1 = float(f.singular_values[0])
        for K in (1, 2, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CumbiaWarning)
                J = joint_matrix(X, f, CumbiaConfig(k_samples=K))
                O = graph_oracle(A, lam1, K)
            checked += 1
            if J.values.tobytes() != O.values.tobytes():
                all_equal = False
    elapsed = time.time() - start
    ok = all_equal and elapsed < 10
    report(4, "graph oracle equivalence", ok,
           f"{checked} joint matrices bit-compared, {elapsed:.1f}s")
    assert all_equal
    assert elapsed < 10


def test_criterion_5_dissimilarity_invariants():
    """Symmetry, zero diagonal, nonnegativity, off-block algebraic identity."""
    start = time.time()
    rng = np.random.default_rng(505)
    ok = True
    detail = ""
    for trial in range(100):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(2, 15))
        A = rng.standard_normal((n, p))
        X = DataMatrix(A)
        f = svd(X)
        K = int(rng.integers(1, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CumbiaWarning)
            J = joint_matrix(X, f, CumbiaConfig(k_samples=K))
        V = J.values
        lam1 = float(f.singular_values[0])
        off = V[:n, n:]
        checks = [
            np.abs(V - V.T).max() <= 1e-12,
            np.all(np.diag(V) == 0.0),
            V.min() >= 0.0,
            np.abs(off**2 + A - lam1).max() < 1e-12 * max(lam1, 1.0),
        ]
        if not all(checks):
            ok = False
            detail = f"trial {trial} failed {checks}"
            break
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    report(5, "dissimilarity invariants", ok,
           detail or f"100 matrices, {elapsed:.1f}s")
    assert ok
    assert elapsed < 30


def _planted_block_runs():
    """Shared runs for criteria 6 and 7: ten seeded planted-block instances."""
    runs = []
    for seed in range(10):
        X, _ = synth_block(seed=seed)
        Z = zscore_variables(X)
        emb = cumbia(Z, CumbiaConfig(k_samples=3), dims=3)
        f = svd(Z)
        pc_scores = f.U[:, :3] * f.singular_values[:3]
        runs.append((emb, pc_scores, Z))
    return runs


@pytest.fixture(scope="module")
def planted_block_runs():
    start = time.time()
    runs = _planted_block_runs()
    elapsed = time.time() - start
    return runs, elapsed


def test_criterion_6_planted_block_separation(planted_block_runs):
    """Component 1 isolates planted samples and variables; PCA does not."""
    runs, elapsed = planted_block_runs
    N, n_pl, p_pl = 60, 6, 25
    cumbia_hits = 0
    pca_nonsep_hits = 0
    sample_gaps = []
    variable_gaps = []
    for emb, pc_scores, _ in runs:
        c1 = emb.coordinates[:, 0]
        s_mask = np.zeros(emb.coordinates.shape[0], dtype=bool)
        s_mask[:n_pl] = True
        s_gap = separation_gap(c1[:N], s_mask[:N])
        v_mask = np.zeros(emb.coordinates.shape[0] - N, dtype=bool)
        v_mask[:p_pl] = True
        v_gap = separation_gap(c1[N:], v_mask)
        sample_gaps.append(s_gap)
        variable_gaps.append(v_gap)
        if s_gap > 0 and v_gap > 0:
            cumbia_hits += 1
        planted = np.zeros(N, dtype=bool)
        planted[:n_pl] = True
        pca_separates = any(
            separation_gap(pc_scores[:, k], planted) > 0 for k in range(3)
        )
        if not pca_separates:
            pca_nonsep_hits += 1
    ok = cumbia_hits >= 9 and pca_nonsep_hits >= 9 and elapsed < 300
    sample_sep = sum(g > 0 for g in sample_gaps)
    variable_sep = sum(g > 0 for g in variable_gaps)
    report(
        6, "planted-block separation vs PCA", ok,
        f"joint separation {cumbia_hits}/10 (samples alone {sample_sep}/10, "
        f"variables alone {variable_sep}/10), PCA non-separation "
        f"{pca_nonsep_hits}/10, need 9/10 each, {elapsed:.0f}s",
    )
    assert cumbia_hits >= 9, (
        f"component-1 separation of both planted kinds held on "
        f"{cumbia_hits}/10 seeds (samples alone {sample_sep}/10, variables "
        f"alone {variable_sep}/10, worst variable gap "
        f"{min(variable_gaps):+.3f})"
    )
    assert pca_nonsep_hits >= 9, (
        f"PCA non-separation held on {pca_nonsep_hits}/10 seeds"
    )
    assert elapsed < 300


def test_criterion_7_negative_eigenvalue_kind_split(planted_block_runs):
    """The spectrum has a negative tail whose extreme eigenvector splits kinds."""
    from cumbia.embedding import double_center

    runs, _ = planted_block_runs
    all_have_negative = True
    purities = []
    # Embedding keeps eigenvalues but not eigenvectors, so recompute the
    # centered Gram matrix per run and take the most-negative eigenvector.
    for emb, _, Z in runs:
        if emb.eigenvalues.min() >= 0:
            all_have_negative = False
            purities.append(0.0)
            continue
        f = svd(Z)
        D = joint_matrix(Z, f, CumbiaConfig(k_samples=3))
        C = double_center(D.values)
        evals, evecs = np.linalg.eigh(C)
        vec = evecs[:, int(np.argmin(evals))]
        kinds = np.array([k == "sample" for k in D.object_kinds])
        pos = vec > 0
        purities.append(max((pos == kinds).mean(), (pos == ~kinds).mean()))
    min_purity = min(purities)
    ok = all_have_negative and min_purity > 0.95
    report(7, "negative eigenvalue splits kinds", ok,
           f"negative eigenvalue on 10/10, worst sign purity {min_purity:.3f}")
    assert all_have_negative
    assert min_purity > 0.95


def test_criterion_8_shave_recovers_planted_block():
    """Backward elimination homes in on the planted block of a 30x200 matrix."""
    start = time.time()
    n_pl, p_pl = 6, 20
    X, _ = synth_block(N=30, p=200, n_planted=n_pl, p_planted=p_pl, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CumbiaWarning)
        trace = shave(X, CumbiaConfig(k_samples=3), k0=3, drop_fraction=0.1)
    target = None
    for step in trace.steps:
        if (step.sample_indices.size < 2 * n_pl
                and step.variable_indices.size < 2 * p_pl):
            target = step
            break
    elapsed = time.time() - start
    found = target is not None
    recall = 0.0
    sizes = "none"
    if found:
        hits = (np.isin(np.arange(n_pl), target.sample_indices).sum()
                + np.isin(np.arange(p_pl), target.variable_indices).sum())
        recall = hits / (n_pl + p_pl)
        sizes = f"{target.sample_indices.size}x{target.variable_indices.size}"
    ok = found and recall >= 0.8 and elapsed < 120
    report(8, "shave recovers planted block", ok,
           f"step {sizes}, planted objects kept {recall:.3f}, {elapsed:.0f}s")
    assert found, "no trace step fell below twice the planted sizes"
    assert recall >= 0.8
    assert elapsed < 120


def test_criterion_9_determinism():
    """Joint matrices, embeddings, and shave traces repeat bit-for-bit."""
    import os
    import subprocess
    import sys

    start = time.time()

    def run_once():
        X, _ = synth_block(N=20, p=60, n_planted=4, p_planted=10, seed=7)
        f = svd(X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CumbiaWarning)
            J = joint_matrix(X, f, CumbiaConfig(k_samples=3))
            emb = cumbia(X, CumbiaConfig(k_samples=3), dims=3)
            trace = shave(X, CumbiaConfig(k_samples=3), k0=3,
                          drop_fraction=0.1)
        blobs = [J.values.tobytes(), emb.coordinates.tobytes(),
                 emb.eigenvalues.tobytes()]
        for step in trace.steps:
            blobs.append(step.sample_indices.tobytes())
            blobs.append(step.variable_indices.tobytes())
            blobs.append(step.sample_scores.tobytes())
            blobs.append(step.variable_scores.tobytes())
        return b"".join(blobs)

    first = run_once()
    repeat_ok = all(run_once() == first for _ in range(2))

    # thread-count variation in a fresh interpreter must not change bytes
    script = (
        "import hashlib, warnings\n"
        "from cumbia import (CumbiaConfig, CumbiaWarning, cumbia,\n"
        "                    joint_matrix, shave, svd, synth_block)\n"
        "X, _ = synth_block(N=20, p=60, n_planted=4, p_planted=10, seed=7)\n"
        "f = svd(X)\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore', CumbiaWarning)\n"
        "    J = joint_matrix(X, f, CumbiaConfig(k_samples=3))\n"
        "    emb = cumbia(X, CumbiaConfig(k_samples=3), dims=3)\n"
        "print(hashlib.sha256(J.values.tobytes()\n"
        "                     + emb.coordinates.tobytes()).hexdigest())\n"
    )
    # the child imports cumbia from this checkout's src, wherever it runs
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    threads_ok = len(digests) == 1

    elapsed = time.time() - start
    ok = repeat_ok and threads_ok
    report(9, "bit-for-bit determinism", ok,
           f"repeats {'=' if repeat_ok else '!='}, thread counts "
           f"{'=' if threads_ok else '!='}, {elapsed:.0f}s")
    assert repeat_ok, "repeated runs differ"
    assert threads_ok, "thread-count variation changed output bytes"
