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
    joint_matrix,
    pca_biplot,
    shave,
    svd,
    synth_block,
    truncate,
    zscore_variables,
)
from cumbia import _kernels
from cumbia._kernels import pair_mean_k_smallest

from measure import child_env
from oracle import graph_oracle


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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            emb = classical_mds(D, dims=d)
        # n centred points span n - 1 dimensions: asking for more warns
        assert [str(w.message) for w in caught] == (
            [f"only {n - 1} positive eigenvalues for {d} requested dimensions"]
            if n <= d else [])
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
    inputs = [np.eye(2)] + [
        rng.standard_normal((rng.integers(2, 9), rng.integers(2, 13)))
        for _ in range(20)]
    for A in inputs:
        X = DataMatrix(A)
        f = svd(X)
        lam1 = float(f.singular_values[0])
        for K in (1, 2, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CumbiaWarning)
                J = joint_matrix(X, CumbiaConfig(k_samples=K))
                O = graph_oracle(A, lam1, K)
            checked += 1
            if J.tobytes() != O.tobytes():
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
            J = joint_matrix(X, CumbiaConfig(k_samples=K))
        V = J
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
        runs.append((emb, pc_scores, f.V[:, :3], Z))
    return runs


@pytest.fixture(scope="module")
def planted_block_runs():
    start = time.time()
    runs = _planted_block_runs()
    elapsed = time.time() - start
    return runs, elapsed


def planted_in_top(scores, n_planted):
    """How many of the first n_planted indices are among the n_planted largest."""
    top = np.argsort(-scores, kind="stable")[:n_planted]
    return int((top < n_planted).sum())


def planted_recovery(coordinates, Z, n_planted=6, p_planted=25):
    """Criterion 6's rule on one seed, from component 1 of a cumbia()
    embedding of Z whose first n_planted samples and p_planted variables
    are planted: (sample gap, planted among the p_planted variables
    furthest toward the planted samples, the oracle's count, recovered)."""
    N = Z.n_samples
    planted = np.arange(N) < n_planted
    samples, variables = coordinates[:N, 0], coordinates[N:, 0]
    s_gap = separation_gap(samples, planted)
    side = np.sign(samples[planted].mean() - samples[~planted].mean())
    found = planted_in_top(side * variables, p_planted)
    oracle = planted_in_top(Z.values[planted].mean(axis=0), p_planted)
    return s_gap, found, oracle, bool(s_gap > 0 and found >= 0.8 * oracle)


def test_criterion_6_planted_block_separation(planted_block_runs):
    """Component 1 isolates the planted samples and ranks the planted variables.

    On >= 9/10 seeds component 1 separates the 6 planted samples and, of
    the 25 variables furthest toward them, at least 0.8 times as many are
    planted as an oracle finds among the 25 largest planted-row means of Z
    (the oracle knows which samples are planted, yet even its ranking does
    not separate the planted variables outright on these inputs). On
    >= 9/10 seeds that count beats the best end of PCA loading columns 1-3,
    and component 1 separates the planted samples on more seeds than PCA
    components 1-3.
    """
    runs, elapsed = planted_block_runs
    N, n_pl, p_pl = 60, 6, 25
    planted = np.zeros(N, dtype=bool)
    planted[:n_pl] = True
    rows = []
    for emb, pc_scores, pc_loadings, Z in runs:
        s_gap, found, oracle, hit = planted_recovery(emb.coordinates, Z)
        oracle_scores = Z.values[planted].mean(axis=0)
        rows.append({
            "s_gap": s_gap,
            "cumbia": found,
            "oracle": oracle,
            "recovered": hit,
            "pca": max(planted_in_top(sign * pc_loadings[:, k], p_pl)
                       for k in range(3) for sign in (1, -1)),
            "oracle_gap": separation_gap(
                oracle_scores, np.arange(Z.n_variables) < p_pl
            ),
            "pca_separates": any(
                separation_gap(pc_scores[:, k], planted) > 0 for k in range(3)
            ),
        })
    recovered = [r["recovered"] for r in rows]
    beats_pca = [r["cumbia"] > r["pca"] for r in rows]
    sample_sep = sum(r["s_gap"] > 0 for r in rows)
    pca_sample_sep = sum(r["pca_separates"] for r in rows)
    ok = (sum(recovered) >= 9 and sum(beats_pca) >= 9
          and sample_sep > pca_sample_sep and elapsed < 300)
    per_seed = "; ".join(
        f"{seed}: {r['s_gap']:+.2f} {r['cumbia']}/{r['oracle']}/{r['pca']} "
        f"{r['oracle_gap']:+.2f}"
        for seed, r in enumerate(rows)
    )
    report(
        6, "planted-block recovery vs oracle and PCA", ok,
        f"recovery {sum(recovered)}/10, beats PCA {sum(beats_pca)}/10, "
        f"need 9/10 each; samples separate {sample_sep}/10 vs PCA "
        f"{pca_sample_sep}/10; per seed [sample gap, planted in top "
        f"{p_pl} cumbia/oracle/PCA, oracle gap] {per_seed}; {elapsed:.0f}s",
    )
    failed = [
        f"seed {seed}: sample gap {r['s_gap']:+.3f}, cumbia {r['cumbia']} "
        f"vs 0.8 x oracle {r['oracle']}"
        for seed, (r, hit) in enumerate(zip(rows, recovered)) if not hit
    ]
    assert sum(recovered) >= 9, (
        f"planted-block recovery held on {sum(recovered)}/10 seeds; "
        + "; ".join(failed)
    )
    lost = [
        f"seed {seed}: cumbia {r['cumbia']} vs PCA {r['pca']}"
        for seed, (r, hit) in enumerate(zip(rows, beats_pca)) if not hit
    ]
    assert sum(beats_pca) >= 9, (
        f"cumbia beat PCA on planted variables on {sum(beats_pca)}/10 "
        "seeds; " + "; ".join(lost)
    )
    assert sample_sep > pca_sample_sep, (
        f"component 1 separated the planted samples on {sample_sep}/10 "
        f"seeds, PCA components 1-3 on {pca_sample_sep}/10"
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
    for emb, _, _, Z in runs:
        if emb.eigenvalues.min() >= 0:
            all_have_negative = False
            purities.append(0.0)
            continue
        D = joint_matrix(Z, CumbiaConfig(k_samples=3))
        # the top eigenpair of -C, from the eigensolver cumbia() runs
        vec = _kernels._eigen_in_place(-double_center(D), 1)[1][:, 0]
        kinds = np.array([k == "sample" for k in Z.objects()[0]])
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
    import subprocess
    import sys

    start = time.time()

    def run_once():
        X, _ = synth_block(N=20, p=60, n_planted=4, p_planted=10, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CumbiaWarning)
            J = joint_matrix(X, CumbiaConfig(k_samples=3))
            emb = cumbia(X, CumbiaConfig(k_samples=3), dims=3)
            trace = shave(X, CumbiaConfig(k_samples=3), k0=3,
                          drop_fraction=0.1)
        blobs = [J.tobytes(), emb.coordinates.tobytes(),
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
        "                    joint_matrix, shave, synth_block)\n"
        "X, _ = synth_block(N=20, p=60, n_planted=4, p_planted=10, seed=7)\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore', CumbiaWarning)\n"
        "    J = joint_matrix(X, CumbiaConfig(k_samples=3))\n"
        "    emb = cumbia(X, CumbiaConfig(k_samples=3), dims=3)\n"
        "print(hashlib.sha256(J.tobytes()\n"
        "                     + emb.coordinates.tobytes()).hexdigest())\n"
    )
    digests = set()
    for threads in ("1", "2"):
        env = child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
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


def test_criterion_10_planted_low_block_by_negation():
    """A planted low block is found by embedding -Z.

    sqrt(lambda_1 - X_s) pulls a variable only toward the samples where it
    is large, so component 1 of cumbia(Z) does not isolate samples whose
    planted variables are low: each seed's sample gap is reported, which
    pins that limitation. The route the library offers is to embed -Z
    (README "Low values"), and on >= 9/10 seeds of
    synth_block(shift=-2.0) it must meet criterion 6's planted_recovery
    rule.
    """
    start = time.time()
    config = CumbiaConfig(k_samples=3)
    rows = []
    for seed in range(10):
        X, _ = synth_block(shift=-2.0, seed=seed)
        Z = zscore_variables(X)
        as_is = cumbia(Z, config, dims=3)
        negated = DataMatrix(-Z.values, Z.sample_labels, Z.variable_labels)
        flipped = cumbia(negated, config, dims=3)
        z_gap = planted_recovery(as_is.coordinates, Z)[0]
        rows.append((z_gap, *planted_recovery(flipped.coordinates, negated)))
    elapsed = time.time() - start
    recovered = sum(hit for *_, hit in rows)
    ok = recovered >= 9
    per_seed = "; ".join(
        f"{seed}: {z_gap:+.2f} {s_gap:+.2f} {found}/{oracle}"
        for seed, (z_gap, s_gap, found, oracle, _) in enumerate(rows)
    )
    report(
        10, "planted low block recovered on -Z", ok,
        f"recovery on -Z {recovered}/10, need 9/10; samples separate on Z "
        f"{sum(r[0] > 0 for r in rows)}/10; per seed [sample gap on Z, on "
        f"-Z, planted in top 25 cumbia/oracle on -Z] {per_seed}; "
        f"{elapsed:.0f}s",
    )
    failed = [
        f"seed {seed}: sample gap {s_gap:+.3f}, cumbia {found} vs 0.8 x "
        f"oracle {oracle}"
        for seed, (_, s_gap, found, oracle, hit) in enumerate(rows) if not hit
    ]
    assert ok, (f"low-block recovery on -Z held on {recovered}/10 seeds; "
                + "; ".join(failed))
