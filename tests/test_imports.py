import subprocess
import sys

from measure import child_env

# scipy.linalg alone takes about 0.3 s to import, concurrent.futures
# about 6 ms; neither is needed by the pipeline
CHILD = """
import sys
import cumbia
X, _ = cumbia.synth_block(12, 30, seed=0)
cumbia.cumbia(cumbia.zscore_variables(X), dims=2)
cumbia.shave(X, k0=3, drop_fraction=0.2)
cumbia.pca_biplot(X)
heavy = sorted(m for m in sys.modules
               if m == "scipy" or m.startswith("scipy.")
               or m == "concurrent.futures")
print(",".join(heavy))
"""


def test_pipeline_imports_no_scipy_or_executor():
    result = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True,
        env=child_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "", (
        f"heavy modules imported: {result.stdout.strip()}")
