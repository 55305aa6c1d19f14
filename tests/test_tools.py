import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.skipif(not os.path.exists("/proc/meminfo"),
                    reason="wide_run.py reads /proc/meminfo")
@pytest.mark.parametrize("flags, stages", [
    ([], {"joint_matrix", "svd", "sample_variable_diss",
          "identical_index_groups", "within_kind_diss.samples",
          "within_kind_diss.variables", "symmetry_check",
          "double_center_in_place", "embed_gram", "eigen_in_place",
          "other"}),
    (["--shave"], {"svd", "sample_variable_diss", "identical_index_groups",
                   "k0_scores.samples", "k0_scores.variables", "other"}),
], ids=["cumbia", "shave"])
def test_wide_run_times_every_stage(tmp_path, flags, stages):
    # a stage whose wrapped binding the call no longer goes through would
    # silently drop out of stage_s
    out = tmp_path / "wide.json"
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "wide_run.py"),
         "--out", str(out), "--shape", "8", "30", *flags],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    (run,) = json.loads(out.read_text())["runs"]
    assert set(run["stage_s"]) == stages
