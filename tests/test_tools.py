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
          "within_kind_diss.variables", "double_center_in_place",
          "embed_gram", "eigen_in_place", "other"}),
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
    # "other" excludes only the outermost stages, so nested ones are not
    # subtracted twice
    assert 0 <= run["stage_s"]["other"] <= run["call_s"]


# touches 256 MiB, then runs wide_run.py at 8 x 30 in a child process
LARGE_PARENT_SCRIPT = """
import subprocess, sys
held = b"x" * 2**28
subprocess.run(sys.argv[1:], check=True, capture_output=True)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="wide_run.py reads /proc/self/status")
def test_wide_run_peak_is_its_own_process(tmp_path):
    # Linux keeps ru_maxrss across execve, so a peak read from it would be
    # the larger parent's 256 MiB, not this 8 x 30 call's
    out = tmp_path / "wide.json"
    res = subprocess.run(
        [sys.executable, "-c", LARGE_PARENT_SCRIPT, sys.executable,
         os.path.join(ROOT, "tools", "wide_run.py"), "--out", str(out),
         "--shape", "8", "30"], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    (run,) = json.loads(out.read_text())["runs"]
    peak = run["resident_peak_buffers"] * 8 * 38**2
    assert peak < 64 * 2**20, f"resident peak {peak / 2**20:.1f} MiB"


def test_src_lines_sum_to_each_module_line_count():
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "src_lines.py")],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in res.stdout.splitlines()[1:]]
    wc = 0
    for name, *counts, lines in rows[:-1]:
        path = os.path.join(ROOT, "src", "cumbia", name)
        with open(path, "rb") as handle:
            newlines = handle.read().count(b"\n")
        assert sum(map(int, counts)) == int(lines) == newlines, name
        wc += newlines
    name, *counts, lines = rows[-1]
    assert name == "total" and sum(map(int, counts)) == int(lines) == wc
    modules = sorted(name for name in os.listdir(os.path.join(ROOT, "src",
                                                              "cumbia"))
                     if name.endswith(".py"))
    assert [row[0] for row in rows[:-1]] == modules
