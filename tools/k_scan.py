"""Planted-block recovery as k_variables varies, by criterion 6's rule.

    python3 tools/k_scan.py

For each k_variables in K_VALUES runs cumbia(Z, CumbiaConfig(k_samples=3,
k_variables=k), dims=3) on Z = zscore_variables(synth_block(seed=s)),
60 x 1500 with a 6 x 25 planted block, for the seeds in SEEDS. Whether a
seed counts as recovered is decided by planted_recovery in
tests/test_acceptance.py, criterion 6's own rule: component 1 separates
the planted samples (sample gap > 0) and, of the 25 variables furthest
toward them, at least 0.8 times as many are planted as among the 25
largest planted-row means of Z. Prints a Markdown table: recovered seeds
and the worst sample gap per k_variables, then every seed's gap.
"""

import os
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from cumbia import (  # noqa: E402
    CumbiaConfig, CumbiaWarning, cumbia, synth_block, zscore_variables)
from test_acceptance import planted_recovery  # noqa: E402

K_VALUES = (1, 2, 3, 4, 5, 6, 8, 12)
SEEDS = range(10)


def main():
    warnings.simplefilter("ignore", CumbiaWarning)
    inputs = [zscore_variables(synth_block(seed=s)[0]) for s in SEEDS]
    results = {}
    for k in K_VALUES:
        config = CumbiaConfig(k_samples=3, k_variables=k)
        results[k] = [
            planted_recovery(cumbia(Z, config, dims=3).coordinates, Z)
            for Z in inputs]
    print("| `k_variables` | " + " | ".join(map(str, K_VALUES)) + " |")
    print("|---" * (len(K_VALUES) + 1) + "|")
    print(f"| recovered /{len(SEEDS)} | " + " | ".join(
        str(sum(r[3] for r in results[k])) for k in K_VALUES) + " |")
    print("| worst sample gap | " + " | ".join(
        f"{min(r[0] for r in results[k]):+.2f}" for k in K_VALUES) + " |")
    for k in K_VALUES:
        print(f"k_variables={k}: " + " ".join(
            f"{r[0]:+.2f}" for r in results[k]))


if __name__ == "__main__":
    main()
