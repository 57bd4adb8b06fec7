"""The benchmark still runs on this source tree.

`searchbench/tracing.py` wraps planu's functions and methods by name, and
its workloads call planu's public functions, so renaming one or changing
its signature breaks the benchmark. Traced runs of these two workloads
install every wrapper and check quantile trees, scalar trees and the CLI's
artifacts. Each workload runs on its own: `--workload all` does not print
the verdict line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["bw-curiosity", "sweep-mixed"])
def test_traced_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "searchbench/run.py", "--workload", workload, "--seed", "99",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.splitlines()[-1])
    assert verdict["correct"] is True, proc.stdout
    assert verdict["failed"] == 0
