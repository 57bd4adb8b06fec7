"""Search results stay bit-identical: `tools/result_digest.py` at 20 iterations.

A change that is meant to change search results updates DIGEST_20 and says
so in CHANGES.md; any other change must leave the digest as it is.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_20 = "2b491449adbe7964971545d9b11f5cf7fc4fbdf39327207d63cfab9a42fa8bc2"


def test_result_digest_unchanged():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "result_digest.py"), "--iterations", "20"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == DIGEST_20


def test_result_digest_expect_fails_on_a_mismatch():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "result_digest.py"), "--iterations", "1",
         "--expect", "0" * 64],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1
    assert "0" * 64 in out.stdout
