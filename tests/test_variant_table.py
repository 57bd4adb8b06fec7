"""`tools/variant_table.py` at a tiny size: its table, its saved runs and its pairing."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def variant_table(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "variant_table.py"), "--instances", "1", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_variant_table_saves_and_pairs_its_runs(tmp_path):
    saved = tmp_path / "table.json"
    out = variant_table("--seeds", "2", "--out", str(saved))
    assert out.returncode == 0, out.stderr
    assert "success, mean ± SE over 2 (instance, seed) runs" in out.stdout
    assert "| iterations | full | no_dist | no_ucc |" in out.stdout
    table = json.loads(saved.read_text(encoding="utf-8"))
    assert sorted(table) == ["150", "60"]
    for runs in table.values():
        assert sorted(runs) == [f"blocksworld-fr0.4-i00-{v}-s{s}"
                                for v in ("full", "no_dist", "no_ucc") for s in (0, 1)]
        assert all(v in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0) for v in runs.values())

    # a second run repeats the first exactly
    out = variant_table("--seeds", "2", "--against", str(saved))
    assert out.returncode == 0, out.stderr
    paired = out.stdout.split("paired difference")[1]
    assert paired.count("+0.000 ± 0.000") == 6

    out = variant_table("--seeds", "1", "--against", str(saved))
    assert out.returncode == 2
    assert "holds other runs than this table" in out.stderr
