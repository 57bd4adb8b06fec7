"""`tools/variant_table.py` at a tiny size: its table, its saved runs, its pairing
and its quality gate."""

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


def test_against_fails_on_a_cell_more_than_2_se_below_zero(tmp_path):
    saved = tmp_path / "table.json"
    assert variant_table("--seeds", "2", "--out", str(saved)).returncode == 0
    table = json.loads(saved.read_text(encoding="utf-8"))
    # the saved side of one cell reads 0.5 higher, so this tree's paired
    # difference there is -0.5 at every run, with an SE of 0
    for run_id in table["60"]:
        if "-no_dist-" in run_id:
            table["60"][run_id] += 0.5
    saved.write_text(json.dumps(table), encoding="utf-8")

    out = variant_table("--seeds", "2", "--against", str(saved))
    assert out.returncode == 1
    assert out.stderr.splitlines() == [
        "worse: 60 iterations, no_dist: -0.500 ± 0.000, more than 2 SE below zero"]

    # one run per cell has no standard error, so it cannot pass the gate
    assert variant_table("--seeds", "1", "--out", str(saved)).returncode == 0
    out = variant_table("--seeds", "1", "--against", str(saved))
    assert out.returncode == 2
    assert "needs at least 2 runs per cell" in out.stderr
