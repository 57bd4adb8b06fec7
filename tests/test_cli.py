import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import planu
from planu.cli import (
    SCHEMA_VERSION,
    build_env,
    enumerate_runs,
    execute_run,
    main,
    planner_config,
    run_sweep,
)
from planu.config import DEFAULTS, validate_config
from planu.envs import ENVS, BlocksworldEnv, OvercookedLiteEnv, StockEnv
from planu.planner import VARIANTS

STOCK_CFG = """
env = stock
seeds = 0, 1
variants = full, deterministic_baseline
iterations = 30
"""

BW_CFG = """
env = blocksworld
seeds = 0
variants = full, no_dist
failure_rate = 0.0, 0.2
instances = 2
n_steps = 2
iterations = 40
depth_limit = 6
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def load_cfg(tmp_path, text, **extra):
    cfg = validate_config(write(tmp_path, text))
    cfg.update(extra)
    return cfg


class TestEnumerateRuns:
    def test_stock_grid(self, tmp_path):
        specs = enumerate_runs(load_cfg(tmp_path, STOCK_CFG))
        assert [s.run_id for s in specs] == [
            "stock-full-s0",
            "stock-full-s1",
            "stock-deterministic_baseline-s0",
            "stock-deterministic_baseline-s1",
        ]

    def test_blocksworld_grid_covers_all_axes(self, tmp_path):
        specs = enumerate_runs(load_cfg(tmp_path, BW_CFG))
        assert len(specs) == 2 * 2 * 2  # failure rates x instances x variants
        assert specs[0].run_id == "blocksworld-fr0-i00-full-s0"
        assert {s.failure_rate for s in specs} == {0.0, 0.2}

    def test_run_ids_unique(self, tmp_path):
        specs = enumerate_runs(load_cfg(tmp_path, BW_CFG))
        assert len({s.run_id for s in specs}) == len(specs)


class TestBuildEnvAndConfig:
    def test_env_types(self, tmp_path):
        stock = enumerate_runs(load_cfg(tmp_path, STOCK_CFG))[0]
        assert isinstance(build_env(stock), StockEnv)
        bw = enumerate_runs(load_cfg(tmp_path, BW_CFG))[0]
        assert isinstance(build_env(bw), BlocksworldEnv)
        oc = enumerate_runs(load_cfg(tmp_path, "env = overcooked\n"))[0]
        assert isinstance(build_env(oc), OvercookedLiteEnv)

    def test_same_instance_index_same_instance(self, tmp_path):
        specs = enumerate_runs(load_cfg(tmp_path, BW_CFG))
        same = [s for s in specs if s.instance_index == 0 and s.failure_rate == 0.0]
        texts = {build_env(s).instance_text() for s in same}
        assert len(texts) == 1

    def test_instance_file_used_when_set(self, tmp_path):
        instance = "blocks: a b\ninit: ontable(a) ontable(b) clear(a) clear(b) handempty\ngoal: on(a,b)\n"
        inst_path = tmp_path / "inst.txt"
        inst_path.write_text(instance, encoding="utf-8")
        cfg = load_cfg(tmp_path, BW_CFG, instance_file=str(inst_path))
        env = build_env(enumerate_runs(cfg)[0])
        assert env.blocks == ("a", "b")

    def test_planner_config_reflects_spec(self, tmp_path):
        spec = enumerate_runs(load_cfg(tmp_path, STOCK_CFG))[1]
        pc = planner_config(spec)
        assert pc.iterations == 30
        assert pc.seed == 1
        assert pc.variant == "full"

    def test_auto_output_gain_per_env(self, tmp_path):
        stock = enumerate_runs(load_cfg(tmp_path, STOCK_CFG))[0]
        assert planner_config(stock).rnd_output_gain == 100.0
        bw = enumerate_runs(load_cfg(tmp_path, BW_CFG))[0]
        assert planner_config(bw).rnd_output_gain == 10.0

    def test_explicit_output_gain_wins(self, tmp_path):
        cfg = load_cfg(tmp_path, STOCK_CFG, rnd_output_gain=5.0)
        assert planner_config(enumerate_runs(cfg)[0]).rnd_output_gain == 5.0


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("env", list(ENVS))
def test_every_env_and_variant_runs(env, variant):
    spec = enumerate_runs({**DEFAULTS, "env": env, "variants": [variant], "iterations": 30})[0]
    record = execute_run(spec)
    assert "error" not in record
    tree = record["tree"]
    root = next(n for n in tree["nodes"] if n["id"] == tree["root"])
    assert root["visits"] == 30


def test_every_module_is_reached_from_the_cli():
    # a module that `plan` never imports is code nothing reaches
    package = Path(planu.__file__).parent
    modules = {
        ".".join(("planu", *path.relative_to(package).with_suffix("").parts)).removesuffix(
            ".__init__"
        )
        for path in package.rglob("*.py")
    }
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, planu.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert sorted(modules - set(loaded)) == []


class TestRunSweep:
    def test_artifacts_written(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = load_cfg(tmp_path, STOCK_CFG, out_dir=out, parallelism=1)
        records, errors = run_sweep(cfg)
        assert errors == []
        assert len(records) == 4
        names = sorted(os.listdir(out))
        assert "summary.csv" in names and "aggregate.csv" in names
        for spec_id in ("stock-full-s0", "stock-deterministic_baseline-s1"):
            assert f"{spec_id}.trace.jsonl" in names
            assert f"{spec_id}.tree.json" in names

    def test_trace_jsonl_schema(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = load_cfg(tmp_path, STOCK_CFG, out_dir=out, parallelism=1, seeds=[0],
                       variants=["full"])
        run_sweep(cfg)
        with open(os.path.join(out, "stock-full-s0.trace.jsonl"), encoding="utf-8") as fh:
            lines = [json.loads(ln) for ln in fh]
        header, iterations = lines[0], lines[1:]
        assert header["schema_version"] == SCHEMA_VERSION
        assert all(it["schema_version"] == SCHEMA_VERSION for it in iterations)
        assert header["run_id"] == "stock-full-s0"
        assert "root_means" in header and "config" in header
        assert len(iterations) == 30
        assert all("recommended_so_far" in it for it in iterations)

    def test_tree_snapshot_loadable(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = load_cfg(tmp_path, STOCK_CFG, out_dir=out, parallelism=1, seeds=[0],
                       variants=["full"])
        run_sweep(cfg)
        with open(os.path.join(out, "stock-full-s0.tree.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert "root" in doc and "nodes" in doc

    def test_summary_rows_match_grid(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = load_cfg(tmp_path, STOCK_CFG, out_dir=out, parallelism=1)
        run_sweep(cfg)
        with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0].startswith("run_id,env,failure_rate,variant,seed,instance,success")
        assert len(rows) == 1 + 4

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            cfg = load_cfg(tmp_path, BW_CFG, out_dir=out, parallelism=2)
            run_sweep(cfg)
            with open(os.path.join(out, "summary.csv"), "rb") as fh:
                summary = fh.read()
            with open(os.path.join(out, "aggregate.csv"), "rb") as fh:
                aggregate = fh.read()
            outs.append((summary, aggregate))
        assert outs[0] == outs[1]

    def test_pool_capped_at_run_count(self, tmp_path, monkeypatch):
        pool = mock.MagicMock()
        pool.return_value.__enter__.return_value.map = map  # runs in this process
        monkeypatch.setattr(planu.cli, "ProcessPoolExecutor", pool)
        cfg = load_cfg(tmp_path, STOCK_CFG, out_dir=str(tmp_path / "runs"), parallelism=16,
                       seeds=[0], iterations=5)
        records, errors = run_sweep(cfg)
        assert errors == [] and len(records) == 2
        pool.assert_called_once_with(max_workers=2)

    def test_per_run_error_reported_not_fatal(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = load_cfg(tmp_path, BW_CFG, out_dir=out, parallelism=1,
                       instance_file=str(tmp_path / "missing.txt"))
        records, errors = run_sweep(cfg)
        assert len(errors) == len(records) == 8
        with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) == 1 + 8  # error rows present with empty metrics


class TestMain:
    def test_validate_prints_normalized_json(self, tmp_path, capsys):
        assert main(["validate", "--config", write(tmp_path, STOCK_CFG)]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["env"] == "stock"
        assert cfg["variants"] == ["full", "deterministic_baseline"]

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.cfg"
        not_utf8.write_bytes(b"recipe = caf\xe9\n")
        # each config -> what its diagnostic must name
        cases = {
            write(tmp_path, "env = mars\n"): "'mars'",
            str(tmp_path / "missing.cfg"): "missing.cfg",
            str(not_utf8): "latin1.cfg",
        }
        for path, named in cases.items():
            for command in ("validate", "run", "sweep"):
                assert main([command, "--config", path]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error") and named in err

    def test_run_writes_artifacts_and_prints_record(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        code = main(
            ["run", "--config", write(tmp_path, STOCK_CFG), "--seed", "3", "--out", out]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["run_id"] == "stock-full-s3"
        assert os.path.exists(os.path.join(out, "stock-full-s3.trace.jsonl"))

    def test_sweep_then_export_tree(self, tmp_path, capsys):
        out = str(tmp_path / "runs")
        cfg_path = write(tmp_path, STOCK_CFG + f"out_dir = {out}\nparallelism = 1\n")
        assert main(["sweep", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main(["export-tree", "--run", "stock-full-s0", "--dir", out]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "root" in doc

    def test_export_tree_missing_run_exit_1(self, tmp_path, capsys):
        assert main(["export-tree", "--run", "nope", "--dir", str(tmp_path)]) == 1
        assert "no tree snapshot" in capsys.readouterr().err
