"""Experiment runner CLI: seeded runs and sweeps with persisted artifacts.

Subcommands:
  plan run         one search run (first point of the configured grid)
  plan sweep       the full env-params x variants x seeds grid
  plan validate    schema-check a config file and echo the normalized form
  plan export-tree print a stored tree snapshot for a finished run

Each run writes a JSONL trace and a JSON tree snapshot; a sweep adds a
per-run summary CSV and an aggregate CSV. Identical configs and seeds
produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import validate_config
from .errors import ConfigError, PlanuError
from .envs import ENVS, generate_instance  # noqa: F401 - re-exported for callers of planu.cli
from .planner import (
    CONFIG_FIELDS,
    VARIANTS,
    PlannerConfig,
    SearchResult,
    rollout_recommended,
    run_search,
)
from .tree import snapshot

SCHEMA_VERSION = 2
EVAL_EPISODES = 5
EVAL_SEED_OFFSET = 10_000


@dataclass(frozen=True)
class RunSpec:
    run_id: str
    env: str
    failure_rate: float | None
    variant: str
    seed: int
    instance_index: int
    config: dict


def enumerate_runs(cfg: dict) -> list[RunSpec]:
    """Deterministic, ordered Cartesian product of the sweep axes."""
    env = cfg["env"]
    instance_axes = ENVS[env].instance_axes
    frs: list[float | None]
    if instance_axes:
        fr = cfg["failure_rate"]
        frs = list(fr) if isinstance(fr, list) else [fr]
        instances = range(cfg["instances"])
    else:
        frs = [None]
        instances = range(1)
    specs = []
    for fr in frs:
        for inst in instances:
            for variant in cfg["variants"]:
                for seed in cfg["seeds"]:
                    parts = [env]
                    if fr is not None:
                        parts.append(f"fr{fr:g}")
                    if instance_axes:
                        parts.append(f"i{inst:02d}")
                    parts += [variant, f"s{seed}"]
                    specs.append(
                        RunSpec(
                            run_id="-".join(parts),
                            env=env,
                            failure_rate=fr,
                            variant=variant,
                            seed=seed,
                            instance_index=inst,
                            config=cfg,
                        )
                    )
    return specs


def build_env(spec: RunSpec):
    return ENVS[spec.env].build(spec)


def planner_config(spec: RunSpec) -> PlannerConfig:
    """The run's planner parameters; a null one takes the env's default."""
    kind = ENVS[spec.env]
    params = {f.name: spec.config[f.name] for f in CONFIG_FIELDS}
    params.update({name: getattr(kind, name) for name, v in params.items() if v is None})
    return PlannerConfig(**params, variant=spec.variant, seed=spec.seed)


def _first_success_iteration(spec: RunSpec, result: SearchResult) -> int | None:
    solved = ENVS[spec.env].solved
    return next((t.index + 1 for t in result.traces if solved(t)), None)


def _record_head(spec: RunSpec) -> dict:
    """The fields that open every run record, finished or failed."""
    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": spec.run_id,
        "env": spec.env,
        "failure_rate": spec.failure_rate,
        "variant": spec.variant,
        "seed": spec.seed,
        "instance": spec.instance_index,
    }


def execute_run(spec: RunSpec) -> dict:
    """Run one search plus evaluation episodes; returns the run record."""
    start = time.perf_counter()
    env = build_env(spec)
    result = run_search(env, None, planner_config(spec))

    returns = []
    reached = []
    for episode in range(EVAL_EPISODES):
        total, done, _ = rollout_recommended(
            env, result.tree, seed=EVAL_SEED_OFFSET + spec.seed * EVAL_EPISODES + episode
        )
        returns.append(total)
        reached.append(done and total > 0.5)
    realized = float(np.mean(returns))

    kind = ENVS[spec.env]
    success = reached[0] if kind.judged_by_rollout else kind.solved(result.traces[-1])

    first = _first_success_iteration(spec, result)
    return {
        **_record_head(spec),
        "success": bool(success),
        "return": realized,
        "iterations_to_first_success": first,
        "recommended": result.recommended_action,
        "root_means": {
            a.action_text: a.mean_value() for a in result.tree.root.actions
        },
        "config": {k: v for k, v in sorted(spec.config.items())},
        "wall_time": time.perf_counter() - start,
        "tree": snapshot(result.tree),
        "iterations": [
            {
                "schema_version": SCHEMA_VERSION,
                "iteration": t.index,
                "path_length": t.path_length,
                "terminal": t.terminal,
                "total_reward": t.total_reward,
                "recommended_so_far": t.recommended_so_far,
            }
            for t in result.traces
        ],
    }


def _safe_execute(spec: RunSpec) -> dict:
    try:
        return execute_run(spec)
    except Exception as exc:  # noqa: BLE001 - per-run errors become exit-code 1
        return {**_record_head(spec), "error": f"{type(exc).__name__}: {exc}"}


def _write_run_artifacts(record: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    run_id = record["run_id"]
    with open(os.path.join(out_dir, f"{run_id}.trace.jsonl"), "w", encoding="utf-8") as fh:
        header = {k: v for k, v in record.items() if k not in ("iterations", "tree")}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for line in record.get("iterations", []):
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    if "tree" in record:
        with open(os.path.join(out_dir, f"{run_id}.tree.json"), "w", encoding="utf-8") as fh:
            json.dump(record["tree"], fh, indent=2, sort_keys=True)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def run_sweep(cfg: dict) -> tuple[list[dict], list[str]]:
    """Execute the full grid; write JSONL traces and the two CSVs.

    Returns (records, error messages); an empty error list means exit 0.
    """
    specs = enumerate_runs(cfg)
    workers = min(cfg["parallelism"] or os.cpu_count() or 1, len(specs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_safe_execute, specs))
    else:
        records = [_safe_execute(spec) for spec in specs]

    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for record in records:
        _write_run_artifacts(record, out_dir)

    with open(os.path.join(out_dir, "summary.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run_id", "env", "failure_rate", "variant", "seed", "instance",
             "success", "return", "iterations_to_first_success"]
        )
        for r in records:
            writer.writerow(
                [r["run_id"], r["env"], _fmt(r["failure_rate"]), r["variant"], r["seed"],
                 r["instance"], _fmt(r.get("success")), _fmt(r.get("return")),
                 _fmt(r.get("iterations_to_first_success"))]
            )

    groups: dict[tuple, list[dict]] = {}
    for r in records:
        groups.setdefault((r["env"], r["failure_rate"], r["variant"]), []).append(r)
    with open(os.path.join(out_dir, "aggregate.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["env", "failure_rate", "variant", "n_runs", "success_rate",
             "mean_return", "std_return"]
        )
        for key in sorted(groups, key=lambda k: (k[0], -1.0 if k[1] is None else k[1], k[2])):
            rs = [r for r in groups[key] if "error" not in r]
            if rs:
                rates = [float(r["success"]) for r in rs]
                rets = [r["return"] for r in rs]
                row = [len(rs), _fmt(float(np.mean(rates))),
                       _fmt(float(np.mean(rets))), _fmt(float(np.std(rets)))]
            else:
                row = [0, "", "", ""]
            writer.writerow([key[0], _fmt(key[1]), key[2], *row])

    errors = [f"{r['run_id']}: {r['error']}" for r in records if "error" in r]
    return records, errors


def _overrides(args) -> dict:
    over = {}
    if getattr(args, "seed", None) is not None:
        over["seeds"] = [args.seed]
    if getattr(args, "env", None) is not None:
        over["env"] = args.env
    if getattr(args, "variant", None) is not None:
        over["variants"] = [args.variant]
    if getattr(args, "out", None) is not None:
        over["out_dir"] = args.out
    return over


def _cmd_run(args) -> int:
    cfg = validate_config(args.config, _overrides(args))
    spec = enumerate_runs(cfg)[0]
    record = _safe_execute(spec)
    _write_run_artifacts(record, cfg["out_dir"])
    printable = {k: v for k, v in record.items() if k not in ("iterations", "tree", "config")}
    print(json.dumps(printable, indent=2, sort_keys=True))
    return 1 if "error" in record else 0


def _cmd_sweep(args) -> int:
    cfg = validate_config(args.config)
    records, errors = run_sweep(cfg)
    print(f"completed {len(records) - len(errors)}/{len(records)} runs -> {cfg['out_dir']}")
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_validate(args) -> int:
    cfg = validate_config(args.config)
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def _cmd_export_tree(args) -> int:
    path = os.path.join(args.dir, f"{args.run}.tree.json")
    if not os.path.exists(path):
        print(f"no tree snapshot for run {args.run!r} under {args.dir}", file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(content)
    else:
        print(content)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plan", description="Planning experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single search")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--env", choices=list(ENVS))
    p_run.add_argument("--variant", choices=list(VARIANTS))
    p_run.add_argument("--out")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the configured sweep grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_exp = sub.add_parser("export-tree", help="print a stored tree snapshot")
    p_exp.add_argument("--run", required=True)
    p_exp.add_argument("--dir", default="runs")
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=_cmd_export_tree)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 2
    except PlanuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
