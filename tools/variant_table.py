"""Planning success of each variant at low search budgets, with standard errors.

At the defaults of `plan`, every variant solves the acceptance settings, so
those checks cannot tell the variants apart. Low budgets still can. This
script runs a fixed blocks-world recipe: 10 generated 6-step, 4-block
instances at failure rate 0.4, depth limit 14, the variants full, no_dist
and no_ucc, at 60 and 150 search iterations, over seeds 0..N-1. A run's
success is the `return` of its run record (`cli.execute_run`): blocks
world pays 1 only at the goal, so that is the share of its 5 evaluation
rollouts that reach the goal. A cell is the mean over (instance, seed)
with its standard error. The runs go through one worker process per CPU,
as a sweep with `parallelism = 0`.

    PYTHONPATH=src python3 tools/variant_table.py [--seeds N] [--instances N]
        [--out FILE.json] [--against FILE.json]

--out saves the success of every (budget, run). --against reads such a file
from another source tree and prints, per cell, this tree's success minus
that file's, paired by (instance, seed), with the standard error of the
paired differences. It is the quality gate of a change to search results:
the script exits 1, naming each (budget, variant) cell whose paired
difference lies more than 2 SE below zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

# one BLAS thread per process, as in the tests, before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from planu.cli import enumerate_runs, execute_run  # noqa: E402
from planu.config import DEFAULTS  # noqa: E402

VARIANTS = ["full", "no_dist", "no_ucc"]
BUDGETS = [60, 150]
RECIPE = {"env": "blocksworld", "n_steps": 6, "n_blocks": 4, "failure_rate": 0.4, "depth_limit": 14}


def success(spec) -> float:
    """The share of the run's evaluation rollouts that reach the goal."""
    return execute_run(spec)["return"]


def run_table(seeds: int, instances: int) -> dict[str, dict[str, float]]:
    """{budget: {run id: success}} over the recipe's grid."""
    specs = [
        spec
        for budget in BUDGETS
        for spec in enumerate_runs({**DEFAULTS, **RECIPE, "iterations": budget,
                                    "instances": instances, "variants": VARIANTS,
                                    "seeds": list(range(seeds))})
    ]
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(specs))) as pool:
        values = list(pool.map(success, specs, chunksize=8))
    table: dict[str, dict[str, float]] = {str(budget): {} for budget in BUDGETS}
    for spec, value in zip(specs, values):
        table[str(spec.config["iterations"])][spec.run_id] = value
    return table


def mean_se(xs: list[float]) -> tuple[float, float]:
    """Mean and its standard error (sample standard deviation / sqrt(n))."""
    n = len(xs)
    mean = sum(xs) / n
    if n < 2:
        return mean, math.nan
    return mean, math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1) / n)


def cells(table: dict[str, dict[str, float]]) -> dict[tuple[str, str], dict[str, float]]:
    """{(budget, variant): {run id without the variant: success}}."""
    out: dict[tuple[str, str], dict[str, float]] = {}
    for budget, runs in table.items():
        for run_id, value in runs.items():
            variant = next(v for v in VARIANTS if f"-{v}-" in run_id)
            out.setdefault((budget, variant), {})[run_id.replace(f"-{variant}-", "-")] = value
    return out


def print_table(title: str, rows: dict[tuple[str, str], list[float]], fmt: str) -> None:
    """One markdown row per budget; each cell is fmt of (mean, SE)."""
    print(title)
    print("| iterations | " + " | ".join(VARIANTS) + " |")
    print("|---|" + "---|" * len(VARIANTS))
    for budget in map(str, BUDGETS):
        entries = [fmt.format(*mean_se(rows[budget, v])) for v in VARIANTS]
        print(f"| {budget} | " + " | ".join(entries) + " |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40, help="planner seeds 0..N-1")
    parser.add_argument("--instances", type=int, default=10)
    parser.add_argument("--out", metavar="FILE.json", help="save every run's success")
    parser.add_argument("--against", metavar="FILE.json",
                        help="print the paired differences against a saved table; exit 1 if a"
                        " cell is more than 2 SE below zero")
    args = parser.parse_args(argv)
    if min(args.seeds, args.instances) < 1:
        parser.error("--seeds and --instances must be at least 1")
    old = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = cells(json.load(fh))
    table = run_table(args.seeds, args.instances)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
    new = cells(table)
    n = len(next(iter(new.values())))
    print_table(f"success, mean ± SE over {n} (instance, seed) runs",
                {k: list(v.values()) for k, v in new.items()}, "{:.3f} ± {:.3f}")
    if old is not None:
        if {k: sorted(v) for k, v in old.items()} != {k: sorted(v) for k, v in new.items()}:
            parser.error(f"{args.against} holds other runs than this table")
        if n < 2:
            parser.error("--against needs at least 2 runs per cell for a standard error")
        diffs = {k: [new[k][run] - old[k][run] for run in new[k]] for k in new}
        print_table("paired difference (this tree - against), mean ± SE", diffs, "{:+.3f} ± {:.3f}")
        worse = 0
        for (budget, variant), xs in sorted(diffs.items()):
            mean, se = mean_se(xs)
            if mean < -2 * se:
                worse += 1
                print(f"worse: {budget} iterations, {variant}: {mean:+.3f} ± {se:.3f},"
                      " more than 2 SE below zero", file=sys.stderr)
        if worse:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
