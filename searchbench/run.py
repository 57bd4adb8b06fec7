"""Search benchmark of planu: end-to-end metrics, or per-layer ones traced.

Usage, from the root of the repository:

    python3 searchbench/run.py --workload bw-curiosity --seed 0 --seconds 30 --trace 0
    python3 searchbench/run.py --workload all --seed 0 --seconds 30

The workload runs in whole rounds until --seconds have passed, then every
output is checked. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. A copy with
the raw totals goes to .searchbench/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".searchbench"
# the names of workloads.WORKLOADS, here so that parsing the arguments
# imports nothing of planu before the set-up is timed
WORKLOADS = ("bw-curiosity", "bw-uct", "sweep-mixed")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once and print the seconds it took")
    return parser.parse_args(argv)


def child_setup_seconds(args, clock) -> float:
    """Set-up time in a fresh interpreter, so imports count; reference seconds."""
    out, _ = clock.timed(
        subprocess.run,
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1]) * clock.factor(-2)


def run_rounds(workload, seconds: float, after_round=None):
    """Whole rounds until the time is up; only the first keeps its outputs."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workload.run_round())
        if after_round:
            after_round()
        if len(rounds) > 1:
            rounds[-1].outputs = []
    return rounds


def repeat_problems(reference, rounds) -> list[str]:
    return [f"round {i} outputs differ from the first round"
            for i, r in enumerate(rounds) if r.fingerprint != reference.fingerprint]


def end_to_end(args, workdir: str) -> dict:
    import workloads

    workload = workloads.build(args.workload, args.seed, workdir)
    own_setup = time.perf_counter() - START
    setups = [child_setup_seconds(args, workload.clock) for _ in range(SETUP_REPEATS)]
    rounds = run_rounds(workload, args.seconds)
    problems = workload.check(rounds[0]) + repeat_problems(rounds[0], rounds[1:])
    searches = [s for r in rounds for s in r.searches]
    returns = rounds[0].returns
    metrics = {
        "iters_per_s": (sum(n for _, n in searches) / sum(t for t, _ in searches), "iter/s"),
        # the mean: a median of a dozen unlike searches jumps between them
        "decide_s": (sum(t for t, _ in searches) / len(searches), "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "eval_return": (sum(returns) / len(returns), "return"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"rounds": len(rounds), "round_wall_s": [r.wall_s for r in rounds],
              "round_factor": [r.factor for r in rounds],
              "search_s": [[t for t, _ in r.searches] for r in rounds],
              "setup_s": setups, "own_setup_raw_s": own_setup}
    return result(rounds, problems, metrics, detail)


def traced(args, workdir: str) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    workload = workloads.build(args.workload, args.seed, workdir)
    setup = tracer.take()
    tracer.uninstall()

    reference = workload.run_round()  # untraced, to show the wrappers change nothing
    tracing.install_layers(tracer)
    spans = []
    rounds = run_rounds(workload, args.seconds, lambda: spans.append(tracer.take()))
    tracer.uninstall()

    problems = workload.check(reference) + repeat_problems(reference, rounds)
    counts = [(s["calls"], s["under"], s["counters"]) for s in spans]
    problems += [f"traced round {i} counts differ from the first traced round"
                 for i, c in enumerate(counts) if c != counts[0]]
    first = rounds[0]
    metrics = tracing.layer_metrics(setup, spans, [r.factor for r in rounds], first.state_nodes,
                                    first.action_nodes, first.artifact_bytes)
    # the tracing overhead is this less the untraced run's wall_s
    metrics["trace.wall_s"] = (statistics.median(r.wall_s for r in rounds), "s")
    detail = {"rounds": len(rounds), "untraced_wall_s": reference.wall_s,
              "traced_wall_s": [r.wall_s for r in rounds],
              "spans": {k: spans[0][k] for k in ("total", "self", "calls", "counters")}}
    return result(rounds, problems, metrics, detail)


def result(rounds, problems, metrics, detail) -> dict:
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "detail": detail,
    }


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "planu" / "__init__.py").is_file():
        print(f"searchbench: no planu sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            import workloads

            workloads.build(args.workload, args.seed, str(workdir))
            print(time.perf_counter() - START)
            return 0
        out = (traced if args.trace else end_to_end)(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=2, sort_keys=True))
    for problem in out["problems"]:
        print(f"{args.workload}: INCORRECT: {problem}")
    print(f"{args.workload}: {out['detail']['rounds']} rounds, "
          f"{out['attempted']} searches, {out['failed']} failed")
    for name, m in out["metrics"].items():
        print(f"{args.workload}  {name:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
