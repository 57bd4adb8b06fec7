"""One sha256 over the search results of every env x variant x seed.

Runs `planu` as found on PYTHONPATH over every env in `planu.envs.ENVS`
and every variant in `planu.planner.VARIANTS`, at seeds 0 and 1 and a
fixed iteration budget, through the same `build_env` and `planner_config`
the CLI uses. The hash covers the tree structure and visit counts, each
action node's quantile bytes (or scalar value), every iteration's novelty
values, the evaluation rollouts and the tree snapshot with its node
digests. Two source trees that print the same digest made the same search
decisions.

    PYTHONPATH=src python3 tools/result_digest.py [--iterations N] [--verbose] [--expect HEX]

With --expect, a digest other than HEX prints both and exits with status 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os

# one BLAS thread, as in the tests, before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
from planu.cli import (  # noqa: E402
    EVAL_EPISODES,
    build_env,
    enumerate_runs,
    eval_seed,
    planner_config,
)
from planu.config import DEFAULTS  # noqa: E402
from planu.envs import ENVS  # noqa: E402
from planu.planner import VARIANTS, rollout_recommended, run_search  # noqa: E402
from planu.tree import snapshot  # noqa: E402

SEEDS = [0, 1]


def _feed_tree(h, tree):
    for s in tree.nodes():
        h.update(repr((s.key.canonical, s.depth, s.is_terminal, s.visits)).encode())
        for a in s.actions:
            h.update(repr((a.action_text, a.prior, a.visits)).encode())
            h.update(a.z.values.tobytes() if a.z is not None else np.float64(a.value).tobytes())
            h.update(repr(sorted(c.key.canonical for c in a.children.values())).encode())


def run_digest(spec, iterations: int) -> str:
    env = build_env(spec)
    cfg = dataclasses.replace(planner_config(spec), iterations=iterations)
    result = run_search(env, None, cfg)
    h = hashlib.sha256()
    _feed_tree(h, result.tree)
    h.update(json.dumps(snapshot(result.tree), sort_keys=True).encode())
    for t in result.traces:
        h.update(np.array(t.novelty_values, dtype=np.float64).tobytes())
    h.update(result.recommended_action.encode())
    for episode in range(EVAL_EPISODES):
        seed = eval_seed(spec.seed, episode)
        total, done, actions = rollout_recommended(env, result.tree, seed=seed)
        h.update(repr((np.float64(total).tobytes(), done, actions)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--verbose", action="store_true", help="print each run's digest too")
    parser.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is HEX")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for env in ENVS:
        cfg = {**DEFAULTS, "env": env, "variants": list(VARIANTS), "seeds": SEEDS}
        for spec in enumerate_runs(cfg):
            digest = run_digest(spec, args.iterations)
            if args.verbose:
                print(spec.run_id, digest)
            total.update(f"{spec.run_id} {digest}\n".encode())
    digest = total.hexdigest()
    print(digest)
    if args.expect is not None and digest != args.expect:
        print(f"digest {digest} differs from the expected {args.expect}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
